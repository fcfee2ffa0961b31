package nmp

import (
	"testing"

	"evedge/internal/hw"
	"evedge/internal/nn"
	"evedge/internal/perf"
)

// placementNets is the session order of the benchmark's serve_http_mixed
// pass (bench/http.go's httpNets).
var placementNets = []string{nn.DOTIE, nn.HALSIE, nn.SpikeFlowNet, nn.HidalgoDepth}

// placementSearches runs the seven searches of one serve_http_mixed
// pass exactly as serve.buildMapper does: every create re-plans the
// grown active set (1→4 networks), every close but the last re-plans
// what remains (3→1), each with a fresh profile DB, the Table 2 budgets
// and serve's 12 × 8 create-latency search.
func placementSearches(tb testing.TB, model *perf.Model, nets []*nn.Network) {
	cfg := DefaultConfig()
	cfg.Population, cfg.Generations = 12, 8
	for i := 1; i < 2*len(nets); i++ {
		set := nets[max(0, i-len(nets)):min(i, len(nets))]
		db, err := perf.BuildProfileDB(model, set, true, nil)
		if err != nil {
			tb.Fatal(err)
		}
		mp, err := NewMapper(db, model, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := mp.Search(); err != nil {
			tb.Fatal(err)
		}
	}
}

func placementWorkload() (*perf.Model, []*nn.Network) {
	nets := make([]*nn.Network, len(placementNets))
	for i, name := range placementNets {
		nets[i] = nn.MustByName(name)
	}
	return perf.NewModel(hw.Xavier()), nets
}

// BenchmarkPlacementSearch prices one serve_http_mixed pass's worth of
// placement searches; ns/op ÷ 7 is bench/'s nmp.placement_search_ms.
func BenchmarkPlacementSearch(b *testing.B) {
	model, nets := placementWorkload()
	b.ReportAllocs()
	for b.Loop() {
		placementSearches(b, model, nets)
	}
}

// TestPlacementSearchAllocBudget keeps a search's heap traffic
// proportional to its candidates (assignment clones, cached
// evaluations, one profile DB), not to the graph nodes it schedules:
// 70 983 allocations per seven searches before the graph and schedule
// were rebuilt in place, ≈ 7 000 since.
func TestPlacementSearchAllocBudget(t *testing.T) {
	model, nets := placementWorkload()
	const budget = 10_000
	if allocs := testing.AllocsPerRun(3, func() { placementSearches(t, model, nets) }); allocs > budget {
		t.Fatalf("seven placement searches allocate %.0f times, budget %d", allocs, budget)
	}
}
