package nmp

import (
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"evedge/internal/hw"
	"evedge/internal/nn"
	"evedge/internal/perf"
)

// workload profiles a set of networks on Xavier with sparse execution.
func workload(t testing.TB, names ...string) (*perf.ProfileDB, *perf.Model) {
	t.Helper()
	platform := hw.Xavier()
	m := perf.NewModel(platform)
	nets := make([]*nn.Network, len(names))
	dens := make([]float64, len(names))
	for i, n := range names {
		nets[i] = nn.MustByName(n)
		dens[i] = 0.05
	}
	db, err := perf.BuildProfileDB(m, nets, true, dens)
	if err != nil {
		t.Fatal(err)
	}
	return db, m
}

func quickCfg(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Population = 10
	cfg.Generations = 12
	cfg.Seed = seed
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Population: 1, Generations: 1},
		{Population: 4, Generations: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBaselinePolicies(t *testing.T) {
	db, _ := workload(t, nn.DOTIE, nn.HidalgoDepth, nn.EVFlowNet)
	nets := db.Networks()
	platform := db.Platform()

	gpuAsg, err := AllGPU(nets, platform, nn.FP32)
	if err != nil {
		t.Fatal(err)
	}
	if err := gpuAsg.Validate(nets, platform); err != nil {
		t.Fatal(err)
	}
	for t2 := range nets {
		for _, d := range gpuAsg.Device[t2] {
			if d != platform.GPUDevice().ID {
				t.Fatal("AllGPU strayed off the GPU")
			}
		}
	}
	if _, err := AllGPU(nets, platform, nn.Precision(9)); err == nil {
		t.Fatal("bad precision accepted")
	}

	rrn, err := RRNetwork(nets, platform)
	if err != nil {
		t.Fatal(err)
	}
	if err := rrn.Validate(nets, platform); err != nil {
		t.Fatal(err)
	}
	// Each network is on exactly one device; devices differ across the
	// first three tasks (GPU, DLA0, DLA1 cycle).
	devOf := func(t2 int) int {
		d := rrn.Device[t2][0]
		for _, x := range rrn.Device[t2] {
			if x != d {
				t.Fatalf("RR-Network split task %d across devices", t2)
			}
		}
		return d
	}
	if devOf(0) == devOf(1) || devOf(1) == devOf(2) || devOf(0) == devOf(2) {
		t.Fatal("RR-Network did not cycle devices")
	}

	rrl, err := RRLayer(nets, platform)
	if err != nil {
		t.Fatal(err)
	}
	if err := rrl.Validate(nets, platform); err != nil {
		t.Fatal(err)
	}
	// Layers cycle: within Hidalgo (15 layers), all three accelerators
	// appear.
	seen := map[int]bool{}
	for _, d := range rrl.Device[1] {
		seen[d] = true
	}
	if len(seen) != 3 {
		t.Fatalf("RR-Layer used %d devices in task 1", len(seen))
	}
}

func TestEvaluateRespectsBudgets(t *testing.T) {
	db, m := workload(t, nn.SpikeFlowNet)
	mp, err := NewMapper(db, m, quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	nets := db.Networks()
	platform := db.Platform()

	// Full precision everywhere: zero accuracy delta, feasible.
	fp, _ := AllGPU(nets, platform, nn.FP32)
	r1, err := mp.EvaluatePolicy(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Feasible || r1.Deltas[0] != 0 {
		t.Fatalf("FP32 policy should be trivially feasible: %+v", r1)
	}

	// All-INT8 overshoots the Table 2 budget by construction: the
	// candidate must be marked infeasible and its fitness inflated.
	int8asg, _ := AllGPU(nets, platform, nn.INT8)
	r2, err := mp.EvaluatePolicy(int8asg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Feasible {
		t.Fatal("all-INT8 should violate the accuracy budget")
	}
	// INT8 is faster in raw latency...
	if r2.LatencyUS >= r1.LatencyUS {
		t.Fatal("INT8 should be faster than FP32")
	}
	ev1, _ := mp.Evaluate(fp)
	ev2, _ := mp.Evaluate(int8asg)
	// ...but the fitness penalty must make it lose.
	if ev2.fitness <= ev1.fitness {
		t.Fatalf("penalty too weak: int8 fitness %f vs fp32 %f", ev2.fitness, ev1.fitness)
	}
}

// TestHashAssignmentIsFNV1a holds the hand-written hash to hash/fnv —
// the value is the fitness-cache key and seeds DeltaSampled, so every
// search result depends on it — and pins that it allocates nothing.
func TestHashAssignmentIsFNV1a(t *testing.T) {
	db, _ := workload(t, nn.SpikeFlowNet, nn.DOTIE)
	for _, p := range []nn.Precision{nn.FP32, nn.FP16, nn.INT8} {
		asg, err := AllGPU(db.Networks(), db.Platform(), p)
		if err != nil {
			t.Fatal(err)
		}
		asg.Device[1][0] = 1
		ref := fnv.New64a()
		for task := range asg.Device {
			for l := range asg.Device[task] {
				ref.Write([]byte{byte(asg.Device[task][l]), byte(asg.Prec[task][l])})
			}
		}
		if got := hashAssignment(asg); got != ref.Sum64() {
			t.Fatalf("%v: hashAssignment = %#x, hash/fnv New64a gives %#x", p, got, ref.Sum64())
		}
		if allocs := testing.AllocsPerRun(20, func() { hashAssignment(asg) }); allocs != 0 {
			t.Fatalf("hashAssignment allocates %.0f times per call, want 0", allocs)
		}
	}
}

func TestSearchBeatsBaselinesAndStaysFeasible(t *testing.T) {
	db, m := workload(t, nn.DOTIE, nn.AdaptiveSpikeNet)
	mp, err := NewMapper(db, m, quickCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	nets := db.Networks()
	platform := db.Platform()

	res, err := mp.Search()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("search result violates accuracy budgets: %v vs %v", res.Deltas, mp.Budgets())
	}
	if len(res.FitnessHistory) != mp.cfg.Generations {
		t.Fatalf("history length %d", len(res.FitnessHistory))
	}
	// Convergence: best fitness never worsens across generations.
	for i := 1; i < len(res.FitnessHistory); i++ {
		if res.FitnessHistory[i] > res.FitnessHistory[i-1]+1e-9 {
			t.Fatalf("fitness regressed at generation %d", i)
		}
	}

	rrn, _ := RRNetwork(nets, platform)
	rrnRes, err := mp.EvaluatePolicy(rrn)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyUS >= rrnRes.LatencyUS {
		t.Fatalf("search (%f us) should beat RR-Network (%f us)", res.LatencyUS, rrnRes.LatencyUS)
	}
	if res.CacheHits == 0 {
		t.Fatal("fitness cache never hit — crossover should revisit candidates")
	}
}

func TestSearchDeterministicPerSeed(t *testing.T) {
	db, m := workload(t, nn.DOTIE, nn.EVFlowNet)
	run := func(seed int64) float64 {
		mp, err := NewMapper(db, m, quickCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := mp.Search()
		if err != nil {
			t.Fatal(err)
		}
		return res.LatencyUS
	}
	if run(3) != run(3) {
		t.Fatal("search not deterministic under a fixed seed")
	}
}

func TestRandomSearchLosesToEvolutionary(t *testing.T) {
	// The paper's Fig. 10b: with the same evaluation budget, random
	// search lands on a worse configuration (1.42x there).
	db, m := workload(t, nn.FusionFlowNet, nn.HALSIE)
	cfg := quickCfg(11)
	mp, err := NewMapper(db, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	evo, err := mp.Search()
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := mp.RandomSearch()
	if err != nil {
		t.Fatal(err)
	}
	if evo.LatencyUS >= rnd.LatencyUS {
		t.Fatalf("evolutionary (%f) should beat random (%f)", evo.LatencyUS, rnd.LatencyUS)
	}
	if rnd.Evaluations != cfg.Population*cfg.Generations {
		t.Fatalf("random search evaluations=%d", rnd.Evaluations)
	}
}

func TestNMPFPVariant(t *testing.T) {
	db, m := workload(t, nn.DOTIE, nn.HidalgoDepth)
	cfg := quickCfg(5)
	cfg.FullPrecisionOnly = true
	mp, err := NewMapper(db, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mp.Search()
	if err != nil {
		t.Fatal(err)
	}
	// FP-only candidates never use INT8 and are always feasible (no
	// accuracy loss from FP16 weight storage beyond its tiny penalty,
	// which stays within every budget).
	for t2 := range res.Assignment.Prec {
		for _, p := range res.Assignment.Prec[t2] {
			if p == nn.INT8 {
				t.Fatal("NMP-FP candidate used INT8")
			}
		}
	}
	// The unconstrained search should be at least as fast.
	cfg2 := quickCfg(5)
	mp2, _ := NewMapper(db, m, cfg2)
	full, err := mp2.Search()
	if err != nil {
		t.Fatal(err)
	}
	if full.LatencyUS > res.LatencyUS*1.001 {
		t.Fatalf("mixed-precision search (%f) slower than FP-only (%f)", full.LatencyUS, res.LatencyUS)
	}
}

func TestCacheAblation(t *testing.T) {
	db, m := workload(t, nn.DOTIE, nn.SpikeFlowNet)
	cfg := quickCfg(9)
	mp, _ := NewMapper(db, m, cfg)
	res, err := mp.Search()
	if err != nil {
		t.Fatal(err)
	}
	// Every scored candidate is either evaluated or a cache hit, so
	// CacheHits is the number of evaluations the cache saved.
	if res.CacheHits == 0 {
		t.Fatal("cache saved no evaluations")
	}
	if scored := cfg.Population * cfg.Generations; res.CacheHits+res.Evaluations != scored {
		t.Fatalf("cache hits %d + evaluations %d != %d candidates scored", res.CacheHits, res.Evaluations, scored)
	}
}

// prefersFeasible scans seeds over two single-network workloads for the
// case the penalty creates — the fittest member priced overspends its
// Table 2 budget by so little that its penalized fitness still beats
// every feasible candidate's — and requires that the search never hands
// that member back: a feasible candidate is seen in every run (the
// full-precision mappings always are), so the result must be feasible.
// The case is rare (a few seeds in a thousand for Search) and which
// seeds show it depends on the sampling noise, so the scan is wide and
// must meet it at least once: a change to the noise moves the case to
// other seeds instead of silently retiring the test.
func prefersFeasible(t *testing.T, search func(*Mapper) (*Result, error)) {
	t.Helper()
	const seeds = 512
	cases := 0
	for _, name := range []string{nn.SpikeFlowNet, nn.HidalgoDepth} {
		db, m := workload(t, name)
		for seed := int64(1); seed <= seeds; seed++ {
			mp, err := NewMapper(db, m, quickCfg(seed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := search(mp)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Feasible || res.Deltas[0] > mp.Budgets()[0] {
				t.Fatalf("%s seed %d: infeasible assignment returned: deltas %v, budgets %v",
					name, seed, res.Deltas, mp.Budgets())
			}
			// The history records what the search optimized: the penalized
			// fitness, which here an infeasible member won.
			if last := res.FitnessHistory[len(res.FitnessHistory)-1]; last < res.LatencyUS {
				cases++
			}
		}
	}
	if cases == 0 {
		t.Fatalf("no seed in 1..%d has an over-budget member outscoring every feasible one: widen the scan", seeds)
	}
	t.Logf("over-budget winner set aside in %d of %d runs", cases, 2*seeds)
}

func TestSearchPrefersFeasible(t *testing.T) {
	prefersFeasible(t, (*Mapper).Search)
}

// TestRandomSearchPrefersFeasible: Fig. 10b compares deployable plans,
// so the random baseline answers under the same rule as Search.
func TestRandomSearchPrefersFeasible(t *testing.T) {
	prefersFeasible(t, (*Mapper).RandomSearch)
}

// TestConcurrentEvaluatePredictSearch: a Mapper holds no per-candidate
// state — each call prices candidates through an evaluator of its own —
// so goroutines sharing one Mapper neither race (run under -race) nor
// disturb one another's results.
func TestConcurrentEvaluatePredictSearch(t *testing.T) {
	db, m := workload(t, nn.DOTIE, nn.HidalgoDepth)
	mp, err := NewMapper(db, m, quickCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	rrl, err := RRLayer(db.Networks(), db.Platform())
	if err != nil {
		t.Fatal(err)
	}
	wantSearch, err := mp.Search()
	if err != nil {
		t.Fatal(err)
	}
	wantEv, err := mp.Evaluate(rrl)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				ev, err := mp.Evaluate(rrl)
				if err != nil || ev.fitness != wantEv.fitness {
					t.Errorf("concurrent Evaluate: fitness %v err %v, want %v", ev, err, wantEv.fitness)
				}
				lat, feasible, err := mp.Predict(rrl)
				if err != nil || lat != wantEv.latency || feasible != wantEv.feasible {
					t.Errorf("concurrent Predict: %v %v %v, want %v %v", lat, feasible, err, wantEv.latency, wantEv.feasible)
				}
				res, err := mp.Search()
				if err != nil || res.LatencyUS != wantSearch.LatencyUS || res.Evaluations != wantSearch.Evaluations {
					t.Errorf("concurrent Search: %+v err %v, want latency %v after %d evaluations",
						res, err, wantSearch.LatencyUS, wantSearch.Evaluations)
				}
				if from, err := mp.SearchFrom(rrl, 2); err != nil || !from.Feasible {
					t.Errorf("concurrent SearchFrom: %+v err %v", from, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRRNetworkFromSharesUnmovedRows: RRNetworkFrom places a workload
// as RRNetwork does whatever prev it is given, and shares prev's row at
// a position exactly when that row already holds the placement: after
// an append (a session created) every earlier row, after a removal (a
// session closed) every row whose position's device and layer count
// stayed.
func TestRRNetworkFromSharesUnmovedRows(t *testing.T) {
	platform := hw.Xavier()
	flow, dotie := nn.MustByName(nn.SpikeFlowNet), nn.MustByName(nn.DOTIE)
	nets := []*nn.Network{flow, flow, dotie, flow, flow}
	prev, err := RRNetwork(nets, platform)
	if err != nil {
		t.Fatal(err)
	}
	shared := func(a, b []int) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	for _, c := range []struct {
		name   string
		nets   []*nn.Network
		shares []bool
	}{
		{"same", nets, []bool{true, true, true, true, true}},
		{"append", append(nets[:5:5], dotie), []bool{true, true, true, true, true, false}},
		// Removing task 1 moves DOTIE to position 1: row 1 no longer
		// fits, and row 2 (SpikeFlowNet now) has DOTIE's length.
		{"remove", []*nn.Network{flow, dotie, flow, flow}, []bool{true, false, false, true}},
		{"empty", nil, nil},
	} {
		want, err := RRNetwork(c.nets, platform)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RRNetworkFrom(prev, c.nets, platform)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Device) != len(want.Device) {
			t.Fatalf("%s: %d rows, want %d", c.name, len(got.Device), len(want.Device))
		}
		for i := range want.Device {
			if !slices.Equal(got.Device[i], want.Device[i]) || !slices.Equal(got.Prec[i], want.Prec[i]) {
				t.Fatalf("%s: row %d maps %v %v, RRNetwork %v %v", c.name, i, got.Device[i], got.Prec[i], want.Device[i], want.Prec[i])
			}
			if s := i < len(prev.Device) && shared(got.Device[i], prev.Device[i]); s != c.shares[i] {
				t.Errorf("%s: row %d shared = %v, want %v", c.name, i, s, c.shares[i])
			}
		}
	}
}
