package nmp

import (
	"testing"

	"evedge/internal/nn"
)

// TestEnergyObjective exercises the paper's "this procedure can be
// repeated to optimize for other objectives such as energy as well":
// an energy-objective search should find a configuration that uses
// less energy than the latency-objective search (typically by leaning
// on the DLAs), at equal or worse latency.
func TestEnergyObjective(t *testing.T) {
	db, m := workload(t, nn.HidalgoDepth, nn.EVFlowNet)

	latCfg := quickCfg(21)
	latCfg.Generations = 20
	mpLat, err := NewMapper(db, m, latCfg)
	if err != nil {
		t.Fatal(err)
	}
	latRes, err := mpLat.Search()
	if err != nil {
		t.Fatal(err)
	}

	enCfg := quickCfg(21)
	enCfg.Generations = 20
	enCfg.Objective = MinEnergy
	mpEn, err := NewMapper(db, m, enCfg)
	if err != nil {
		t.Fatal(err)
	}
	enRes, err := mpEn.Search()
	if err != nil {
		t.Fatal(err)
	}

	if enRes.EnergyJ > latRes.EnergyJ*1.001 {
		t.Fatalf("energy objective found worse energy: %f J vs %f J",
			enRes.EnergyJ, latRes.EnergyJ)
	}
	if !enRes.Feasible {
		t.Fatal("energy-objective result violates accuracy budgets")
	}
	// The energy optimum should not be the latency optimum's mirror:
	// it trades latency for energy.
	if enRes.LatencyUS < latRes.LatencyUS*0.99 {
		t.Fatalf("energy search should not also dominate latency (%.0f vs %.0f)",
			enRes.LatencyUS, latRes.LatencyUS)
	}
}

// TestSeedInjection checks AddSeed wires extra candidates into the
// initial population.
func TestSeedInjection(t *testing.T) {
	db, m := workload(t, nn.DOTIE)
	cfg := quickCfg(5)
	cfg.Generations = 1
	mp, err := NewMapper(db, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed with the best known single-layer mapping: CPU FP32 (cheap
	// launch for a tiny SNN layer).
	seed, err := AllGPU(db.Networks(), db.Platform(), nn.FP16)
	if err != nil {
		t.Fatal(err)
	}
	seed.Device[0][0] = 0
	seed.Prec[0][0] = nn.FP32
	mp.AddSeed(seed)
	res, err := mp.Search()
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyUS <= 0 {
		t.Fatal("degenerate result")
	}
	// The seeded candidate (or something at least as good) must win.
	seedEv, err := mp.Evaluate(seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyUS > seedEv.latency*1.0001 {
		t.Fatalf("search (%f) lost to its own seed (%f)", res.LatencyUS, seedEv.latency)
	}
}
