package experiments

import (
	"fmt"

	"evedge/internal/nmp"
	"evedge/internal/nn"
	"evedge/internal/perf"
)

// MultiTaskConfigs returns the paper's concurrent-execution mixes: an
// all-ANN pair, an all-SNN pair, and a four-network mixed SNN-ANN
// configuration (Sec. 5).
func MultiTaskConfigs() map[string][]string {
	return map[string][]string{
		"all-ANN":   {nn.EVFlowNet, nn.HidalgoDepth},
		"all-SNN":   {nn.DOTIE, nn.AdaptiveSpikeNet},
		"mixed-SNN": {nn.FusionFlowNet, nn.HALSIE, nn.DOTIE, nn.HidalgoDepth},
	}
}

// multiTaskOrder presents configurations in the paper's order.
func multiTaskOrder() []string { return []string{"all-ANN", "all-SNN", "mixed-SNN"} }

// workloadDensity measures each network's mean event-frame density on
// its own preset so the profile DB matches runtime conditions.
func workloadDensity(cfg Config, names []string) ([]*nn.Network, []float64, error) {
	nets := make([]*nn.Network, len(names))
	dens := make([]float64, len(names))
	for i, name := range names {
		nets[i] = nn.MustByName(name)
		set, err := framesFor(cfg, nets[i])
		if err != nil {
			return nil, nil, err
		}
		dens[i] = set.density
	}
	return nets, dens, nil
}

// buildMapper profiles a workload and constructs the Network Mapper.
func buildMapper(cfg Config, names []string, fullPrec bool) (*nmp.Mapper, []*nn.Network, error) {
	nets, dens, err := workloadDensity(cfg, names)
	if err != nil {
		return nil, nil, err
	}
	platform := XavierPlatform()
	model := perf.NewModel(platform)
	db, err := perf.BuildProfileDB(model, nets, true, dens)
	if err != nil {
		return nil, nil, err
	}
	ncfg := nmpConfig(cfg, cfg.Seed+3)
	ncfg.FullPrecisionOnly = fullPrec
	mp, err := nmp.NewMapper(db, model, ncfg)
	if err != nil {
		return nil, nil, err
	}
	return mp, nets, nil
}

// Fig9 reproduces Figure 9: multi-task latency of NMP against the
// round-robin baselines and the full-precision NMP variant.
func Fig9(cfg Config) (*Result, error) {
	r := &Result{
		ID: "fig9", Title: "Multi-task execution: NMP vs round-robin scheduling",
		Header:   []string{"Config", "NMP(us)", "vs RR-Network", "vs RR-Layer", "NMP-FP slower by"},
		PaperRef: "Fig. 9: NMP 1.43x-1.81x over RR-Network, 1.24x-1.41x over RR-Layer; NMP-FP 1.05x-1.22x slower than NMP",
	}
	for _, name := range multiTaskOrder() {
		names := MultiTaskConfigs()[name]
		mpFP, _, err := buildMapper(cfg, names, true)
		if err != nil {
			return nil, err
		}
		fpRes, err := mpFP.Search()
		if err != nil {
			return nil, err
		}
		mp, nets, err := buildMapper(cfg, names, false)
		if err != nil {
			return nil, err
		}
		// Warm-start the mixed-precision search with the FP-only result:
		// its search space is a superset, so it must never lose.
		mp.AddSeed(fpRes.Assignment)
		res, err := mp.Search()
		if err != nil {
			return nil, err
		}
		platform := XavierPlatform()
		rrn, err := nmp.RRNetwork(nets, platform)
		if err != nil {
			return nil, err
		}
		rrnRes, err := mp.EvaluatePolicy(rrn)
		if err != nil {
			return nil, err
		}
		rrl, err := nmp.RRLayer(nets, platform)
		if err != nil {
			return nil, err
		}
		rrlRes, err := mp.EvaluatePolicy(rrl)
		if err != nil {
			return nil, err
		}
		r.addRow(name,
			fmt.Sprintf("%.0f", res.LatencyUS),
			fmt.Sprintf("%.2fx", rrnRes.LatencyUS/res.LatencyUS),
			fmt.Sprintf("%.2fx", rrlRes.LatencyUS/res.LatencyUS),
			fmt.Sprintf("%.2fx", fpRes.LatencyUS/res.LatencyUS))
	}
	r.Notes = append(r.Notes,
		"all-SNN overshoots the paper band because the modeled DLA cannot run sparse SNN kernels, amplifying RR-Network's placement penalty",
		"for the two-task all-ANN pair RR-Layer ties RR-Network (balanced load); the paper's ordering holds for the larger mixed configuration")
	return r, nil
}

// Fig10a reproduces Figure 10a: evolutionary-search fitness
// convergence on the mixed SNN-ANN configuration.
func Fig10a(cfg Config) (*Result, error) {
	mp, _, err := buildMapper(cfg, MultiTaskConfigs()["mixed-SNN"], false)
	if err != nil {
		return nil, err
	}
	res, err := mp.Search()
	if err != nil {
		return nil, err
	}
	hist := res.FitnessHistory
	r := &Result{
		ID: "fig10a", Title: "NMP evolutionary search convergence (mixed SNN-ANN)",
		Header:   []string{"Metric", "Value"},
		Series:   map[string][]float64{"best_fitness_per_generation": hist},
		PaperRef: "Fig. 10a: fitness decreases monotonically over generations, minimizing latency and accuracy degradation together",
	}
	r.addRow("generations", fmt.Sprintf("%d", len(hist)))
	r.addRow("initial best fitness", fmt.Sprintf("%.0f", hist[0]))
	r.addRow("final best fitness", fmt.Sprintf("%.0f", hist[len(hist)-1]))
	r.addRow("improvement", fmt.Sprintf("%.2fx", hist[0]/hist[len(hist)-1]))
	r.addRow("final latency (us)", fmt.Sprintf("%.0f", res.LatencyUS))
	r.addRow("feasible", fmt.Sprintf("%v", res.Feasible))
	return r, nil
}

// Fig10b reproduces Figure 10b: NMP-searched configuration latency
// compared to generation-matched random search.
func Fig10b(cfg Config) (*Result, error) {
	mp, _, err := buildMapper(cfg, MultiTaskConfigs()["mixed-SNN"], false)
	if err != nil {
		return nil, err
	}
	evo, err := mp.Search()
	if err != nil {
		return nil, err
	}
	rnd, err := mp.RandomSearch()
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID: "fig10b", Title: "NMP evolutionary search vs random search (mixed SNN-ANN)",
		Header:   []string{"Search", "Latency(us)", "Evaluations"},
		PaperRef: "Fig. 10b: Ev-Edge-NMP is 1.42x faster than random search",
	}
	r.addRow("evolutionary", fmt.Sprintf("%.0f", evo.LatencyUS), fmt.Sprintf("%d", evo.Evaluations))
	r.addRow("random", fmt.Sprintf("%.0f", rnd.LatencyUS), fmt.Sprintf("%d", rnd.Evaluations))
	r.addRow("ratio", fmt.Sprintf("%.2fx", rnd.LatencyUS/evo.LatencyUS), "")
	return r, nil
}
