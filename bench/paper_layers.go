package main

import (
	"fmt"
	"time"

	"evedge"
	"evedge/internal/dsfa"
	"evedge/internal/nmp"
	"evedge/internal/nn"
	"evedge/internal/perf"
	"evedge/internal/pipeline"
	"evedge/internal/sparse"
	"evedge/internal/taskgraph"
)

// layers replays paper_levels' streams through the layers the offline
// reproduction leans on: the unfused E2SF converter, the DSFA
// aggregator, the profile table, the NMP search and the task graph.
func (w *paperWorkload) layers(budgetS float64, t *tally) map[string]float64 {
	m := map[string]float64{}
	slice := seconds(budgetS / 8)

	tr, walls, outs := tracedPasses(w, slice, t)
	// ~30 spans per 0.7 s pass: the traced passes' own median is the
	// steadier base for the shares.
	base := median(walls)
	st := tr.summarize()
	n := len(walls)
	w.trace = tr
	for li := range paperLevels {
		m[fmt.Sprintf("pipeline.run_ms_level%d", li)] = spanMS(st, fmt.Sprintf("pipeline.run_level%d", li), n)
	}
	// Fig. 9's self time is search, profile and task graph; its child
	// span is the one ConvertStream that measures EVFlowNet's density.
	var fig9MS float64
	for _, mix := range fig9Mixes {
		if s := st["nmp.fig9_"+mix.name]; s != nil {
			fig9MS += float64(s.self) / float64(time.Millisecond) / float64(n)
		}
	}
	densityMS := spanMS(st, "e2sf.convert_density", n)
	m["bench.paper_span_coverage_pct"] = 100 * tr.coverage("pass")
	last := outs[n-1]
	m["paper.sim_frame_mean_ms"] = last.sim.meanUS / 1e3
	m["paper.sim_speedup_vs_gpu"] = last.extra["sim_speedup_vs_gpu"]
	m["paper.sim_nmp_vs_rr"] = last.extra["sim_nmp_vs_rr"]
	m["quant.acc_budget_used_max"] = last.extra["quant.acc_budget_used_max"]

	// scene: the generator that feeds every workload's set-up.
	const sceneUS = 200_000
	t0 := time.Now()
	_, err := evedge.GenerateSequence(w.nets[0].Input.Preset, streamScale, w.seed, sceneUS)
	t.call("GenerateSequence", err)
	m["scene.gen_s_per_stream_s"] = time.Since(t0).Seconds() / (sceneUS * 1e-6)
	var generated int
	for _, s := range w.streams {
		generated += s.Len()
	}
	m["scene.events_generated"] = float64(generated)

	// e2sf, unfused: pipeline.ConvertStream per Table-1 network.
	frames := make([][]*sparse.Frame, len(w.nets))
	var convEvents int
	convNS := timeCalls(slice, 3, func() {
		for i, net := range w.nets {
			fs, _, err := pipeline.ConvertStream(net, w.streams[net.Input.Preset], streamDurUS)
			if err == nil {
				frames[i] = fs
			}
		}
	})
	for i, net := range w.nets {
		t.check(len(frames[i]) > 0, "ConvertStream %s made no frames", net.Name)
		convEvents += w.streams[net.Input.Preset].Len()
	}
	m["e2sf.unfused_ns_per_event"] = convNS / float64(convEvents)

	// dsfa: what one DSFA-level pipeline run asks of the aggregator —
	// the merge-ratio dry run, then the executor's push/dispatch loop.
	dsfaNS := timeCalls(slice, 2, func() {
		for i, net := range w.nets {
			for _, ready := range []bool{false, true} {
				agg, err := dsfa.New(pipeline.TunedDSFA(net))
				if err != nil {
					return
				}
				for _, f := range frames[i] {
					agg.Push(f)
					if ready {
						agg.DispatchReady(f.T1)
					}
				}
				agg.Dispatch()
			}
		}
	})

	// perf, nmp, taskgraph on the mixed SNN-ANN configuration at the
	// densities the pass measured.
	mix := fig9Mixes[len(fig9Mixes)-1]
	nets := make([]*nn.Network, len(mix.nets))
	dens := make([]float64, len(mix.nets))
	for i, name := range mix.nets {
		if nets[i], err = evedge.LoadNetwork(name); !t.call("LoadNetwork", err) {
			return m
		}
		if reps := w.lastReports[name]; len(reps) > 0 {
			dens[i] = reps[len(reps)-1].MeanDensity
		}
	}
	platform := evedge.Xavier()
	model := perf.NewModel(platform)
	var db *perf.ProfileDB
	m["perf.profiledb_build_ms"] = timeCalls(slice/2, 3, func() {
		db, err = perf.BuildProfileDB(model, nets, true, dens)
	}) / 1e6
	if !t.call("BuildProfileDB", err) {
		return m
	}
	m["perf.profiledb_rows"] = float64(db.Len())
	layer, gpu := nets[0].Layers[0], platform.GPUDevice()
	const calls = 4096
	m["perf.layer_time_ns_per_call"] = timeCalls(slice/4, 3, func() {
		for i := 0; i < calls; i++ {
			_, _ = model.LayerTimeUS(layer, gpu, nn.FP16, perf.ExecOpts{Sparse: true, InputDensity: dens[0]})
		}
	}) / calls

	var res *nmp.Result
	m["nmp.search_ms"] = timeCalls(slice, 2, func() {
		var mp *nmp.Mapper
		if mp, err = nmp.NewMapper(db, model, quickNMP(w.seed+3)); err == nil {
			res, err = mp.Search()
		}
	}) / 1e6
	if !t.call("nmp.Search", err) {
		return m
	}
	m["nmp.evaluations"] = float64(res.Evaluations)
	m["nmp.best_latency_us"] = res.LatencyUS
	m["nmp.feasible"] = 0
	if res.Feasible {
		m["nmp.feasible"] = 1
	}
	m["nmp.searchfrom_ms"] = timeCalls(slice/2, 2, func() {
		var mp *nmp.Mapper
		if mp, err = nmp.NewMapper(db, model, quickNMP(w.seed+3)); err == nil {
			_, err = mp.SearchFrom(res.Assignment, 4)
		}
	}) / 1e6
	t.call("nmp.SearchFrom", err)

	var g *taskgraph.Graph
	m["taskgraph.build_run_us"] = timeCalls(slice/4, 3, func() {
		if g, err = taskgraph.Build(db, model, res.Assignment); err == nil {
			_, err = g.Run(platform)
		}
	}) / 1e3
	if t.call("taskgraph.Build+Run", err) {
		m["taskgraph.comm_nodes"] = float64(g.CommNodeCount())
	}

	// pipeline.RunMultiTask streams the four networks under the NMP
	// assignment.
	streams := make([]*evedge.Stream, len(nets))
	for i, net := range nets {
		streams[i] = w.streams[net.Input.Preset]
	}
	var mt *evedge.MultiTaskReport
	m["pipeline.multitask_ms"] = timeCalls(slice/2, 1, func() {
		mt, err = evedge.RunMultiTask(evedge.MultiTaskConfig{
			Nets: nets, Platform: platform, Assignment: res.Assignment,
			Scale: streamScale, DurUS: streamDurUS, Seed: w.seed, Streams: streams,
		})
	}) / 1e6
	if t.call("RunMultiTask", err) {
		m["pipeline.multitask_max_mean_latency_us"] = mt.MaxMeanLatencyUS
	}

	// Shares: every RunPipeline converts its stream (four levels per
	// network, plus Fig. 9's density measurement), the two DSFA levels
	// run the aggregator, and the NMP level's extra time over the DSFA
	// level plus Fig. 9's self time is the search.
	m["share.paper.e2sf_pct"] = sharePct(float64(len(paperLevels))*convNS/1e9+densityMS/1e3, base)
	m["share.paper.dsfa_pct"] = sharePct(2*dsfaNS/1e9, base)
	nmpMS := m["pipeline.run_ms_level3"] - m["pipeline.run_ms_level2"] + fig9MS
	m["share.paper.nmp_pct"] = sharePct(nmpMS/1e3, base)
	m["share.paper.events_pct"] = 0
	m["share.paper.nn_pct"] = 0
	m["bench.rounds_run"] = float64(n)
	return m
}
