package main

import (
	"fmt"
	"time"

	"evedge"
	"evedge/internal/nmp"
	"evedge/internal/pipeline"
	"evedge/internal/quant"
	"evedge/internal/taskgraph"
)

// paperWorkload is paper_levels: the paper's own evaluation run offline
// on pre-generated streams — Fig. 8 (six Table-1 networks at the four
// cumulative optimization levels) and Fig. 9 (NMP against the
// round-robin baselines on three multi-task mixes). Every result is
// simulated time and repeats exactly.
type paperWorkload struct {
	seed    int64
	nets    []*evedge.Network                     // Table 1
	streams map[evedge.ScenePreset]*evedge.Stream // one per distinct preset
	events  int64                                 // per pass
	// lastReports keeps the most recent pass's reports for the layer
	// probes.
	lastReports map[string][]*evedge.PipelineReport // [network][level]
	trace       *tracer                             // last traced phase
}

// fig9Mix is one concurrent-execution configuration of the paper's
// Sec. 5 (the same three internal/experiments uses).
type fig9Mix struct {
	name string
	nets []string
}

var fig9Mixes = []fig9Mix{
	{"all-ANN", []string{evedge.EVFlowNet, evedge.HidalgoDepth}},
	{"all-SNN", []string{evedge.DOTIE, evedge.AdaptiveSpikeNet}},
	{"mixed-SNN", []string{evedge.FusionFlowNet, evedge.HALSIE, evedge.DOTIE, evedge.HidalgoDepth}},
}

var paperLevels = []evedge.Level{evedge.LevelBaseline, evedge.LevelE2SF, evedge.LevelDSFA, evedge.LevelNMP}

func (w *paperWorkload) lastTrace() *tracer  { return w.trace }
func (w *paperWorkload) deterministic() bool { return true }
func (w *paperWorkload) close()              {}

// quickNMP is the reduced search budget of experiments.QuickConfig.
func quickNMP(seed int64) evedge.MapperConfig {
	c := evedge.DefaultMapperConfig()
	c.Population = 10
	c.Generations = 12
	c.Seed = seed
	return c
}

func (w *paperWorkload) setup(seed int64) error {
	w.seed = seed
	w.nets = w.nets[:0]
	var specs []streamSpec
	seen := map[evedge.ScenePreset]bool{}
	add := func(name string) (*evedge.Network, error) {
		net, err := evedge.LoadNetwork(name)
		if err != nil {
			return nil, err
		}
		if !seen[net.Input.Preset] {
			seen[net.Input.Preset] = true
			specs = append(specs, streamSpec{net.Input.Preset, seed})
		}
		return net, nil
	}
	for _, name := range evedge.Table1Networks() {
		net, err := add(name)
		if err != nil {
			return err
		}
		w.nets = append(w.nets, net)
	}
	for _, mix := range fig9Mixes {
		for _, name := range mix.nets {
			if _, err := add(name); err != nil {
				return err
			}
		}
	}
	streams, err := genStreams(specs)
	if err != nil {
		return err
	}
	w.streams = map[evedge.ScenePreset]*evedge.Stream{}
	for i, sp := range specs {
		w.streams[sp.preset] = streams[i]
	}
	w.events = 0
	for _, net := range w.nets {
		w.events += int64(len(paperLevels)) * int64(w.streams[net.Input.Preset].Len())
	}
	return nil
}

func (w *paperWorkload) pass(tr *tracer, t *tally, opMS *[]float64) passOut {
	tr.nextPass()
	root := tr.start("pass", -1)
	defer tr.finish(root)
	out := passOut{events: w.events, extra: map[string]float64{}}
	op := func(t0 time.Time) {
		if opMS != nil {
			*opMS = append(*opMS, msSince(t0))
		}
	}

	// Fig. 8: every Table-1 network at every level.
	reports := map[string][]*evedge.PipelineReport{}
	density := map[string]float64{}
	var speedups, l3mean []float64
	var accUsed float64
	var l3frames, l3dropped, l3makespan float64
	for _, net := range w.nets {
		reps := make([]*evedge.PipelineReport, len(paperLevels))
		for li, lvl := range paperLevels {
			t0 := time.Now()
			sp := tr.start(fmt.Sprintf("pipeline.run_level%d", li), root)
			rep, err := evedge.RunPipeline(evedge.PipelineConfig{
				Net: net, Level: lvl, NMP: quickNMP(w.seed + 1),
				Scale: streamScale, DurUS: streamDurUS, Seed: w.seed,
				Stream: w.streams[net.Input.Preset],
			})
			tr.finish(sp)
			op(t0)
			if !t.call("RunPipeline "+net.Name, err) {
				return out
			}
			reps[li] = rep
			out.extra[fmt.Sprintf("%s.l%d.mean_us", net.Name, li)] = rep.MeanLatencyUS
			t.check(rep.RawFrames == reps[0].RawFrames,
				"%s level %d: %d raw frames, level 0 had %d", net.Name, li, rep.RawFrames, reps[0].RawFrames)
		}
		reports[net.Name] = reps
		base, full := reps[0], reps[len(reps)-1]
		speedups = append(speedups, base.MeanLatencyUS/full.MeanLatencyUS)
		l3mean = append(l3mean, full.MeanLatencyUS)
		density[net.Name] = full.MeanDensity
		out.frames += int64(len(paperLevels)) * int64(full.RawFrames)
		l3frames += float64(full.RawFrames)
		l3dropped += float64(full.DroppedFrames)
		l3makespan += full.MakespanUS
		if full.P99LatencyUS > out.sim.p99US {
			out.sim.p99US = full.P99LatencyUS
		}
		if used := full.AccuracyDelta / quant.Table2Delta(net.Name); used > accUsed {
			accUsed = used
		}
	}
	// accUsed is reported (quant.acc_budget_used_max), not checked:
	// Mapper.Search returns the best penalised candidate, feasible or
	// not, so at some seeds (61, 78) level 3 spends 1.0004–1.0007 of the
	// Table 2 budget, and a run must not fail on its seed.
	out.sim.meanUS = geomean(l3mean)
	out.sim.framesIn = l3frames
	out.sim.framesDone = l3frames - l3dropped
	if l3makespan > 0 {
		out.sim.framesPerS = l3frames / (l3makespan * 1e-6)
	}
	// One network may lose to all-GPU on one scene (DSFA trades latency
	// for merged work); Fig. 8's claim, and the check, is the geomean.
	su := geomean(speedups)
	t.check(su >= 1, "level-3 geomean speed-up over all-GPU %.4f below 1", su)
	out.extra["sim_speedup_vs_gpu"] = su
	out.extra["quant.acc_budget_used_max"] = accUsed

	// Fig. 9: NMP against the round-robin baselines.
	var vsRR []float64
	for _, mix := range fig9Mixes {
		t0 := time.Now()
		sp := tr.start("nmp.fig9_"+mix.name, root)
		res, rrn, err := w.fig9(mix, density, &out, tr, sp)
		tr.finish(sp)
		op(t0)
		if !t.call("fig9 "+mix.name, err) {
			return out
		}
		out.extra["fig9."+mix.name+".nmp_us"] = res.LatencyUS
		vsRR = append(vsRR, rrn.LatencyUS/res.LatencyUS)
	}
	rr := geomean(vsRR)
	t.check(rr >= 1, "NMP loses to RR-Network: geomean ratio %.4f below 1", rr)
	out.extra["sim_nmp_vs_rr"] = rr
	w.lastReports = reports
	return out
}

// fig9 runs one multi-task configuration the way
// internal/experiments.Fig9 does: profile at the measured input
// densities, search full-precision only, warm-start the mixed-precision
// search with that result, and price the RR-Network baseline on the
// same mapper.
func (w *paperWorkload) fig9(mix fig9Mix, density map[string]float64, out *passOut, tr *tracer, parent int) (res, rrn *nmp.Result, err error) {
	platform := evedge.Xavier()
	nets := make([]*evedge.Network, len(mix.nets))
	dens := make([]float64, len(mix.nets))
	for i, name := range mix.nets {
		if nets[i], err = evedge.LoadNetwork(name); err != nil {
			return nil, nil, err
		}
		d, ok := density[name]
		if !ok {
			// Not a Table-1 network: measure its density here.
			s := w.streams[nets[i].Input.Preset]
			sp := tr.start("e2sf.convert_density", parent)
			frames, _, err := pipeline.ConvertStream(nets[i], s, streamDurUS)
			tr.finish(sp)
			if err != nil {
				return nil, nil, err
			}
			for _, f := range frames {
				d += f.Density()
			}
			d /= float64(len(frames))
			density[name] = d
			out.events += int64(s.Len())
			out.frames += int64(len(frames))
		}
		dens[i] = d
	}
	cfg := quickNMP(w.seed + 3)
	cfg.FullPrecisionOnly = true
	mpFP, err := evedge.NewMapper(platform, nets, dens, cfg)
	if err != nil {
		return nil, nil, err
	}
	fp, err := mpFP.Search()
	if err != nil {
		return nil, nil, err
	}
	cfg.FullPrecisionOnly = false
	mp, err := evedge.NewMapper(platform, nets, dens, cfg)
	if err != nil {
		return nil, nil, err
	}
	mp.AddSeed(fp.Assignment)
	if res, err = mp.Search(); err != nil {
		return nil, nil, err
	}
	for _, policy := range []func([]*evedge.Network, *evedge.Platform) (*taskgraph.Assignment, error){nmp.RRNetwork, nmp.RRLayer} {
		asg, err := policy(nets, platform)
		if err != nil {
			return nil, nil, err
		}
		r, err := mp.EvaluatePolicy(asg)
		if err != nil {
			return nil, nil, err
		}
		if rrn == nil {
			rrn = r
		}
	}
	return res, rrn, nil
}
