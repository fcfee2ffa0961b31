package main

import (
	"time"

	"evedge"
	"evedge/internal/dsfa"
	"evedge/internal/e2sf"
	"evedge/internal/events"
	"evedge/internal/hw"
	"evedge/internal/mem"
	"evedge/internal/perf"
	"evedge/internal/pipeline"
	"evedge/internal/sched"
	"evedge/internal/sparse"
)

// countRuns cuts one session's events into the runs the server's
// by-count ingest converter frames: the count is calibrated from the
// first chunks that span a framing period, then every `count` events
// make a frame and the tail is flushed at close.
func countRuns(chunks []*evedge.Stream, periodUS int64) (all *events.Stream, count int) {
	all = events.NewStream(chunks[0].Width, chunks[0].Height)
	for _, c := range chunks {
		all.Events = append(all.Events, c.Events...)
		if count == 0 && all.Len() >= 2 && all.Duration() >= periodUS {
			count = int(float64(all.Len()) / float64(all.Duration()) * float64(periodUS))
			if count < 1 {
				count = 1
			}
		}
	}
	if count == 0 {
		count = max(all.Len(), 1)
	}
	return all, count
}

// convertByCount replays countRuns through the fused kernel exactly as
// the session converter calls it: one ConvertByCountAppend per run over
// the run's own span. emit sees each run's frames before they are
// reused.
func convertByCount(fz *e2sf.Fused, all *events.Stream, count int, emit func([]*sparse.Frame)) error {
	var run events.Stream
	run.Width, run.Height = all.Width, all.Height
	var out []*sparse.Frame
	for start := 0; start < all.Len(); start += count {
		end := min(start+count, all.Len())
		run.Events = all.Events[start:end]
		var err error
		out, _, err = fz.ConvertByCountAppend(out[:0], &run, run.TStart(), run.TEnd()+1, run.Len())
		if err != nil {
			return err
		}
		emit(out)
	}
	return nil
}

// layers replays serve_pump_batch's recorded chunks through the layers
// under the serving core: fused by-count E2SF, the DSFA aggregator, the
// pipeline stepper and cost model, the engine and the scheduler.
func (w *pumpWorkload) layers(budgetS float64, t *tally) map[string]float64 {
	m := map[string]float64{}
	slice := seconds(budgetS / 10)
	net, err := evedge.LoadNetwork(pumpNet)
	if !t.call("LoadNetwork", err) {
		return m
	}

	// The workload's own calls, traced.
	base := untracedPassWall(w, 3, t)
	tr, walls, outs := tracedPasses(w, 2*slice, t)
	st := tr.summarize()
	n := len(walls)
	passS := median(walls)
	chunksPerPass := 0
	for _, cs := range w.chunks {
		for _, c := range cs {
			if c.Len() > 0 {
				chunksPerPass++
			}
		}
	}
	m["serve.ingest_us_per_chunk"] = spanMS(st, "serve.ingest", n) * 1e3 / float64(chunksPerPass)
	m["serve.pump_us_per_round"] = spanMS(st, "serve.pump", n) * 1e3 / float64(len(w.chunks[0]))
	m["serve.create_ms"] = spanMS(st, "serve.create", n)
	m["serve.close_ms"] = spanMS(st, "serve.close", n)
	m["bench.span_overhead_pct"] = 100 * (passS - base) / base
	m["bench.pump_span_coverage_pct"] = 100 * tr.coverage("pass")
	w.trace = tr

	last := outs[n-1]
	m["pump.sim_frames_per_s"] = last.sim.framesPerS
	m["pump.sim_frame_mean_ms"] = last.sim.meanUS / 1e3
	m["pump.sim_frame_p99_ms"] = last.sim.p99US / 1e3
	m["pump.shed_ratio"] = 1 - last.sim.delivered()
	m["hw.makespan_us"] = w.last.makespanUS
	m["sched.occupancy"] = w.last.sched.Occupancy()
	m["sched.dispatches"] = float64(w.last.sched.Dispatches)
	m["sched.submitted"] = float64(w.last.sched.Submitted)
	m["dsfa.batches_out"] = float64(w.last.invocations)
	if w.last.invocations > 0 {
		m["dsfa.merge_ratio"] = last.sim.framesDone / float64(w.last.invocations)
	}
	m["dsfa.dropped_frames"] = float64(w.last.dsfaDropped)
	if w.last.poolGets > 0 {
		m["mem.pool_miss_ratio"] = float64(w.last.poolMisses) / float64(w.last.poolGets)
	}

	// E2SF, fused by-count: once unpooled to record the frames, then
	// timed with a frame pool the way a session's arena serves it.
	cfg := e2sf.Config{Width: w.chunks[0][0].Width, Height: w.chunks[0][0].Height, NumBins: net.Input.NumBins}
	type session struct {
		all   *events.Stream
		count int
	}
	sessions := make([]session, len(w.chunks))
	frames := make([][]*sparse.Frame, len(w.chunks))
	var eventsIn, framesOut int
	var denSum float64
	for i, cs := range w.chunks {
		all, count := countRuns(cs, net.Input.FramePeriodUS)
		sessions[i] = session{all, count}
		fz, err := e2sf.NewFused(cfg, nil)
		if !t.call("NewFused", err) {
			return m
		}
		frStart := all.TStart()
		err = convertByCount(fz, all, count, func(out []*sparse.Frame) {
			for _, f := range out {
				f.T0, frStart = frStart, f.T1
				frames[i] = append(frames[i], f)
				denSum += f.Density()
			}
		})
		t.call("ConvertByCountAppend", err)
		eventsIn += all.Len()
		framesOut += len(frames[i])
	}
	m["e2sf.events_in"] = float64(eventsIn)
	m["e2sf.frames_out"] = float64(framesOut)
	if framesOut > 0 {
		m["e2sf.mean_density"] = denSum / float64(framesOut)
	}
	pool := mem.NewFramePool()
	fused := make([]*e2sf.Fused, len(sessions))
	for i := range fused {
		if fused[i], err = e2sf.NewFused(cfg, pool); !t.call("NewFused", err) {
			return m
		}
	}
	e2sfNS := timeCalls(slice, 3, func() {
		for i, s := range sessions {
			_ = convertByCount(fused[i], s.all, s.count, func(out []*sparse.Frame) {
				for _, f := range out {
					pool.Put(f)
				}
			})
		}
	})
	m["e2sf.fused_count_ns_per_event"] = e2sfNS / float64(eventsIn)

	// DSFA: push every frame, dispatch what is ready at the frame's end
	// time, flush at the end — the stepper's use of the aggregator.
	tuned := pipeline.TunedDSFA(net)
	dsfaNS := timeCalls(slice, 3, func() {
		for _, fs := range frames {
			agg, err := dsfa.New(tuned)
			if err != nil {
				return
			}
			for _, f := range fs {
				agg.Push(f)
				agg.DispatchReady(f.T1)
			}
			agg.Dispatch()
		}
	})
	m["dsfa.push_ns_per_frame"] = dsfaNS / float64(framesOut)

	// Pipeline stepper and invocation pricing.
	var invs []*pipeline.Invocation
	stepNS := timeCalls(slice, 3, func() {
		invs = invs[:0]
		for _, fs := range frames {
			sp, err := pipeline.NewStepper(pipeline.LevelDSFA, tuned)
			if err != nil {
				return
			}
			for _, f := range fs {
				sp.Push(f)
				if inv := sp.Next(float64(f.T1)); inv != nil {
					invs = append(invs, inv)
				}
			}
			if inv := sp.Flush(); inv != nil {
				invs = append(invs, inv)
			}
		}
	})
	m["pipeline.stepper_ns_per_frame"] = stepNS / float64(framesOut)
	platform := evedge.Xavier()
	model := perf.NewModel(platform)
	plan, err := pipeline.DefaultPlan(net, platform, true)
	if t.call("DefaultPlan", err) && len(invs) > 0 {
		costNS := timeCalls(slice, 3, func() {
			for _, inv := range invs {
				pipeline.InvocationCost(model, net, plan, inv)
			}
		})
		m["pipeline.cost_ns_per_invocation"] = costNS / float64(len(invs))
	}

	// Engine and scheduler on their own.
	const ops = 4096
	gpu := platform.GPUDevice()
	m["hw.submit_ns_per_op"] = timeCalls(slice/2, 3, func() {
		eng := hw.NewEngine(platform, false)
		for i := 0; i < ops; i++ {
			eng.Submit(gpu, float64(i), 10, "")
		}
	}) / ops
	reqs := make([]sched.Request, ops)
	for i := range reqs {
		reqs[i] = sched.Request{Session: "s", Key: sched.Key{Device: gpu.ID, Net: pumpNet}, Units: 1}
	}
	m["sched.submit_pump_ns_per_req"] = timeCalls(slice/2, 3, func() {
		sc, err := sched.New(sched.Config{Virtual: true, MaxBatch: 8,
			Dispatch: func(batch []*sched.Request) float64 { return 0 }})
		if err != nil {
			return
		}
		for i := range reqs {
			sc.Submit(&reqs[i])
		}
		sc.Pump()
		sc.Close()
	}) / ops

	// obs: the serving core with its own frame-lifecycle tracer on and
	// off, paired and alternating so host drift hits both sides.
	var deltas []float64
	var spans uint64
	for i := 0; i < 9; i++ {
		var on, off time.Duration
		for _, traced := range []bool{i%2 == 0, i%2 != 0} {
			t0 := time.Now()
			w.passCfg(pumpConfig(traced), nil, t, nil)
			if traced {
				on = time.Since(t0)
				spans = w.last.obsSpans
			} else {
				off = time.Since(t0)
			}
		}
		deltas = append(deltas, 100*(float64(on)-float64(off))/float64(off))
	}
	m["obs.trace_overhead_pct"] = median(deltas)
	m["obs.spans_recorded"] = float64(spans)

	// Heap traffic of one pass.
	allocs, bytes := memDelta(func() { w.pass(nil, t, nil) })
	if last.frames > 0 {
		m["mem.pump_allocs_per_frame"] = allocs / float64(last.frames)
		m["mem.pump_bytes_per_frame"] = bytes / float64(last.frames)
	}

	// Shares of a pass, by replay.
	e2sfS, dsfaS := e2sfNS/1e9, dsfaNS/1e9
	m["share.pump.e2sf_pct"] = sharePct(e2sfS, base)
	m["share.pump.dsfa_pct"] = sharePct(dsfaS, base)
	m["share.pump.nmp_pct"] = 0
	m["share.pump.events_pct"] = 0
	m["share.pump.nn_pct"] = 0
	m["bench.rounds_run"] = float64(n)
	return m
}
