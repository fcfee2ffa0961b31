package control_test

import (
	"sort"
	"testing"

	"evedge/internal/control"
	"evedge/internal/dsfa"
	"evedge/internal/hw"
	"evedge/internal/nn"
	"evedge/internal/perf"
	"evedge/internal/pipeline"
	"evedge/internal/sparse"
)

// mkFrame builds a synthetic sparse frame with roughly the requested
// spatial density.
func mkFrame(t0, t1 int64, density float64) *sparse.Frame {
	const h, w = 64, 64
	f := sparse.NewFrame(h, w, t0, t1)
	n := int(density * h * w)
	for i := 0; i < n; i++ {
		f.Set(int32((i*7)%h), int32((i*13)%w), 1, 0)
	}
	return f
}

// shiftScenario builds a stream whose dynamics shift mid-run: a calm
// phase well under the hardware rate, a sustained burst at 4x the
// hardware rate with a density jump (a scene change), then calm again.
func shiftScenario(baseUS float64) []*sparse.Frame {
	var frames []*sparse.Frame
	t := int64(0)
	add := func(n int, spacingUS int64, den float64) {
		for i := 0; i < n; i++ {
			frames = append(frames, mkFrame(t, t+spacingUS, den))
			t += spacingUS
		}
	}
	calmGap := int64(3 * baseUS)
	burstGap := int64(baseUS / 4)
	if burstGap < 1 {
		burstGap = 1
	}
	add(40, calmGap, 0.03)
	add(600, burstGap, 0.12)
	add(40, calmGap, 0.03)
	return frames
}

type simResult struct {
	p99US, meanUS float64
	drops         int
	invocations   int
	retunes       uint64
	mergeRatio    float64
}

// simulate replays the frame stream through the serving layer's step
// in virtual time, minus HTTP and goroutines, so the frozen-vs-adaptive
// comparison is exactly reproducible: each frame arrives once the clock
// reaches its T1 into the Stepper's hold, bounded at 64 frames with
// drop-oldest like a session's ingest queue, and the Stepper releases
// one invocation at a time, priced by the Eq. 3 cost model. When rt is
// non-nil the controller observes telemetry before every release, as
// a session's execute pass does, and its retunes apply mid-stream.
func simulate(t testing.TB, net *nn.Network, frames []*sparse.Frame, anchor dsfa.Config, rt *control.Retuner) simResult {
	t.Helper()
	model := perf.NewModel(hw.Xavier())
	plan, err := pipeline.DefaultPlan(net, hw.Xavier(), true)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pipeline.NewStepper(pipeline.LevelDSFA, anchor)
	if err != nil {
		t.Fatal(err)
	}

	const queueCap = 64
	var (
		queueDrops int
		denSum     float64
		denN       int
		latencies  []float64
		res        simResult
	)
	idx := 0
	arrive := func() {
		f := frames[idx]
		idx++
		denSum += f.Density()
		denN++
		if st.Held() >= queueCap {
			st.Shed() // drop-oldest, like the serving queue
			queueDrops++
		}
		st.Push(f)
	}
	for {
		for idx < len(frames) && float64(frames[idx].T1) <= st.Clock() {
			arrive()
		}
		if rt != nil {
			sample := control.SessionSample{
				StreamUS:      int64(st.Clock()),
				FramesDropped: uint64(queueDrops + st.Stats().DroppedFrames),
				QueueLen:      st.Held(),
				QueueCap:      queueCap,
				AggQueued:     st.Queued(),
				DensitySum:    denSum,
				DensityN:      denN,
			}
			if cfg, ok := rt.Observe(sample); ok {
				if err := st.Retune(cfg); err != nil {
					t.Fatalf("Retune: %v", err)
				}
			}
			res.retunes = rt.Retunes()
		}
		inv := st.Release(idx == len(frames))
		if inv == nil {
			if idx == len(frames) {
				break
			}
			// Idle: the next frame to form arrives, and the step waits
			// for it.
			arrive()
			continue
		}
		dur, _ := pipeline.InvocationCost(model, net, plan, inv)
		end := inv.ReadyUS + dur
		for _, rr := range inv.PerRaw {
			for k := 0; k < rr.N; k++ {
				latencies = append(latencies, end-rr.ReadyUS)
			}
		}
		res.invocations++
		st.Done(end)
	}
	stats := st.Stats()
	res.drops = queueDrops + stats.DroppedFrames
	res.mergeRatio = stats.MergeRatio()
	sort.Float64s(latencies)
	if len(latencies) > 0 {
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		res.meanUS = sum / float64(len(latencies))
		res.p99US = latencies[int(float64(len(latencies))*0.99)]
	}
	return res
}

// baseCost prices one single-frame invocation so the scenario can be
// calibrated to the hardware model instead of magic timings.
func baseCost(t testing.TB, net *nn.Network) float64 {
	t.Helper()
	model := perf.NewModel(hw.Xavier())
	plan, err := pipeline.DefaultPlan(net, hw.Xavier(), true)
	if err != nil {
		t.Fatal(err)
	}
	f := mkFrame(0, 1000, 0.05)
	dur, _ := pipeline.InvocationCost(model, net, plan, &pipeline.Invocation{
		Frames: []*sparse.Frame{f}, Inputs: []float64{f.Density()}, Raw: 1, ReadyUS: 0,
		PerRaw: []pipeline.RawRef{{ReadyUS: 0, N: 1}},
	})
	if dur <= 0 {
		t.Fatal("zero invocation cost")
	}
	return dur
}

// TestAdaptiveBeatsFrozenUnderShift is the acceptance comparison: the
// same mid-run dynamics shift served with the create-time DSFA tuning
// frozen vs. with the online controller retuning. The adaptive run
// must deliver lower p99 latency, or match it while shedding fewer
// frames.
func TestAdaptiveBeatsFrozenUnderShift(t *testing.T) {
	net := nn.MustByName(nn.HALSIE) // segmentation: tightest anchor tuning
	anchor := pipeline.TunedDSFA(net)
	base := baseCost(t, net)
	frames := shiftScenario(base)

	frozen := simulate(t, net, frames, anchor, nil)

	ccfg := control.DefaultDSFAConfig()
	ccfg.DecideEveryUS = int64(base)
	rt := control.NewRetuner(ccfg, anchor)
	adaptive := simulate(t, net, frames, anchor, rt)

	t.Logf("frozen:   p99=%.0fus mean=%.0fus drops=%d invocations=%d merge=%.2f",
		frozen.p99US, frozen.meanUS, frozen.drops, frozen.invocations, frozen.mergeRatio)
	t.Logf("adaptive: p99=%.0fus mean=%.0fus drops=%d invocations=%d merge=%.2f retunes=%d",
		adaptive.p99US, adaptive.meanUS, adaptive.drops, adaptive.invocations, adaptive.mergeRatio, adaptive.retunes)

	if adaptive.retunes == 0 {
		t.Fatal("controller never fired under a 3x overload burst")
	}
	better := adaptive.p99US < frozen.p99US
	equalButCleaner := adaptive.p99US <= frozen.p99US*1.02 && adaptive.drops < frozen.drops
	if !better && !equalButCleaner {
		t.Fatalf("adaptive run is not better: p99 %.0f vs %.0f us, drops %d vs %d",
			adaptive.p99US, frozen.p99US, adaptive.drops, frozen.drops)
	}
}

// TestRetunerHysteresis walks the controller through pressure and calm
// and checks the widen/narrow transitions and their patience gates.
func TestRetunerHysteresis(t *testing.T) {
	anchor := dsfa.DefaultConfig()
	cfg := control.DSFAConfig{DecideEveryUS: 10}
	rt := control.NewRetuner(cfg, anchor)

	mk := func(i int, qlen int, drops uint64) control.SessionSample {
		return control.SessionSample{
			StreamUS: int64(i * 20), FramesDropped: drops,
			QueueLen: qlen, QueueCap: 10,
			// Constant density: a static scene, so widening is eager
			// (patience 1) and narrowing needs full patience.
			DensitySum: float64(i), DensityN: i,
		}
	}
	// First sample only primes the window.
	if _, ok := rt.Observe(mk(1, 9, 0)); ok {
		t.Fatal("decision on the priming sample")
	}
	// Static scene + pressure: widens on the next decision.
	got, ok := rt.Observe(mk(2, 9, 0))
	if !ok || rt.Level() != 1 {
		t.Fatalf("pressured static scene did not widen: ok=%v level=%d", ok, rt.Level())
	}
	if got.MBSize != anchor.MBSize*2 || got.MtThUS != anchor.MtThUS*2 {
		t.Fatalf("widened config not doubled: %+v", got)
	}
	// Calm now: narrowing needs patience 2: two consecutive calm decisions.
	if _, ok := rt.Observe(mk(3, 0, 0)); ok {
		t.Fatal("narrowed after one calm decision (patience violated)")
	}
	got, ok = rt.Observe(mk(4, 0, 0))
	if !ok || rt.Level() != 0 {
		t.Fatalf("did not narrow back to anchor: ok=%v level=%d", ok, rt.Level())
	}
	if got != anchor {
		t.Fatalf("narrowed config != anchor: %+v", got)
	}
	if rt.Retunes() != 2 {
		t.Fatalf("retunes = %d, want 2", rt.Retunes())
	}
}

// TestRetunerWidenedConfigAlwaysValid drives each per-task anchor to
// the maximum widening level and requires every derived config to
// validate — the controller must never hand the aggregator a rejected
// tuning.
func TestRetunerWidenedConfigAlwaysValid(t *testing.T) {
	const maxWiden = 3 // the controller's cap: thresholds scale by up to 8x
	for _, name := range nn.AllNames() {
		net := nn.MustByName(name)
		anchor := pipeline.TunedDSFA(net)
		cfg := control.DefaultDSFAConfig()
		rt := control.NewRetuner(cfg, anchor)
		check := func() {
			derived := rt.Config()
			if err := derived.Validate(); err != nil {
				t.Fatalf("%s widen=%d: %v", name, rt.Level(), err)
			}
			if derived.MBSize > derived.EBufSize {
				t.Fatalf("%s widen=%d: MBSize %d > EBufSize %d", name, rt.Level(), derived.MBSize, derived.EBufSize)
			}
		}
		check()
		var ts int64
		var drops uint64
		rt.Observe(control.SessionSample{QueueCap: 10}) // prime
		for step := 0; rt.Level() < maxWiden && step < 100; step++ {
			ts += cfg.DecideEveryUS + 1
			drops += 5
			if _, ok := rt.Observe(control.SessionSample{
				StreamUS: ts, QueueLen: 10, QueueCap: 10, FramesDropped: drops,
			}); ok {
				check()
			}
		}
		if rt.Level() != maxWiden {
			t.Fatalf("%s: sustained pressure only reached widen=%d of %d", name, rt.Level(), maxWiden)
		}
		for step := 0; step < 10; step++ {
			ts += cfg.DecideEveryUS + 1
			drops += 5
			rt.Observe(control.SessionSample{StreamUS: ts, QueueLen: 10, QueueCap: 10, FramesDropped: drops})
		}
		if rt.Level() != maxWiden {
			t.Fatalf("%s: sustained pressure widened past the cap to %d", name, rt.Level())
		}
	}
}

// TestRemapPlannerGating covers the imbalance trigger, the in-flight
// claim, the cooldown, and the accept threshold.
func TestRemapPlannerGating(t *testing.T) {
	cfg := control.RemapConfig{CooldownUS: 1000, ImbalanceTh: 0.3}
	p := control.NewRemapPlanner(cfg)
	balanced := []control.DeviceSignals{{Utilization: 0.5}, {Utilization: 0.45}}
	skewed := []control.DeviceSignals{{Utilization: 0.9}, {Utilization: 0.1}}

	if p.ShouldRemap(0, balanced) {
		t.Fatal("balanced load triggered a remap")
	}
	if !p.ShouldRemap(0, skewed) {
		t.Fatal("skewed load did not trigger a remap")
	}
	// The claim is exclusive until released.
	if p.ShouldRemap(0, skewed) {
		t.Fatal("second caller won the in-flight claim")
	}
	if !p.Accept(100, 95) || p.Accept(100, 96) || p.Accept(0, 0) {
		t.Fatal("Accept threshold is not a 5 % gain")
	}
	p.Committed(0, 0.2)
	if p.ShouldRemap(500, skewed) {
		t.Fatal("remap allowed inside the cooldown")
	}
	if rem := p.CooldownRemainingUS(500); rem != 500 {
		t.Fatalf("cooldown remaining = %v, want 500", rem)
	}
	if !p.ShouldRemap(1500, skewed) {
		t.Fatal("remap not allowed after the cooldown")
	}
	p.Done(1500)
	searches, committed, gain := p.Stats()
	if searches != 2 || committed != 1 || gain != 0.2 {
		t.Fatalf("stats = %d searches, %d committed, gain %v", searches, committed, gain)
	}
}

// TestShouldRemapQueueTrigger pins the third remap trigger: a live
// scheduler queue-depth spread past QueueTh justifies a search on its
// own, while QueueTh = 0 (the default) leaves the trigger disabled.
func TestShouldRemapQueueTrigger(t *testing.T) {
	calm := []control.DeviceSignals{{Queued: 5}, {Queued: 2}}
	hot := []control.DeviceSignals{{Queued: 9}, {Queued: 2}}
	if got := control.QueuedSpread(hot); got != 7 {
		t.Fatalf("control.QueuedSpread = %d, want 7", got)
	}

	// Enabled: spread >= QueueTh triggers with zero utilization
	// imbalance and zero backlog.
	p := control.NewRemapPlanner(control.RemapConfig{ImbalanceTh: 0.9, CooldownUS: 1, QueueTh: 5})
	if p.ShouldRemap(0, calm) {
		t.Fatal("spread 3 < QueueTh 5 triggered a remap")
	}
	if !p.ShouldRemap(10, hot) {
		t.Fatal("spread 7 >= QueueTh 5 did not trigger a remap")
	}
	p.Done(10)

	// Disabled (QueueTh 0): the same spread must not trigger.
	q := control.NewRemapPlanner(control.RemapConfig{ImbalanceTh: 0.9, CooldownUS: 1})
	if q.ShouldRemap(0, hot) {
		t.Fatal("QueueTh 0 (disabled) still triggered on queue spread")
	}
}
