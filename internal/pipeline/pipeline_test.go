package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"evedge/internal/dsfa"
	"evedge/internal/events"
	"evedge/internal/mem"
	"evedge/internal/nmp"
	"evedge/internal/nn"
	"evedge/internal/quant"
	"evedge/internal/scene"
	"evedge/internal/sparse"
	"evedge/internal/taskgraph"
)

// quickRun executes a short Half-scale run with a small search budget.
func quickRun(t *testing.T, name string, lvl Level) *Report {
	t.Helper()
	ncfg := nmp.DefaultConfig()
	ncfg.Population = 10
	ncfg.Generations = 10
	ncfg.Seed = 3
	rep, err := Run(Config{
		Net:   nn.MustByName(name),
		Level: lvl,
		NMP:   ncfg,
		Scale: scene.Half,
		DurUS: 800_000,
		Seed:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStepperRelease walks a level-1 stepper through its three rules:
// a held frame leaves at its own T1, one invocation is in flight, and
// an invocation is ready no earlier than the clock that released it.
// Left names exactly the frames each Release took out of the hold. A
// stepper whose hold never empties compacts it in place, so the
// Push/Release/Done cycle allocates nothing once warm.
func TestStepperRelease(t *testing.T) {
	st, err := NewStepper(LevelE2SF, dsfa.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := []*sparse.Frame{{H: 1, W: 1, T1: 100}, {H: 1, W: 1, T1: 150}, {H: 1, W: 1, T1: 400}}
	for _, fr := range f {
		st.Push(fr)
	}
	step := func(want *sparse.Frame, ready, end float64) {
		t.Helper()
		inv := st.Release(false)
		if inv == nil || inv.Frames[0] != want || inv.ReadyUS != ready || !st.InFlight() {
			t.Fatalf("Release at clock %v: %+v, want frame T1 %d ready at %v", st.Clock(), inv, want.T1, ready)
		}
		if left := st.Left(); len(left) != 1 || left[0] != want {
			t.Fatalf("Left after releasing T1 %d: %v", want.T1, left)
		}
		if again := st.Release(true); again != nil || len(st.Left()) != 0 {
			t.Fatalf("Release with an invocation in flight: %+v, left %v", again, st.Left())
		}
		st.Done(end)
	}
	step(f[0], 100, 300) // idle: the clock moves to the first T1
	step(f[1], 300, 350) // formed while busy: ready at the release clock
	step(f[2], 400, 500) // idle again: the clock moves to T1 400
	if inv := st.Release(true); inv != nil || st.Pending() != 0 || st.Clock() != 500 {
		t.Fatalf("drained stepper: %+v, %d pending, clock %v", inv, st.Pending(), st.Clock())
	}

	ring := make([]*sparse.Frame, 8)
	for i := range ring {
		ring[i] = &sparse.Frame{H: 1, W: 1}
	}
	t1 := int64(1000)
	push := func() {
		fr := ring[t1%int64(len(ring))]
		fr.T1 = t1
		t1++
		st.Push(fr)
	}
	for range 4 {
		push()
	}
	// Four frames stay held through every cycle: the hold never empties.
	cycle := func() {
		push()
		inv := st.Release(false)
		st.Done(inv.ReadyUS)
		st.invPool.Put(inv)
	}
	for range 64 {
		cycle()
	}
	if a := testing.AllocsPerRun(1, func() {
		for range 4096 {
			cycle()
		}
	}); a != 0 || st.Pending() != 4 {
		t.Fatalf("4 096 Push/Release/Done cycles on a hold of %d: %v allocs, want 0", st.Pending(), a)
	}
}

// TestPlanSlotCarriesExecutionState: Swap must carry FramingOps
// (execution state) into the new plan, and MapsLike must ignore it so
// no-op remaps aren't counted; it compares the whole row, device and
// precision, and refuses a task the assignment does not have.
func TestPlanSlotCarriesExecutionState(t *testing.T) {
	a := &ExecPlan{Device: []int{0, 1}, Prec: []nn.Precision{nn.FP16, nn.FP16}}
	s := NewPlanSlot(a)
	s.SetFramingOps(77)
	b := &ExecPlan{Device: []int{1, 0}, Prec: []nn.Precision{nn.FP32, nn.FP16}}
	s.Swap(b)
	if got := s.Load(); got.FramingOps != 77 {
		t.Fatalf("swap dropped execution state: framing=%d", got.FramingOps)
	}
	x := &ExecPlan{Device: []int{0}, Prec: []nn.Precision{nn.FP16}, FramingOps: 1, Sparse: true}
	asg := &taskgraph.Assignment{
		Device: [][]int{{1}, {0}, {0}, {0, 0}},
		Prec:   [][]nn.Precision{{nn.FP16}, {nn.FP16}, {nn.FP32}, {nn.FP16, nn.FP16}},
	}
	for task, want := range []bool{false, true, false, false} {
		if got := x.MapsLike(asg, task); got != want {
			t.Errorf("MapsLike(row %d) = %v, want %v", task, got, want)
		}
	}
	if x.MapsLike(asg, 4) || x.MapsLike(asg, -1) || x.MapsLike(nil, 0) {
		t.Error("MapsLike matched a row the assignment does not have")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil network accepted")
	}
	// A level outside 0..3 would run dense without the baseline's
	// framing cost (below) or as NMP (above); neither may pass silently.
	for _, lvl := range []Level{-1, 4} {
		_, err := Run(Config{Net: nn.MustByName(nn.DOTIE), Level: lvl, Scale: scene.Half, DurUS: 100_000})
		if err == nil || !strings.Contains(err.Error(), "valid: 0|all-gpu") {
			t.Fatalf("Level(%d): err %v, want one naming the valid levels", int(lvl), err)
		}
	}
}

func TestLevelStrings(t *testing.T) {
	for _, l := range []Level{LevelBaseline, LevelE2SF, LevelDSFA, LevelNMP} {
		if l.String() == "" {
			t.Fatal("empty level string")
		}
	}
	if Level(9).String() == "" {
		t.Fatal("unknown level string empty")
	}
}

func TestBaselineReportSanity(t *testing.T) {
	rep := quickRun(t, nn.SpikeFlowNet, LevelBaseline)
	if rep.RawFrames == 0 || rep.Invocations != rep.RawFrames {
		t.Fatalf("baseline must run one inference per frame: %d/%d", rep.Invocations, rep.RawFrames)
	}
	if rep.MeanLatencyUS <= 0 || rep.EnergyJ <= 0 || rep.ThroughputFPS <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if rep.MergeRatio != 1 {
		t.Fatalf("baseline merge ratio %f", rep.MergeRatio)
	}
	if rep.AccuracyDelta != 0 {
		t.Fatalf("baseline accuracy delta %f", rep.AccuracyDelta)
	}
	if rep.Accuracy != nn.MustByName(nn.SpikeFlowNet).BaselineAccuracy {
		t.Fatal("baseline accuracy must equal the network baseline")
	}
	if rep.Assignment != nil {
		t.Fatal("baseline must not carry an NMP result")
	}
	if rep.P99LatencyUS < rep.MeanLatencyUS {
		t.Fatal("p99 below mean")
	}
}

func TestE2SFNotSlowerThanBaseline(t *testing.T) {
	base := quickRun(t, nn.SpikeFlowNet, LevelBaseline)
	e2 := quickRun(t, nn.SpikeFlowNet, LevelE2SF)
	if e2.MeanLatencyUS > base.MeanLatencyUS*1.02 {
		t.Fatalf("E2SF (%f) slower than baseline (%f)", e2.MeanLatencyUS, base.MeanLatencyUS)
	}
}

func TestDSFAMergesForFlowAndConservesAccounting(t *testing.T) {
	rep := quickRun(t, nn.SpikeFlowNet, LevelDSFA)
	if rep.MergeRatio < 1 {
		t.Fatalf("merge ratio %f below 1", rep.MergeRatio)
	}
	// Merged execution means fewer invocations than raw frames.
	if rep.MergeRatio > 1.05 && rep.Invocations >= rep.RawFrames {
		t.Fatalf("merging reported (%f) but invocations=%d rawFrames=%d",
			rep.MergeRatio, rep.Invocations, rep.RawFrames)
	}
	// Merging costs accuracy per the quant model.
	if rep.MergeRatio > 1.1 && rep.AccuracyDelta <= 0 {
		t.Fatal("merging must cost accuracy")
	}
}

func TestSegmentationMergingStaysConservative(t *testing.T) {
	rep := quickRun(t, nn.HALSIE, LevelDSFA)
	if rep.MergeRatio > 2.1 {
		t.Fatalf("HALSIE merge ratio %f violates pixel-accuracy tuning", rep.MergeRatio)
	}
}

func TestNMPLevelRespectsAccuracyBudget(t *testing.T) {
	rep := quickRun(t, nn.HidalgoDepth, LevelNMP)
	if rep.Assignment == nil {
		t.Fatal("NMP level must carry the search result")
	}
	budget := quant.Table2Delta(nn.HidalgoDepth)
	if rep.AccuracyDelta > budget*1.05 {
		t.Fatalf("accuracy delta %f exceeds Table 2 budget %f", rep.AccuracyDelta, budget)
	}
	// Error metric: Ev-Edge accuracy must not be better than baseline.
	if rep.Accuracy < nn.MustByName(nn.HidalgoDepth).BaselineAccuracy {
		t.Fatal("quantized accuracy cannot beat the baseline")
	}
}

// ownershipConfigs returns one run per level for SpikeFlowNet (cAdd),
// DOTIE (cBatch) and HALSIE (segmentation tuning), each on a stream
// generated once.
func ownershipConfigs(t *testing.T) []Config {
	t.Helper()
	const dur = 400_000
	ncfg := nmp.DefaultConfig()
	ncfg.Population = 8
	ncfg.Generations = 6
	ncfg.Seed = 3
	var cfgs []Config
	for _, name := range []string{nn.SpikeFlowNet, nn.DOTIE, nn.HALSIE} {
		net := nn.MustByName(name)
		seq, err := scene.NewSequence(net.Input.Preset, scene.Half, 5)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := seq.Generate(dur)
		if err != nil {
			t.Fatal(err)
		}
		for _, lvl := range []Level{LevelBaseline, LevelE2SF, LevelDSFA, LevelNMP} {
			cfgs = append(cfgs, Config{Net: net, Level: lvl, NMP: ncfg, Scale: scene.Half, DurUS: dur, Seed: 5, Stream: stream})
		}
	}
	return cfgs
}

// TestRunDeterminism: a run on fresh pools (cold), a repeated Run
// (warm: it reuses the frames an earlier run returned) and four
// concurrent Runs sharing one input stream all report the same thing,
// field for field, at every level.
func TestRunDeterminism(t *testing.T) {
	for _, cfg := range ownershipConfigs(t) {
		cold, err := run(cfg, mem.NewFramePool(), NewInvocationPool())
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]*Report, 6)
		errs := make([]error, len(reps))
		reps[0], errs[0] = Run(cfg)
		reps[1], errs[1] = Run(cfg)
		var wg sync.WaitGroup
		for i := 2; i < len(reps); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reps[i], errs[i] = Run(cfg)
			}()
		}
		wg.Wait()
		for i, rep := range reps {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(rep, cold) {
				t.Fatalf("%s %v: run %d reports %+v, cold run %+v", cfg.Net.Name, cfg.Level, i, rep, cold)
			}
		}
	}
}

// TestRunReturnsEveryFrame: a run borrows from the pools it is given
// and has returned every frame, grid and invocation when it returns —
// after each level, and after an error exit that follows conversion.
func TestRunReturnsEveryFrame(t *testing.T) {
	pool, invs := mem.NewFramePool(), NewInvocationPool()
	check := func(ctx string) {
		t.Helper()
		fs, as, is := pool.Stats(), pool.AccumStats(), invs.Stats()
		if fs.Gets == 0 || as.Gets == 0 {
			t.Fatalf("%s: nothing borrowed (frames %+v, grids %+v)", ctx, fs, as)
		}
		if fs.Live() != 0 || as.Live() != 0 || is.Live() != 0 {
			t.Fatalf("%s: still borrowed: %d frames, %d grids, %d invocations", ctx, fs.Live(), as.Live(), is.Live())
		}
	}
	cfgs := ownershipConfigs(t)
	for _, cfg := range cfgs {
		if _, err := run(cfg, pool, invs); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%s %v", cfg.Net.Name, cfg.Level))
	}
	// An invalid search config fails buildPlan, after conversion.
	cfg := cfgs[LevelNMP] // SpikeFlowNet
	cfg.NMP.Population = 1
	gets := pool.Stats().Gets
	if _, err := run(cfg, pool, invs); err == nil {
		t.Fatal("invalid NMP config accepted")
	}
	if pool.Stats().Gets == gets {
		t.Fatal("error exit came before conversion")
	}
	check("error exit")
}

// TestRunFramesSharedSet: the four levels of one network, run at once
// over one ConvertStream set, each report what a serial Run of the
// same stream does, field for field, and leave every frame as they
// found it: bounds, coordinates and channel bits hash the same after.
// Under the race detector (make scenarios) it also shows that RunFrames
// only reads the set.
func TestRunFramesSharedSet(t *testing.T) {
	cfgs := ownershipConfigs(t)
	for n := 0; n < len(cfgs); n += 4 {
		levels := cfgs[n : n+4]
		net := levels[0].Net
		frames, _, err := ConvertStream(net, levels[0].Stream, levels[0].DurUS)
		if err != nil {
			t.Fatal(err)
		}
		before := hashFrames(frames)
		reps := make([]*Report, len(levels))
		errs := make([]error, len(levels))
		var wg sync.WaitGroup
		for i, cfg := range levels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reps[i], errs[i] = RunFrames(cfg, frames)
			}()
		}
		wg.Wait()
		for i, cfg := range levels {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reps[i], want) {
				t.Fatalf("%s %v: RunFrames reports %+v, Run %+v", net.Name, cfg.Level, reps[i], want)
			}
		}
		if after := hashFrames(frames); after != before {
			t.Fatalf("%s: the runs changed the shared set: hash %#x, was %#x", net.Name, after, before)
		}
	}
}

// hashFrames is the FNV-1a hash of every frame's bounds, coordinates
// and channel bits, in order.
func hashFrames(frames []*sparse.Frame) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, f := range frames {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(f.T0))
		b = binary.LittleEndian.AppendUint64(b, uint64(f.T1))
		for i := range f.Cells {
			y, x := f.YX(i)
			b = binary.LittleEndian.AppendUint32(b, uint32(y))
			b = binary.LittleEndian.AppendUint32(b, uint32(x))
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(f.Pos[i]))
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(f.Neg[i]))
		}
		h.Write(b)
	}
	return h.Sum64()
}

// TestRunWarmAllocBudget: a run on pools that identical runs have
// warmed takes its frames from them, so it allocates well under what
// the frames' channel slices would cost (12 B per entry) if it
// allocated them again, as every run did before Run borrowed its
// frames. The pool lends by capacity class, so the first warm runs
// still regrow the frames it hands to emissions larger than their
// previous use; from the fifth run on every frame fits.
func TestRunWarmAllocBudget(t *testing.T) {
	// One shard: see checkWarmAlloc.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := ownershipConfigs(t)[LevelE2SF] // SpikeFlowNet
	pool, invs := mem.NewFramePool(), NewInvocationPool()
	for range 4 {
		if _, err := run(cfg, pool, invs); err != nil {
			t.Fatal(err)
		}
	}
	checkWarmAlloc(t, cfg, func() error {
		_, err := run(cfg, pool, invs)
		return err
	})
}

// TestRunPoolsSurviveGC: the pools Run keeps between calls are not
// dropped by garbage collection, so a Run after two collections still
// converts into the frames earlier Runs returned and keeps
// TestRunWarmAllocBudget's budget. Pools the collector could drop would
// be rebuilt, and the run would allocate all its frames again.
func TestRunPoolsSurviveGC(t *testing.T) {
	// One shard: see checkWarmAlloc.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := ownershipConfigs(t)[LevelE2SF] // SpikeFlowNet
	for range 5 {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	checkWarmAlloc(t, cfg, func() error {
		_, err := Run(cfg)
		return err
	})
}

// checkWarmAlloc fails unless one call of runOnce allocates under a
// quarter of what cfg's frames' channel slices cost (12 B per entry:
// a cell index and two counts).
// Its callers run at GOMAXPROCS 1, so conversions run on one shard:
// on more, how many grids the pool holds and which frame it lends to
// which emission depend on how the shards happened to overlap in the
// warming runs, and a loaded host can leave the measured run a grid or
// a few frame regrowths short.
func checkWarmAlloc(t *testing.T, cfg Config, runOnce func() error) {
	t.Helper()
	frames, _, err := ConvertStream(cfg.Net, cfg.Stream, cfg.DurUS)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, f := range frames {
		entries += len(f.Cells)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := runOnce(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(12*entries/4)
	t.Logf("warm run allocated %d B, %.1f %% of 12 B x %d entries", alloc, 100*float64(alloc)/float64(12*entries), entries)
	if alloc >= budget {
		t.Fatalf("warm run allocated %d B, budget %d B (25 %% of 12 B x %d entries)", alloc, budget, entries)
	}
}

func TestTunedDSFAPerTask(t *testing.T) {
	seg := TunedDSFA(nn.MustByName(nn.HALSIE))
	if seg.MdTh > 0.1 || seg.MBSize > 2 {
		t.Fatal("segmentation tuning not conservative")
	}
	track := TunedDSFA(nn.MustByName(nn.DOTIE))
	if track.Mode != dsfa.CBatch {
		t.Fatal("tracking should use cBatch")
	}
	flow := TunedDSFA(nn.MustByName(nn.SpikeFlowNet))
	if flow.Mode != dsfa.CAdd || flow.MBSize < 2 {
		t.Fatal("flow tuning wrong")
	}
	for _, cfg := range []dsfa.Config{seg, track, flow} {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConvertStreamModes(t *testing.T) {
	// Count framing: frame count tracks activity, not wall time.
	countNet := nn.MustByName(nn.SpikeFlowNet)
	seq, err := scene.NewSequence(scene.IndoorFlying2, scene.Half, 3)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := seq.Generate(600_000)
	if err != nil {
		t.Fatal(err)
	}
	frames, _, err := ConvertStream(countNet, stream, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("no frames")
	}
	// Count-framed frames hold roughly constant event counts.
	var first, mid float64
	first = frames[0].EventCount()
	mid = frames[len(frames)/2].EventCount()
	ratio := first / mid
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("count framing not stabilizing event counts: %f vs %f", first, mid)
	}

	// Time framing: frame count fixed by window/bins regardless of
	// activity.
	timeNet := nn.MustByName(nn.HALSIE)
	tframes, _, err := ConvertStream(timeNet, stream, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	// 600ms / 50ms windows x (8 bins / group 2) = 12 x 4 = 48 frames.
	if len(tframes) != 48 {
		t.Fatalf("time framing frames=%d want 48", len(tframes))
	}
}

// pixelCounts is one reference bin: per-pixel {pos, neg} event counts
// keyed y*W+x.
type pixelCounts map[int64][2]float32

func (c pixelCounts) add(e events.Event, w int) {
	k := int64(e.Y)*int64(w) + int64(e.X)
	v := c[k]
	if e.Pol == events.On {
		v[0]++
	} else {
		v[1]++
	}
	c[k] = v
}

// frame emits the counts as a sorted h x w frame; no counts, nil
// channel slices.
func (c pixelCounts) frame(h, w int, t0, t1 int64) *sparse.Frame {
	f := sparse.NewFrame(h, w, t0, t1)
	for _, k := range slices.Sorted(maps.Keys(c)) {
		f.Set(int32(k/int64(w)), int32(k%int64(w)), c[k][0], c[k][1])
	}
	return f
}

// referenceConvertStream is ConvertStream's definition on one map per
// bin: count framing closes a frame every nn.InputSpec.EventsPerFrame
// events (T1 just past the closing event, a trailing partial frame
// ending at durUS); time framing bins every full window per Eq. 1 and
// sums each run of GroupK bins, in bin order, into the group's map.
func referenceConvertStream(in nn.InputSpec, stream *events.Stream, durUS int64) []*sparse.Frame {
	h, w := stream.Height, stream.Width
	var out []*sparse.Frame
	if in.Framing == nn.FrameByCount {
		count := in.EventsPerFrame(w, h)
		counts, start, n := pixelCounts{}, int64(0), 0
		emit := func(t1 int64) {
			out = append(out, counts.frame(h, w, start, t1))
			counts, start, n = pixelCounts{}, t1, 0
		}
		for _, e := range stream.Window(0, durUS) {
			counts.add(e, w)
			if n++; n >= count {
				emit(e.TS + 1)
			}
		}
		if n > 0 {
			emit(durUS)
		}
		return out
	}
	biS := float64(in.WindowUS) / float64(in.NumBins)
	for t0 := int64(0); t0+in.WindowUS <= durUS; t0 += in.WindowUS {
		bins := make([]pixelCounts, in.NumBins)
		for b := range bins {
			bins[b] = pixelCounts{}
		}
		for _, e := range stream.Window(t0, t0+in.WindowUS) {
			bins[min(int(float64(e.TS-t0)/biS), in.NumBins-1)].add(e, w)
		}
		for a := 0; a < in.NumBins; a += in.GroupK {
			b := min(a+in.GroupK, in.NumBins)
			sum := pixelCounts{}
			for _, bin := range bins[a:b] {
				for k, v := range bin {
					g := sum[k]
					sum[k] = [2]float32{g[0] + v[0], g[1] + v[1]}
				}
			}
			out = append(out, sum.frame(h, w, t0+int64(float64(a)*biS), t0+int64(float64(b)*biS)))
		}
	}
	return out
}

// dupEdges returns a copy of stream in which every third event and, for
// count framing, the first event of every count run take their
// predecessor's timestamp, so every edge between the converter's jobs,
// and hence between its shards, falls inside a run of equal timestamps.
func dupEdges(t *testing.T, in nn.InputSpec, stream *events.Stream, durUS int64) *events.Stream {
	t.Helper()
	out := cloneStream(stream)
	evs := out.Window(0, durUS)
	count := in.EventsPerFrame(out.Width, out.Height)
	dup := func(i int) {
		if i > 0 && i < len(evs) {
			evs[i].TS = evs[i-1].TS
		}
	}
	for i := 2; i < len(evs); i += 3 {
		dup(i)
	}
	if in.Framing == nn.FrameByCount {
		for i := count; i < len(evs); i += count {
			dup(i)
		}
	}
	return out
}

// sameFrames fails unless got equals want entry for entry, bounds and
// float bits included.
func sameFrames(t *testing.T, ctx string, got, want []*sparse.Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, reference %d", ctx, len(got), len(want))
	}
	bits := func(v []float32) []uint32 {
		out := make([]uint32, len(v))
		for i, x := range v {
			out[i] = math.Float32bits(x)
		}
		return out
	}
	for i, f := range got {
		r := want[i]
		if f.H != r.H || f.W != r.W || f.T0 != r.T0 || f.T1 != r.T1 ||
			!slices.Equal(f.Cells, r.Cells) ||
			!slices.Equal(bits(f.Pos), bits(r.Pos)) || !slices.Equal(bits(f.Neg), bits(r.Neg)) {
			t.Fatalf("%s: frame %d [%d,%d) nnz %d != reference [%d,%d) nnz %d",
				ctx, i, f.T0, f.T1, f.NNZ(), r.T0, r.T1, r.NNZ())
		}
	}
}

// TestConvertStreamMatchesReference: for every network's input spec
// (count and time framing) the converter's frames equal the reference
// converter's entry for entry, bounds included, whether ConvertStream
// allocates them or a pool lends them, at 1, 2, 3 and 64 shards (more
// than there are jobs in most cases). Besides a scene recording it
// converts that recording with equal timestamps across every job edge,
// an empty stream, a duration shorter than one window, and one too
// short to hold a count run.
func TestConvertStreamMatchesReference(t *testing.T) {
	const dur = 300_000
	pool := mem.NewFramePool()
	for _, name := range nn.AllNames() {
		net := nn.MustByName(name)
		seq, err := scene.NewSequence(net.Input.Preset, scene.Half, 5)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := seq.Generate(dur)
		if err != nil {
			t.Fatal(err)
		}
		short := int64(2_000)
		if net.Input.Framing == nn.FrameByCount {
			if n, c := len(stream.Window(0, short)), net.Input.EventsPerFrame(stream.Width, stream.Height); c <= n {
				t.Fatalf("%s: count %d does not exceed the %d events before %d µs", net.Name, c, n, short)
			}
		}
		for _, c := range []struct {
			name   string
			stream *events.Stream
			dur    int64
		}{
			{"scene", stream, dur},
			{"dup-edges", dupEdges(t, net.Input, stream, dur), dur},
			{"empty", events.NewStream(stream.Width, stream.Height), dur},
			{"sub-window", stream, net.Input.WindowUS - 1},
			{"count-over-stream", stream, short},
		} {
			want := referenceConvertStream(net.Input, c.stream, c.dur)
			if c.name == "scene" && len(want) == 0 {
				t.Fatalf("%s: no frames", net.Name)
			}
			got, _, err := ConvertStream(net, c.stream, c.dur)
			if err != nil {
				t.Fatalf("%s %s: %v", net.Name, c.name, err)
			}
			sameFrames(t, fmt.Sprintf("%s %s", net.Name, c.name), got, want)
			for _, shards := range []int{1, 2, 3, 64} {
				got, err := convertStream(net, c.stream, c.dur, pool, shards)
				if err != nil {
					t.Fatalf("%s %s, %d shards: %v", net.Name, c.name, shards, err)
				}
				sameFrames(t, fmt.Sprintf("%s %s, %d shards", net.Name, c.name, shards), got, want)
				for _, f := range got {
					pool.Put(f)
				}
			}
		}
	}
	if live := pool.Stats().Live() + pool.AccumStats().Live(); live != 0 {
		t.Fatalf("%d frames or grids still borrowed", live)
	}
}

// TestSortedShards: with one event moved before its predecessor or past
// its successor, at every index of a small stream, the order check
// agrees with Stream.Sorted at 1 to 4 shards — so an inversion on any
// shard edge is caught — and Run refuses every unsorted stream.
func TestSortedShards(t *testing.T) {
	const n = 12
	net := nn.MustByName(nn.DOTIE)
	base := events.NewStream(8, 8)
	for i := range n {
		base.Append(events.Event{X: uint16(i % 8), Y: 1, TS: int64(10 * i), Pol: events.On})
	}
	for i := range n {
		for _, shift := range []int64{-15, 15} {
			s := cloneStream(base)
			s.Events[i].TS += shift
			want := s.Sorted()
			for shards := 1; shards <= 4; shards++ {
				if got := sorted(s, shards); got != want {
					t.Fatalf("event %d shifted %+d µs, %d shards: sorted %v, Stream.Sorted %v", i, shift, shards, got, want)
				}
			}
			if want {
				continue
			}
			_, err := Run(Config{Net: net, Stream: s, DurUS: 10 * n})
			if err == nil || !strings.Contains(err.Error(), "not time-sorted") {
				t.Fatalf("event %d shifted %+d µs: Run error %v, want not time-sorted", i, shift, err)
			}
		}
	}
}

// cloneStream returns a deep copy of s.
func cloneStream(s *events.Stream) *events.Stream {
	return &events.Stream{Width: s.Width, Height: s.Height, Events: append([]events.Event(nil), s.Events...)}
}
