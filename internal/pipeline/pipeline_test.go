package pipeline

import (
	"maps"
	"math"
	"slices"
	"testing"

	"evedge/internal/dsfa"
	"evedge/internal/events"
	"evedge/internal/nmp"
	"evedge/internal/nn"
	"evedge/internal/quant"
	"evedge/internal/scene"
	"evedge/internal/sparse"
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

// TestPlanSlotCarriesExecutionState: Swap must carry FramingOps
// (execution state) into the new plan, and Equal must ignore it so
// no-op remaps aren't counted.
func TestPlanSlotCarriesExecutionState(t *testing.T) {
	a := &ExecPlan{Device: []int{0, 1}, Prec: []nn.Precision{nn.FP16, nn.FP16}}
	s := NewPlanSlot(a)
	s.SetFramingOps(77)
	b := &ExecPlan{Device: []int{1, 0}, Prec: []nn.Precision{nn.FP32, nn.FP16}}
	s.Swap(b)
	if got := s.Load(); got.FramingOps != 77 {
		t.Fatalf("swap dropped execution state: framing=%d", got.FramingOps)
	}
	x := &ExecPlan{Device: []int{0}, Prec: []nn.Precision{nn.FP16}, FramingOps: 1}
	y := &ExecPlan{Device: []int{0}, Prec: []nn.Precision{nn.FP16}}
	if !x.Equal(y) {
		t.Fatal("Equal must ignore FramingOps")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil network accepted")
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

func TestRunDeterminism(t *testing.T) {
	a := quickRun(t, nn.DOTIE, LevelDSFA)
	b := quickRun(t, nn.DOTIE, LevelDSFA)
	if a.MeanLatencyUS != b.MeanLatencyUS || a.EnergyJ != b.EnergyJ || a.RawFrames != b.RawFrames {
		t.Fatal("pipeline not deterministic under a fixed seed")
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
	stream2, err := seq.Camera.Run(600_000, 1_200_000)
	if err != nil {
		t.Fatal(err)
	}
	_ = stream2
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
		f.Ys = append(f.Ys, int32(k/int64(w)))
		f.Xs = append(f.Xs, int32(k%int64(w)))
		f.Pos = append(f.Pos, c[k][0])
		f.Neg = append(f.Neg, c[k][1])
	}
	return f
}

// referenceConvertStream is ConvertStream's definition on one map per
// bin: count framing closes a frame every median-rate-calibrated N
// events (T1 just past the closing event, a trailing partial frame
// ending at durUS); time framing bins every full window per Eq. 1 and
// sums each run of GroupK bins, in bin order, into the group's map.
func referenceConvertStream(in nn.InputSpec, stream *events.Stream, durUS int64) []*sparse.Frame {
	h, w := stream.Height, stream.Width
	var out []*sparse.Frame
	if in.Framing == nn.FrameByCount {
		count := max(int(medianRatePerUS(stream, durUS)*float64(in.FramePeriodUS)), 1)
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

// TestConvertStreamMatchesReference: for every network's input spec
// (count and time framing) ConvertStream's frames equal the reference
// converter's entry for entry, bounds included.
func TestConvertStreamMatchesReference(t *testing.T) {
	const dur = 300_000
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
		got, _, err := ConvertStream(net, stream, dur)
		if err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
		want := referenceConvertStream(net.Input, stream, dur)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%s: %d frames, reference %d", net.Name, len(got), len(want))
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
				!slices.Equal(f.Ys, r.Ys) || !slices.Equal(f.Xs, r.Xs) ||
				!slices.Equal(bits(f.Pos), bits(r.Pos)) || !slices.Equal(bits(f.Neg), bits(r.Neg)) {
				t.Fatalf("%s frame %d [%d,%d) nnz %d != reference [%d,%d) nnz %d",
					net.Name, i, f.T0, f.T1, f.NNZ(), r.T0, r.T1, r.NNZ())
			}
		}
	}
}

func TestMedianRate(t *testing.T) {
	seq, err := scene.NewSequence(scene.IndoorFlying3, scene.Half, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := seq.Generate(400_000)
	if err != nil {
		t.Fatal(err)
	}
	r := medianRatePerUS(stream, 400_000)
	if r <= 0 {
		t.Fatalf("median rate %f", r)
	}
	// Roughly consistent with the overall mean for a quiet sequence.
	mean := float64(stream.Len()) / 400_000
	if r > mean*3 || r < mean/3 {
		t.Fatalf("median %f far from mean %f on a quiet stream", r, mean)
	}
}

func TestCustomDSFAConfigHonored(t *testing.T) {
	cfg := dsfa.DefaultConfig()
	cfg.MBSize = 1 // merging disabled
	cfg.EBufSize = 1
	rep, err := Run(Config{
		Net: nn.MustByName(nn.SpikeFlowNet), Level: LevelDSFA,
		DSFA:  cfg,
		Scale: scene.Half, DurUS: 500_000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MergeRatio != 1 {
		t.Fatalf("MBSize=1 must disable merging, got %f", rep.MergeRatio)
	}
}
