package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"evedge/internal/nn"
)

func randData(seed int64, n int) []float32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = r.Float32()*4 - 2
	}
	return out
}

func TestINT8RoundTrip(t *testing.T) {
	data := randData(1, 1000)
	q, scale := QuantizeINT8(data)
	back := DequantizeINT8(q, scale)
	if len(back) != len(data) {
		t.Fatal("length mismatch")
	}
	// Max error is half a quantization step.
	step := float64(scale)
	for i := range data {
		if math.Abs(float64(data[i]-back[i])) > step/2+1e-6 {
			t.Fatalf("error at %d: %f vs %f (step %f)", i, data[i], back[i], step)
		}
	}
}

func TestINT8Zeros(t *testing.T) {
	q, scale := QuantizeINT8(make([]float32, 10))
	if scale != 1 {
		t.Fatalf("scale=%f", scale)
	}
	for _, v := range q {
		if v != 0 {
			t.Fatal("zero data quantized nonzero")
		}
	}
}

func TestFP16KnownValues(t *testing.T) {
	cases := []struct {
		in   float32
		want float32
	}{
		{0, 0},
		{1, 1},
		{-2, -2},
		{0.5, 0.5},
		{65504, 65504},   // max half
		{100000, 100000}, // overflows to +inf; fromFP16(inf)=+inf
	}
	for _, c := range cases[:5] {
		got := fromFP16(toFP16(c.in))
		if got != c.want {
			t.Fatalf("fp16(%f)=%f want %f", c.in, got, c.want)
		}
	}
	if !math.IsInf(float64(fromFP16(toFP16(100000))), 1) {
		t.Fatal("overflow should produce +inf")
	}
	// Subnormals survive.
	small := float32(3.0e-7)
	got := fromFP16(toFP16(small))
	if got == 0 || math.Abs(float64(got-small))/float64(small) > 0.1 {
		t.Fatalf("subnormal %g -> %g", small, got)
	}
	// NaN stays NaN.
	nan := math.Float32frombits(0x7fc00000)
	if !math.IsNaN(float64(fromFP16(toFP16(nan)))) {
		t.Fatal("nan lost")
	}
}

// Property: FP16 rounding error is within half a ULP of the binary16
// representation for normal-range values.
func TestFP16Property(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := float32(r.NormFloat64())
		got := fromFP16(toFP16(v))
		if v == 0 {
			return got == 0
		}
		rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
		return rel < 1.0/1024 // 2^-10 mantissa
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyOrdering stores one tensor at each precision: FP32 is
// lossless, FP16 loses less than INT8.
func TestApplyOrdering(t *testing.T) {
	data := randData(3, 4096)
	fp32 := append([]float32(nil), data...)
	fp16 := RoundFP16(data)
	int8v := DequantizeINT8(QuantizeINT8(data))
	if MSE(data, fp32) != 0 {
		t.Fatal("FP32 not lossless")
	}
	e16, e8 := MSE(data, fp16), MSE(data, int8v)
	if !(e16 < e8) {
		t.Fatalf("FP16 error %g should be below INT8 error %g", e16, e8)
	}
	if SQNR(data, fp16) <= SQNR(data, int8v) {
		t.Fatal("SQNR ordering wrong")
	}
	if !math.IsInf(SQNR(data, fp32), 1) {
		t.Fatal("lossless SQNR should be +inf")
	}
}

func TestPenaltyMonotone(t *testing.T) {
	if !(Penalty(nn.FP32) < Penalty(nn.FP16) && Penalty(nn.FP16) < Penalty(nn.INT8)) {
		t.Fatal("penalty not monotone in bit-width")
	}
}

func TestModelDelta(t *testing.T) {
	net := nn.MustByName(nn.SpikeFlowNet)
	m := NewModel(net)
	all := func(p nn.Precision) []nn.Precision {
		out := make([]nn.Precision, len(net.Layers))
		for i := range out {
			out[i] = p
		}
		return out
	}
	d32, err := m.Delta(all(nn.FP32))
	if err != nil {
		t.Fatal(err)
	}
	if d32 != 0 {
		t.Fatalf("FP32 delta=%f", d32)
	}
	d16, _ := m.Delta(all(nn.FP16))
	d8, _ := m.Delta(all(nn.INT8))
	if !(d16 < d8) {
		t.Fatalf("delta ordering wrong: fp16=%f int8=%f", d16, d8)
	}
	// Calibration: all-INT8 overshoots the Table 2 budget by the
	// configured factor, so the search must mix precisions.
	budget := Table2Delta(net.Name)
	if math.Abs(d8-calOvershoot*budget)/budget > 1e-9 {
		t.Fatalf("all-INT8 delta %f, want %f", d8, calOvershoot*budget)
	}
	// Mixed precision lands strictly between.
	mixed := all(nn.INT8)
	for i := 0; i < len(mixed); i += 2 {
		mixed[i] = nn.FP16
	}
	dm, _ := m.Delta(mixed)
	if !(dm > d16 && dm < d8) {
		t.Fatalf("mixed delta %f outside (%f, %f)", dm, d16, d8)
	}
	// Length check.
	if _, err := m.Delta([]nn.Precision{nn.FP32}); err == nil {
		t.Fatal("wrong length accepted")
	}
}

func TestModelSampledNoise(t *testing.T) {
	net := nn.MustByName(nn.HidalgoDepth)
	m := NewModel(net)
	precs := make([]nn.Precision, len(net.Layers))
	for i := range precs {
		precs[i] = nn.INT8
	}
	exact, _ := m.Delta(precs)
	// Full-set evaluation has no noise.
	d, err := m.DeltaSampled(precs, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d != exact {
		t.Fatalf("full sample %f != exact %f", d, exact)
	}
	// Subset evaluation is noisy but unbiased-ish and deterministic per seed.
	a, _ := m.DeltaSampled(precs, 0.1, 7)
	b, _ := m.DeltaSampled(precs, 0.1, 7)
	if a != b {
		t.Fatal("sampled delta not deterministic per seed")
	}
	c, _ := m.DeltaSampled(precs, 0.1, 8)
	if a == c {
		t.Fatal("different seeds give identical noise")
	}
	if _, err := m.DeltaSampled(precs, 0, 1); err == nil {
		t.Fatal("zero fraction accepted")
	}
	// Noise never makes delta negative.
	for seed := int64(0); seed < 50; seed++ {
		v, _ := m.DeltaSampled(precs, 0.05, seed)
		if v < 0 {
			t.Fatalf("negative delta %f", v)
		}
	}
}

// TestStdNormalDraw: the subset-noise variate is a pure function of its
// key, costs no allocation, is standard normal over consecutive keys —
// how a search's candidates and their per-task seeds s, s+1, ... sit —
// and adjacent keys are uncorrelated.
func TestStdNormalDraw(t *testing.T) {
	for _, key := range []uint64{0, 1, 1 << 63, math.MaxUint64} {
		a, b := stdNormal(key), stdNormal(key)
		if a != b || math.IsNaN(a) || math.IsInf(a, 0) {
			t.Fatalf("stdNormal(%#x) = %v, then %v", key, a, b)
		}
	}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += stdNormal(42) }); allocs != 0 {
		t.Fatalf("stdNormal allocates %.0f times per call, want 0", allocs)
	}
	// Starts the mapper actually produces: small seeds, and a seed XORed
	// with a 64-bit assignment hash.
	for _, start := range []uint64{0, 7, 0xcbf29ce484222325} {
		const n = 100_000
		var sum, sumSq, lag float64
		prev := stdNormal(start - 1)
		for i := uint64(0); i < n; i++ {
			z := stdNormal(start + i)
			sum += z
			sumSq += z * z
			lag += z * prev
			prev = z
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean) >= 0.01 {
			t.Errorf("keys from %#x: mean %.5f, want |mean| < 0.01", start, mean)
		}
		if math.Abs(variance-1) >= 0.02 {
			t.Errorf("keys from %#x: variance %.5f, want within 0.02 of 1", start, variance)
		}
		if corr := (lag/n - mean*mean) / variance; math.Abs(corr) >= 0.01 {
			t.Errorf("keys from %#x: lag-1 correlation %.5f, want below 0.01", start, corr)
		}
	}
}

func TestTable2Deltas(t *testing.T) {
	// The budgets encode Table 2 exactly.
	cases := map[string]float64{
		nn.SpikeFlowNet:     0.03,
		nn.FusionFlowNet:    0.07,
		nn.AdaptiveSpikeNet: 0.09,
		nn.HALSIE:           2.13,
		nn.HidalgoDepth:     0.02,
		nn.DOTIE:            0.04,
	}
	for name, want := range cases {
		if got := Table2Delta(name); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: %f want %f", name, got, want)
		}
	}
	if Table2Delta("unknown") <= 0 {
		t.Fatal("unknown network needs a positive default budget")
	}
}

func TestMergePenalty(t *testing.T) {
	flow := nn.MustByName(nn.SpikeFlowNet)
	seg := nn.MustByName(nn.HALSIE)
	if MergePenalty(flow, 1.0) != 0 {
		t.Fatal("no merging must cost nothing")
	}
	pf := MergePenalty(flow, 2.0)
	ps := MergePenalty(seg, 2.0)
	if pf <= 0 || ps <= 0 {
		t.Fatal("merging should cost accuracy")
	}
	// Segmentation pays proportionally more of its budget.
	if ps/Table2Delta(seg.Name) <= pf/Table2Delta(flow.Name) {
		t.Fatal("segmentation should be more merge-sensitive")
	}
	// Penalty saturates.
	if MergePenalty(flow, 100) > 0.5*Table2Delta(flow.Name)+1e-12 {
		t.Fatal("penalty must saturate at half the budget")
	}
}

func TestEvEdgeAccuracy(t *testing.T) {
	flow := nn.MustByName(nn.SpikeFlowNet) // AEE: lower better
	if got := EvEdgeAccuracy(flow, 0.03); math.Abs(got-0.96) > 1e-9 {
		t.Fatalf("AEE %f want 0.96", got)
	}
	seg := nn.MustByName(nn.HALSIE) // mIOU: higher better
	if got := EvEdgeAccuracy(seg, 2.13); math.Abs(got-64.18) > 1e-9 {
		t.Fatalf("mIOU %f want 64.18", got)
	}
}

func TestMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MSE([]float32{1}, []float32{1, 2})
}
