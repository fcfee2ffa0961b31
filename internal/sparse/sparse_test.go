package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3, 4)
	if x.Numel() != 24 {
		t.Fatalf("numel=%d", x.Numel())
	}
	x.Set(1, 2, 3, 5)
	if x.At(1, 2, 3) != 5 {
		t.Fatal("set/at broken")
	}
	x.Add(1, 2, 3, 2)
	if x.At(1, 2, 3) != 7 {
		t.Fatal("add broken")
	}
	if x.NNZ() != 1 || x.Density() != 1.0/24 {
		t.Fatalf("nnz=%d density=%f", x.NNZ(), x.Density())
	}
	c := x.Clone()
	c.Set(0, 0, 0, 9)
	if x.At(0, 0, 0) != 0 {
		t.Fatal("clone shares storage")
	}
	x.Zero()
	if x.NNZ() != 0 {
		t.Fatal("zero failed")
	}
}

func TestTensorPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad shape")
		}
	}()
	NewTensor(0, 1, 1)
}

func TestActiveSites(t *testing.T) {
	x := NewTensor(2, 3, 3)
	x.Set(0, 1, 1, 1)
	x.Set(1, 1, 1, 2) // same pixel, other channel
	x.Set(0, 2, 0, 3)
	sites := x.ActiveSites()
	if len(sites) != 2 {
		t.Fatalf("sites=%v", sites)
	}
	if sites[0] != (Site{Y: 1, X: 1}) || sites[1] != (Site{Y: 2, X: 0}) {
		t.Fatalf("sites=%v", sites)
	}
}

func TestReLUScaleAdd(t *testing.T) {
	x := NewTensor(1, 1, 3)
	copy(x.Data, []float32{-1, 0, 2})
	x.ReLU()
	if x.Data[0] != 0 || x.Data[2] != 2 {
		t.Fatalf("relu: %v", x.Data)
	}
	x.Scale(3)
	if x.Data[2] != 6 {
		t.Fatalf("scale: %v", x.Data)
	}
	x.Add(0, 0, 2, 1)
	if x.Data[0] != 0 || x.Data[2] != 7 {
		t.Fatalf("add: %v", x.Data)
	}
}

func TestFrameBuilderAndValidate(t *testing.T) {
	b := newFrameBuilder(4, 5, 0, 100)
	b.addEvent(2, 3, true)
	b.addEvent(2, 3, true)
	b.addEvent(2, 3, false)
	b.addEvent(0, 0, false)
	f := b.build()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.NNZ() != 2 {
		t.Fatalf("nnz=%d", f.NNZ())
	}
	p, n := f.Get(2, 3)
	if p != 2 || n != 1 {
		t.Fatalf("get=(%f,%f)", p, n)
	}
	if f.EventCount() != 4 {
		t.Fatalf("events=%f", f.EventCount())
	}
	if f.Density() != 0.1 {
		t.Fatalf("density=%f", f.Density())
	}
	// the accumulator behind the builder is all-zero after an emission
	if again := b.build(); again.NNZ() != 0 || !b.acc.Clean() {
		t.Fatalf("second build has %d entries, clean=%v", again.NNZ(), b.acc.Clean())
	}
}

func TestFrameSetGetDense(t *testing.T) {
	f := NewFrame(3, 3, 0, 10)
	f.Set(1, 1, 2, 0)
	f.Set(0, 2, 0, 1)
	f.Set(1, 1, 3, 1) // overwrite
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	p, n := f.Get(1, 1)
	if p != 3 || n != 1 {
		t.Fatalf("get=(%f,%f)", p, n)
	}
	d := dense(f)
	if d.At(0, 1, 1) != 3 || d.At(1, 1, 1) != 1 || d.At(0, 0, 2) != 0 || d.At(1, 0, 2) != 1 {
		t.Fatal("dense expansion wrong")
	}
	back, err := FromDense(d, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != f.NNZ() {
		t.Fatalf("round trip nnz %d != %d", back.NNZ(), f.NNZ())
	}
}

func TestMergeModes(t *testing.T) {
	a := NewFrame(4, 4, 0, 10)
	a.Set(1, 1, 2, 0)
	a.Set(2, 2, 0, 2)
	b := NewFrame(4, 4, 10, 20)
	b.Set(1, 1, 2, 2)
	b.Set(3, 3, 4, 0)

	sum := mergeAdd(a, b)
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	if p, n := sum.Get(1, 1); p != 4 || n != 2 {
		t.Fatalf("add (1,1)=(%f,%f)", p, n)
	}
	if sum.NNZ() != 3 {
		t.Fatalf("add nnz=%d", sum.NNZ())
	}
	if sum.T0 != 0 || sum.T1 != 20 {
		t.Fatalf("time union %d %d", sum.T0, sum.T1)
	}

	avg := mergeAverage(a, b)
	if p, _ := avg.Get(1, 1); p != 2 {
		t.Fatalf("avg (1,1) pos=%f", p)
	}
	if p, _ := avg.Get(3, 3); p != 2 {
		t.Fatalf("avg (3,3) pos=%f", p)
	}

	// event conservation under cAdd
	if sum.EventCount() != a.EventCount()+b.EventCount() {
		t.Fatal("cAdd loses events")
	}
}

func randFilter(r *rand.Rand, outC, inC, k, stride, pad int) *Filter {
	f := NewFilter(outC, inC, k, stride, pad)
	for i := range f.Weights {
		f.Weights[i] = r.Float32()*2 - 1
	}
	f.Bias = make([]float32, outC)
	for i := range f.Bias {
		f.Bias[i] = r.Float32()
	}
	return f
}

// convOut runs an Into kernel on a fresh output tensor of f's shape for
// in (an empty shape is left to the kernel to reject).
func convOut(kernel func(out, in *Tensor, f *Filter) error, in *Tensor, f *Filter) (*Tensor, error) {
	oh, ow := f.OutShape(in.H, in.W)
	out := NewTensor(f.OutC, max(oh, 1), max(ow, 1))
	return out, kernel(out, in, f)
}

func TestConvKnownValues(t *testing.T) {
	// 1x3x3 input, 1 filter 2x2 stride 1 pad 0, all-ones weights.
	in := NewTensor(1, 3, 3)
	for i := range in.Data {
		in.Data[i] = float32(i + 1) // 1..9
	}
	f := NewFilter(1, 1, 2, 1, 0)
	for i := range f.Weights {
		f.Weights[i] = 1
	}
	out, err := convOut(Conv2DInto, in, f)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{12, 16, 24, 28}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("conv[%d]=%f want %f", i, out.Data[i], v)
		}
	}
}

func TestSparseConvMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, cfg := range []struct {
		c, h, w, oc, k, s, p int
		density              float64
	}{
		{2, 12, 12, 4, 3, 1, 1, 0.05},
		{2, 16, 16, 8, 3, 2, 1, 0.10},
		{1, 9, 9, 3, 5, 1, 2, 0.30},
		{2, 10, 10, 4, 4, 2, 1, 0.02},
	} {
		in := NewTensor(cfg.c, cfg.h, cfg.w)
		in.FillRandomSparse(r, cfg.density)
		f := randFilter(r, cfg.oc, cfg.c, cfg.k, cfg.s, cfg.p)
		dense, err := convOut(Conv2DInto, in, f)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := convOut(SparseConv2DInto, in, f)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxAbsDiff(dense, sp); d > 1e-4 {
			t.Fatalf("cfg %+v: sparse conv differs by %g", cfg, d)
		}
	}
}

// Property: sparse convolution equals dense convolution for random
// sparse inputs and random odd-kernel filters.
func TestSparseConvProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := 1 + r.Intn(3)
		h := 6 + r.Intn(8)
		w := 6 + r.Intn(8)
		k := []int{1, 3, 5}[r.Intn(3)]
		s := 1 + r.Intn(2)
		p := r.Intn(k)
		in := NewTensor(c, h, w)
		in.FillRandomSparse(r, 0.02+r.Float64()*0.2)
		fl := randFilter(r, 1+r.Intn(4), c, k, s, p)
		a, errA := convOut(Conv2DInto, in, fl)
		b, errB := convOut(SparseConv2DInto, in, fl)
		if errA != nil || errB != nil {
			return errA != nil && errB != nil // both reject equally
		}
		return MaxAbsDiff(a, b) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmanifoldConv(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	in := NewTensor(2, 10, 10)
	in.FillRandomSparse(r, 0.1)
	f := randFilter(r, 4, 2, 3, 1, 1)
	out, err := convOut(SubmanifoldConv2DInto, in, f)
	if err != nil {
		t.Fatal(err)
	}
	// Active set does not dilate: outputs only where input was active.
	inSites := map[Site]bool{}
	for _, s := range in.ActiveSites() {
		inSites[s] = true
	}
	for _, s := range out.ActiveSites() {
		if !inSites[s] {
			t.Fatalf("submanifold produced output at inactive site %v", s)
		}
	}
	// At active sites, values agree with dense conv.
	dense, err := convOut(Conv2DInto, in, f)
	if err != nil {
		t.Fatal(err)
	}
	for s := range inSites {
		for c := 0; c < out.C; c++ {
			d := dense.At(c, int(s.Y), int(s.X)) - out.At(c, int(s.Y), int(s.X))
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("submanifold value differs at %v c=%d", s, c)
			}
		}
	}
	// Rejects non-submanifold configs.
	if _, err := convOut(SubmanifoldConv2DInto, in, randFilter(r, 2, 2, 3, 2, 1)); err == nil {
		t.Fatal("stride 2 accepted")
	}
	if _, err := convOut(SubmanifoldConv2DInto, in, randFilter(r, 2, 2, 4, 1, 2)); err == nil {
		t.Fatal("even kernel accepted")
	}
}

func TestDeconv(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	in := NewTensor(2, 5, 5)
	in.FillRandom(r)
	f := randFilter(r, 3, 2, 4, 2, 1)
	f.Deconv = true
	out, err := convOut(Conv2DInto, in, f)
	if err != nil {
		t.Fatal(err)
	}
	oh, ow := f.OutShape(5, 5)
	if out.H != oh || out.W != ow || oh != 10 || ow != 10 {
		t.Fatalf("deconv shape %dx%d want %dx%d", out.H, out.W, oh, ow)
	}
	// Deconv of a delta reproduces (part of) the kernel.
	delta := NewTensor(1, 3, 3)
	delta.Set(0, 1, 1, 1)
	g := NewFilter(1, 1, 3, 1, 1)
	for i := range g.Weights {
		g.Weights[i] = float32(i)
	}
	g.Deconv = true
	dout, err := convOut(Conv2DInto, delta, g)
	if err != nil {
		t.Fatal(err)
	}
	if dout.At(0, 1, 1) != g.W(0, 0, 1, 1) {
		t.Fatalf("deconv delta center %f want %f", dout.At(0, 1, 1), g.W(0, 0, 1, 1))
	}
}

func TestMACCounts(t *testing.T) {
	f := NewFilter(8, 2, 3, 1, 1)
	// 32x32 input, same-size output: 8*32*32*2*3*3
	if got, want := f.MACs(32, 32), int64(8*32*32*2*3*3); got != want {
		t.Fatalf("dense MACs=%d want %d", got, want)
	}
	if got, want := SparseConvMACs(100, f), int64(100*2*8*3*3); got != want {
		t.Fatalf("sparse MACs=%d want %d", got, want)
	}
}

func TestMergePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on geometry mismatch")
		}
	}()
	mergeAdd(NewFrame(2, 2, 0, 1), NewFrame(3, 3, 0, 1))
}
