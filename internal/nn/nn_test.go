package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"evedge/internal/par"
	"evedge/internal/sparse"
)

func TestPrecision(t *testing.T) {
	if FP32.Bytes() != 4 || FP16.Bytes() != 2 || INT8.Bytes() != 1 {
		t.Fatal("precision bytes wrong")
	}
	if FP32.String() != "FP32" || FP16.String() != "FP16" || INT8.String() != "INT8" {
		t.Fatal("precision strings wrong")
	}
	if !strings.Contains(Precision(9).String(), "9") {
		t.Fatal("unknown precision string")
	}
}

func TestZooTable1LayerCounts(t *testing.T) {
	// The exact layer counts and SNN/ANN splits of the paper's Table 1.
	cases := []struct {
		name             string
		layers, snn, ann int
		typeDesc         string
	}{
		{SpikeFlowNet, 12, 4, 8, "SNN-ANN"},
		{FusionFlowNet, 29, 10, 19, "SNN-ANN"},
		{AdaptiveSpikeNet, 8, 8, 0, "SNN"},
		{HALSIE, 16, 3, 13, "SNN-ANN"},
		{HidalgoDepth, 15, 0, 15, "ANN"},
		{DOTIE, 1, 1, 0, "SNN"},
	}
	for _, c := range cases {
		n := MustByName(c.name)
		if len(n.Layers) != c.layers {
			t.Errorf("%s: %d layers, want %d", c.name, len(n.Layers), c.layers)
		}
		snn, ann := n.CountByDomain()
		if snn != c.snn || ann != c.ann {
			t.Errorf("%s: split %d SNN / %d ANN, want %d/%d", c.name, snn, ann, c.snn, c.ann)
		}
		if n.TypeDesc != c.typeDesc {
			t.Errorf("%s: type %q want %q", c.name, n.TypeDesc, c.typeDesc)
		}
	}
}

func TestZooValidatesAndHasWork(t *testing.T) {
	for _, name := range AllNames() {
		n := MustByName(name)
		if err := n.Validate(); err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if n.TotalMACs() <= 0 {
			t.Fatalf("%s: no MACs", n.Name)
		}
		if n.TotalParamBytes(FP32) <= 0 {
			t.Fatalf("%s: no params", n.Name)
		}
		if n.BaselineAccuracy == 0 {
			t.Fatalf("%s: no baseline accuracy", n.Name)
		}
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown network accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName did not panic")
		}
	}()
	MustByName("nope")
}

func TestLayerMACs(t *testing.T) {
	l := &Layer{
		Kind: Conv, InC: 2, InH: 8, InW: 8, OutC: 4, OutH: 8, OutW: 8,
		K: 3, Stride: 1, Pad: 1, Timesteps: 2,
	}
	want := int64(4*8*8*2*3*3) * 2
	if got := l.MACs(); got != want {
		t.Fatalf("MACs=%d want %d", got, want)
	}
	// Sparse MACs scale with density.
	full := l.SparseMACs(1.0)
	tenth := l.SparseMACs(0.1)
	if tenth >= full || tenth == 0 {
		t.Fatalf("sparse MACs not scaling: %d vs %d", tenth, full)
	}
	// Density clamping.
	if l.SparseMACs(-1) != 0 {
		t.Fatal("negative density not clamped")
	}
	if l.SparseMACs(2) != l.SparseMACs(1) {
		t.Fatal("overdense not clamped")
	}
}

func TestLayerBytes(t *testing.T) {
	l := &Layer{Kind: Conv, InC: 2, InH: 4, InW: 4, OutC: 3, OutH: 4, OutW: 4, K: 3, Stride: 1, Pad: 1, Timesteps: 1}
	if l.ParamCount() != int64(3*2*3*3+3) {
		t.Fatalf("params=%d", l.ParamCount())
	}
	if l.ParamBytes(INT8) != l.ParamCount() {
		t.Fatal("INT8 bytes != count")
	}
	if l.OutBytes(FP16) != int64(3*4*4*2) {
		t.Fatalf("out bytes=%d", l.OutBytes(FP16))
	}
}

func TestNetworkValidateCatchesBadDAG(t *testing.T) {
	n := MustByName(SpikeFlowNet)
	n.Preds[3] = []int{7} // points forward
	if err := n.Validate(); err == nil {
		t.Fatal("forward pred accepted")
	}
	n2 := MustByName(SpikeFlowNet)
	n2.Preds[3] = []int{-1}
	if err := n2.Validate(); err == nil {
		t.Fatal("negative pred accepted")
	}
	n3 := MustByName(SpikeFlowNet)
	n3.Layers[0].Timesteps = 0
	if err := n3.Validate(); err == nil {
		t.Fatal("zero timesteps accepted")
	}
	n4 := MustByName(SpikeFlowNet)
	n4.Layers[2].Kind = Deconv + 1
	if err := n4.Validate(); err == nil {
		t.Fatal("unknown layer kind accepted")
	}
	if _, err := NewRuntime(n4, SparseExec, 1, 8); err == nil {
		t.Fatal("NewRuntime built a layer of unknown kind")
	}
}

func TestSuccs(t *testing.T) {
	n := MustByName(SpikeFlowNet)
	succs := n.Succs()
	// dec3 (index 8) feeds dec4 (9) and flow_mid (10).
	if len(succs[8]) != 2 {
		t.Fatalf("dec3 succs=%v", succs[8])
	}
	// flow (11) is terminal.
	if len(succs[11]) != 0 {
		t.Fatalf("flow succs=%v", succs[11])
	}
}

func TestSNNsDominateGainProfile(t *testing.T) {
	// SNN layers must carry timesteps > 1 and sparse activations; that
	// is the precondition for the paper's "SNNs gain most" result.
	for _, name := range []string{AdaptiveSpikeNet, SpikeFlowNet} {
		n := MustByName(name)
		for _, l := range n.Layers {
			if l.Domain == SNN {
				if l.Timesteps < 2 && name != DOTIE {
					t.Errorf("%s/%s: SNN layer with %d timesteps", name, l.Name, l.Timesteps)
				}
				if l.ActDensity > 0.2 && l.Name != "flow" {
					t.Errorf("%s/%s: SNN activation density %f too high", name, l.Name, l.ActDensity)
				}
			}
		}
	}
}

func runtimeInputs(rt *Runtime, seed int64, density float64) map[int]*sparse.Tensor {
	r := rand.New(rand.NewSource(seed))
	ins := make(map[int]*sparse.Tensor)
	for _, id := range rt.InputLayerIDs() {
		c, h, w := rt.InputShape(id)
		x := sparse.NewTensor(c, h, w)
		if density >= 1 {
			x.FillRandom(r)
		} else {
			x.FillRandomSparse(r, density)
		}
		ins[id] = x
	}
	return ins
}

func TestRuntimeForwardAllNetworks(t *testing.T) {
	for _, name := range AllNames() {
		n := MustByName(name)
		rt, err := NewRuntime(n, DenseExec, 1, 8) // 32x32
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		outs, err := rt.Forward(runtimeInputs(rt, 2, 0.1))
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if len(rt.OutputLayerIDs()) == 0 {
			t.Fatalf("%s: no outputs", n.Name)
		}
		for _, id := range rt.OutputLayerIDs() {
			if outs[id].Numel() == 0 {
				t.Fatalf("%s: output %d empty", n.Name, id)
			}
		}
	}
}

func TestRuntimeSparseMatchesDense(t *testing.T) {
	n := MustByName(SpikeFlowNet)
	dense, err := NewRuntime(n, DenseExec, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewRuntime(n, SparseExec, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	ins := runtimeInputs(dense, 3, 0.05)
	a, err := dense.Forward(ins)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.Forward(ins)
	if err != nil {
		t.Fatal(err)
	}
	for id := range a {
		if d := sparse.MaxAbsDiff(a[id], b[id]); d > 1e-3 {
			t.Fatalf("layer %d (%s): sparse differs from dense by %g", id, n.Layers[id].Name, d)
		}
	}
}

// TestRuntimeParallelBitIdentical: enabling a worker pool must not
// change a single output bit — full forward passes, both exec modes,
// across every zoo network.
func TestRuntimeParallelBitIdentical(t *testing.T) {
	pool := par.New(4)
	defer pool.Close()
	for _, name := range AllNames() {
		n := MustByName(name)
		for _, mode := range []ExecMode{DenseExec, SparseExec} {
			serial, err := NewRuntime(n, mode, 31, 8)
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
			parr, err := NewRuntime(n, mode, 31, 8) // same seed, same weights
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
			parr.SetParallel(pool, 0)
			ins := runtimeInputs(serial, 13, 0.1)
			a, err := serial.Forward(ins)
			if err != nil {
				t.Fatalf("%s serial: %v", n.Name, err)
			}
			b, err := parr.Forward(ins)
			if err != nil {
				t.Fatalf("%s parallel: %v", n.Name, err)
			}
			sameBits(t, fmt.Sprintf("%s mode %d, parallel vs serial:", n.Name, mode), n, b, a)
		}
	}
}

func TestRuntimeLIFProducesSparseBoundedRates(t *testing.T) {
	n := MustByName(AdaptiveSpikeNet)
	rt, err := NewRuntime(n, DenseExec, 9, 8)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := rt.Forward(runtimeInputs(rt, 5, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	// Spike rates are in [0, 1].
	for id, o := range outs {
		for _, v := range o.Data {
			if v < 0 || v > 1.0001 {
				t.Fatalf("layer %d rate %f outside [0,1]", id, v)
			}
		}
	}
	// The first encoder's output should be sparse (not everything fires).
	if d := float64(outs[0].NNZ()) / float64(outs[0].Numel()); d > 0.9 {
		t.Fatalf("enc1 spike density %f suspiciously dense", d)
	}
}

func TestRuntimeErrors(t *testing.T) {
	n := MustByName(SpikeFlowNet)
	if _, err := NewRuntime(n, DenseExec, 1, 0); err == nil {
		t.Fatal("zero spatialDiv accepted")
	}
	rt, err := NewRuntime(n, DenseExec, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Missing input.
	if _, err := rt.Forward(map[int]*sparse.Tensor{}); err == nil {
		t.Fatal("missing input accepted")
	}
	// Wrong input shape.
	bad := sparse.NewTensor(5, 3, 3)
	if _, err := rt.Forward(map[int]*sparse.Tensor{0: bad}); err == nil {
		t.Fatal("bad input shape accepted")
	}
}

func TestRuntimeDeterminism(t *testing.T) {
	n := MustByName(DOTIE)
	run := func() *sparse.Tensor {
		rt, err := NewRuntime(n, DenseExec, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := rt.Forward(runtimeInputs(rt, 6, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		return outs[rt.OutputLayerIDs()[0]]
	}
	a, b := run(), run()
	if sparse.MaxAbsDiff(a, b) != 0 {
		t.Fatal("runtime not deterministic under fixed seed")
	}
}

func TestTaskAndMetricStrings(t *testing.T) {
	if OpticalFlow.String() == "" || SemanticSegmentation.String() == "" ||
		DepthEstimation.String() == "" || ObjectTracking.String() == "" {
		t.Fatal("task strings empty")
	}
	if !MetricAEE.LowerBetter || MetricMIOU.LowerBetter {
		t.Fatal("metric direction wrong")
	}
	l := MustByName(DOTIE).Layers[0]
	if l.String() == "" || l.Kind.String() == "" || l.Domain.String() == "" {
		t.Fatal("layer strings empty")
	}
}

// referenceForward is Forward as it was before the site-list runtime:
// a fresh tensor per layer, full-volume kernels, LIF with the timestep
// loop outermost over v/rate tensors, and an allocating channel
// concat. It is the definition the runtime must match bit for bit.
func referenceForward(rt *Runtime, inputs map[int]*sparse.Tensor) (map[int]*sparse.Tensor, error) {
	conv := func(i int, in *sparse.Tensor) (*sparse.Tensor, error) {
		f := rt.layers[i].filter
		oh, ow := f.OutShape(in.H, in.W)
		out := sparse.NewTensor(f.OutC, oh, ow)
		if rt.Mode == SparseExec {
			return out, sparse.SparseConv2DInto(out, in, f)
		}
		return out, sparse.Conv2DInto(out, in, f)
	}
	outs := make(map[int]*sparse.Tensor, len(rt.Net.Layers))
	for i, l := range rt.Net.Layers {
		var in *sparse.Tensor
		switch preds := rt.Net.Preds[i]; len(preds) {
		case 0:
			in = inputs[i]
		case 1:
			in = outs[preds[0]]
		default:
			c := 0
			for _, p := range preds {
				c += outs[p].C
			}
			in = sparse.NewTensor(c, outs[preds[0]].H, outs[preds[0]].W)
			off := 0
			for _, p := range preds {
				off += copy(in.Data[off:], outs[p].Data)
			}
		}
		drive, err := conv(i, in)
		if err != nil {
			return nil, err
		}
		if l.Domain != SNN {
			outs[i] = drive.ReLU()
			continue
		}
		v := sparse.NewTensor(drive.C, drive.H, drive.W)
		rate := sparse.NewTensor(drive.C, drive.H, drive.W)
		T := l.Timesteps
		for t := 0; t < T; t++ {
			for i := range v.Data {
				v.Data[i] = v.Data[i]*rt.Leak + drive.Data[i]
				if v.Data[i] >= rt.VThresh {
					rate.Data[i]++
					v.Data[i] -= rt.VThresh
				}
			}
		}
		s := 1 / float32(T)
		for i := range rate.Data {
			rate.Data[i] *= s
		}
		outs[i] = rate
	}
	return outs, nil
}

func sameBits(t *testing.T, tag string, net *Network, got, want map[int]*sparse.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d layer outputs, want %d", tag, len(got), len(want))
	}
	for id, w := range want {
		g := got[id]
		if g.C != w.C || g.H != w.H || g.W != w.W {
			t.Fatalf("%s layer %s: shape %dx%dx%d, want %dx%dx%d", tag, net.Layers[id].Name, g.C, g.H, g.W, w.C, w.H, w.W)
		}
		for i := range w.Data {
			if math.Float32bits(g.Data[i]) != math.Float32bits(w.Data[i]) {
				t.Fatalf("%s layer %s elem %d: %g, reference %g", tag, net.Layers[id].Name, i, g.Data[i], w.Data[i])
			}
		}
	}
}

// TestRuntimeMatchesReference: every layer of every zoo network, both
// exec modes, at input densities from empty to full, is bit-identical
// to referenceForward — on ONE runtime per network, so each frame meets
// whatever the previous one left in the layer outputs: a full frame
// followed by an empty one must come out all zero, and a frame run in
// one mode must not leak into the next frame run in the other (Mode is
// an exported field). The worker pool is toggled between calls as the
// benchmark does.
func TestRuntimeMatchesReference(t *testing.T) {
	pool := par.New(3)
	defer pool.Close()
	type step struct {
		mode    ExecMode
		density float64
	}
	var steps []step
	for _, mode := range []ExecMode{DenseExec, SparseExec} {
		for _, d := range []float64{0, 0.004, 0.1, 1.0, 0} {
			steps = append(steps, step{mode, d})
		}
	}
	steps = append(steps, step{DenseExec, 0.1}, step{SparseExec, 0.3}, step{SparseExec, 0})
	div := 8 // 32x32 inputs
	if raceEnabled {
		div = 16 // instrumented dense loops are ~15x slower
	}
	for _, name := range AllNames() {
		n := MustByName(name)
		rt, err := NewRuntime(n, DenseExec, 17, div)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		var first *sparse.Tensor
		for k, s := range steps {
			rt.Mode = s.mode
			if k%2 == 1 {
				rt.SetParallel(pool, 0)
			} else {
				rt.SetParallel(nil, 1)
			}
			ins := runtimeInputs(rt, int64(40+k), s.density)
			want, err := referenceForward(rt, ins)
			if err != nil {
				t.Fatalf("%s reference: %v", n.Name, err)
			}
			got, err := rt.Forward(ins)
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
			tag := fmt.Sprintf("%s step %d (mode %d, density %g)", n.Name, k, s.mode, s.density)
			sameBits(t, tag, n, got, want)
			if k == 0 {
				first = got[0]
			} else if got[0] != first {
				t.Fatalf("%s: Forward returned a different tensor for layer 0", tag)
			}
			if s.density == 0 {
				for id, o := range got {
					if o.NNZ() != 0 {
						t.Fatalf("%s: empty frame left %d nonzeros in layer %s", tag, o.NNZ(), n.Layers[id].Name)
					}
				}
			}
		}
	}
}

// TestRuntimeForwardZeroAlloc is the allocation gate of the numeric
// runtime: once a runtime has seen its largest frame, SparseExec
// Forward allocates nothing — serial or on a worker pool.
func TestRuntimeForwardZeroAlloc(t *testing.T) {
	pool := par.New(2)
	defer pool.Close()
	for _, name := range []string{SpikeFlowNet, AdaptiveSpikeNet, DOTIE, HALSIE} {
		rt, err := NewRuntime(MustByName(name), SparseExec, 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		warm := runtimeInputs(rt, 1, 1.0)
		ins := runtimeInputs(rt, 2, 0.05)
		for _, p := range []*par.Pool{nil, pool} {
			rt.SetParallel(p, 0)
			// The full frame sizes the runtime's lists.
			for _, x := range []map[int]*sparse.Tensor{warm, ins} {
				if _, err := rt.Forward(x); err != nil {
					t.Fatal(err)
				}
			}
			// The pool allocates a dispatch record whenever a worker still
			// holds the last ones; it owns at most 4*width+1, so a Forward
			// that allocates nothing itself reads zero within that many
			// measurements, and one that does never will.
			var avg float64
			for try := 0; try <= 4*pool.Size()+1; try++ {
				avg = testing.AllocsPerRun(10, func() {
					if _, err := rt.Forward(ins); err != nil {
						t.Fatal(err)
					}
				})
				if avg == 0 {
					break
				}
			}
			if raceEnabled {
				t.Logf("race build: %s measured %.2f allocs/op (bound not enforced)", name, avg)
				continue
			}
			if avg != 0 {
				t.Fatalf("%s (pool width %d): warm Forward allocates %.2f times per call, want 0", name, p.Size(), avg)
			}
		}
	}
}

// BenchmarkForwardSparseExec is the two ends of the property the site
// path rests on: a frame as sparse as E2SF's, and a fully dense frame
// through the same SparseExec runtime (which must not lose to the
// full-volume scatter it replaced).
func BenchmarkForwardSparseExec(b *testing.B) {
	for _, bc := range []struct {
		name    string
		density float64
	}{{"density=0.005", 0.005}, {"density=1", 1.0}} {
		b.Run(bc.name, func(b *testing.B) {
			rt, err := NewRuntime(MustByName(SpikeFlowNet), SparseExec, 7, 2)
			if err != nil {
				b.Fatal(err)
			}
			ins := runtimeInputs(rt, 9, bc.density)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Forward(ins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
