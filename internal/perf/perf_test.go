package perf

import (
	"testing"

	"evedge/internal/hw"
	"evedge/internal/nn"
)

func model() *Model { return NewModel(hw.Xavier()) }

func bigConv() *nn.Layer {
	return &nn.Layer{
		Name: "conv", Kind: nn.Conv, Domain: nn.ANN,
		InC: 64, InH: 64, InW: 64, OutC: 128, OutH: 64, OutW: 64,
		K: 3, Stride: 1, Pad: 1, Timesteps: 1, ActDensity: 0.5,
	}
}

func snnConv() *nn.Layer {
	l := bigConv()
	l.Domain = nn.SNN
	l.Timesteps = 4
	return l
}

func TestUnsupportedPrecisionRejected(t *testing.T) {
	m := model()
	dla := m.Platform().MustDevice("DLA0")
	if _, err := m.LayerTimeUS(bigConv(), dla, nn.FP32, ExecOpts{}); err == nil {
		t.Fatal("DLA FP32 accepted")
	}
}

func TestDenseTimeOrderings(t *testing.T) {
	m := model()
	l := bigConv()
	gpu := m.Platform().MustDevice("GPU")
	cpu := m.Platform().MustDevice("CPU")

	tGPU32, err := m.LayerTimeUS(l, gpu, nn.FP32, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tGPU8, _ := m.LayerTimeUS(l, gpu, nn.INT8, ExecOpts{})
	tCPU32, _ := m.LayerTimeUS(l, cpu, nn.FP32, ExecOpts{})

	if !(tGPU8 < tGPU32) {
		t.Fatalf("INT8 (%f) should beat FP32 (%f) on GPU", tGPU8, tGPU32)
	}
	if !(tGPU32 < tCPU32) {
		t.Fatalf("GPU (%f) should beat CPU (%f) on a large conv", tGPU32, tCPU32)
	}
}

func TestSparsePathWins_WhenSparseEnough(t *testing.T) {
	m := model()
	l := bigConv()
	gpu := m.Platform().MustDevice("GPU")
	dense, _ := m.LayerTimeUS(l, gpu, nn.FP16, ExecOpts{})
	sparse5, _ := m.LayerTimeUS(l, gpu, nn.FP16, ExecOpts{Sparse: true, InputDensity: 0.05})
	sparse90, _ := m.LayerTimeUS(l, gpu, nn.FP16, ExecOpts{Sparse: true, InputDensity: 0.90})
	if !(sparse5 < dense) {
		t.Fatalf("5%% density sparse (%f) should beat dense (%f)", sparse5, dense)
	}
	// Near-dense input: the derated sparse path loses, which is why
	// the encode/decode detour is unattractive without E2SF.
	if !(sparse90 > dense) {
		t.Fatalf("90%% density sparse (%f) should lose to dense (%f)", sparse90, dense)
	}
}

func TestSNNTimestepPenalty(t *testing.T) {
	m := model()
	gpu := m.Platform().MustDevice("GPU")
	ann, _ := m.LayerTimeUS(bigConv(), gpu, nn.FP16, ExecOpts{})
	snn, _ := m.LayerTimeUS(snnConv(), gpu, nn.FP16, ExecOpts{})
	// Same dense MACs per step but 4 steps plus per-step overheads and
	// lower per-step utilization: clearly slower than 4x … wait, the
	// SNN layer has 4x the MACs (4 steps), so it must be > 4x slower
	// than the ANN layer due to serialization overheads.
	if snn < 4*ann {
		t.Fatalf("SNN 4-step conv (%f) should exceed 4x ANN conv (%f)", snn, 4*ann)
	}
}

func TestBatchingImprovesPerFrameTime(t *testing.T) {
	m := model()
	gpu := m.Platform().MustDevice("GPU")
	// A small sparse kernel underutilizes the GPU; batching 8 frames
	// amortizes launch overhead and lifts utilization.
	small := &nn.Layer{
		Name: "small", Kind: nn.Conv, Domain: nn.ANN,
		InC: 2, InH: 256, InW: 256, OutC: 16, OutH: 128, OutW: 128,
		K: 3, Stride: 2, Pad: 1, Timesteps: 1, ActDensity: 0.5,
	}
	one, _ := m.LayerTimeUS(small, gpu, nn.FP16, ExecOpts{Sparse: true, InputDensity: 0.03})
	eight, _ := m.LayerTimeUS(small, gpu, nn.FP16, ExecOpts{Sparse: true, InputDensity: 0.03, Batch: 8})
	perFrameBatched := eight / 8
	if !(perFrameBatched < one) {
		t.Fatalf("batched per-frame %f should beat single %f", perFrameBatched, one)
	}
}

func TestFramingOverheadCharges(t *testing.T) {
	m := model()
	gpu := m.Platform().MustDevice("GPU")
	l := bigConv()
	plain, _ := m.LayerTimeUS(l, gpu, nn.FP16, ExecOpts{})
	withFraming, _ := m.LayerTimeUS(l, gpu, nn.FP16, ExecOpts{FramingOverheadOps: 2 * 346 * 260})
	if !(withFraming > plain) {
		t.Fatal("framing overhead not charged")
	}
}

func TestCommModel(t *testing.T) {
	m := model()
	gpu := m.Platform().MustDevice("GPU")
	dla := m.Platform().MustDevice("DLA0")
	l := bigConv()
	if m.CommUS(l, gpu, gpu, nn.FP16) != 0 {
		t.Fatal("same-device comm should be free")
	}
	c16 := m.CommUS(l, gpu, dla, nn.FP16)
	c32 := m.CommUS(l, gpu, dla, nn.FP32)
	if !(c16 < c32) {
		t.Fatal("FP16 transfers should be cheaper than FP32")
	}
	if c16 <= m.Platform().Link.LatencyUS {
		t.Fatal("transfer must include volume term")
	}
	// Sparse input frames ship fewer bytes at low density.
	inSparse := m.InputCommUS(l, true, 0.02, nn.FP16)
	inDense := m.InputCommUS(l, false, 0.02, nn.FP16)
	if !(inSparse < inDense) {
		t.Fatalf("sparse input comm %f should beat dense %f", inSparse, inDense)
	}
}

func TestNetworkTimeAndSNNGainShape(t *testing.T) {
	m := model()
	gpu := m.Platform().MustDevice("GPU")
	// Dense baseline vs sparse path, per network: the sparse gain for
	// the all-SNN network should exceed the all-ANN network's (the
	// paper's "SNNs achieve the highest performance improvements").
	gain := func(name string, density float64) float64 {
		net := nn.MustByName(name)
		dense, err := m.NetworkTimeUS(net, gpu, nn.FP32, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := m.NetworkTimeUS(net, gpu, nn.FP32, ExecOpts{Sparse: true, InputDensity: density})
		if err != nil {
			t.Fatal(err)
		}
		return dense / sp
	}
	snnGain := gain(nn.AdaptiveSpikeNet, 0.01)
	annGain := gain(nn.HidalgoDepth, 0.10)
	if snnGain <= annGain {
		t.Fatalf("SNN sparse gain %f should exceed ANN gain %f", snnGain, annGain)
	}
	if snnGain < 1.1 {
		t.Fatalf("SNN sparse gain %f implausibly low", snnGain)
	}
}

func TestBuildProfileDB(t *testing.T) {
	m := model()
	nets := []*nn.Network{nn.MustByName(nn.DOTIE), nn.MustByName(nn.SpikeFlowNet)}
	db, err := BuildProfileDB(m, nets, true, []float64{0.02, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// DOTIE(1 layer) + SpikeFlowNet(12): layers x supported (dev,prec)
	// combos: CPU 3 + GPU 3 + DLA 2 + DLA 2 = 10 per layer.
	if want := (1 + 12) * 10; db.Len() != want {
		t.Fatalf("entries=%d want %d", db.Len(), want)
	}
	// Lookup works and respects support.
	if _, ok := db.TimeUS(LayerRef{Task: 0, Layer: 0}, 2, nn.FP32); ok {
		t.Fatal("DLA FP32 entry exists")
	}
	tm, ok := db.TimeUS(LayerRef{Task: 1, Layer: 3}, 1, nn.INT8)
	if !ok || tm <= 0 {
		t.Fatalf("missing GPU INT8 time (%f, %v)", tm, ok)
	}
	// Later layers are profiled at their producers' activation density.
	if d := producerDensity(nets[1], 5); d != 0.5 {
		t.Fatalf("mid-layer density %f", d)
	}
	rows := db.Rows()
	if len(rows) != db.Len() {
		t.Fatal("rows incomplete")
	}
	if rows[0].Network != "DOTIE" {
		t.Fatalf("rows not sorted: %+v", rows[0])
	}
	// Density list length mismatch rejected.
	if _, err := BuildProfileDB(m, nets, true, []float64{0.5}); err == nil {
		t.Fatal("bad density list accepted")
	}
	if len(db.Networks()) != 2 || db.Platform() == nil {
		t.Fatal("accessors wrong")
	}
}
