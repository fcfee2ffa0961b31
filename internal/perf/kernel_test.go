package perf

import (
	"testing"

	"evedge/internal/hw"
	"evedge/internal/nn"
)

// TestProfileDBBestKernel verifies the TensorRT-style tactic
// selection: every best-kernel profile entry equals the minimum of the
// dense and sparse kernel times at the profiled density.
func TestProfileDBBestKernel(t *testing.T) {
	platform := hw.Xavier()
	m := NewModel(platform)
	net := nn.MustByName(nn.SpikeFlowNet)
	db, err := BuildProfileDB(m, []*nn.Network{net}, true, []float64{0.02})
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range net.Layers {
		ref := LayerRef{Task: 0, Layer: li}
		den := 0.02 // the input density; later layers see their producers'
		if len(net.Preds[li]) > 0 {
			den = producerDensity(net, li)
		}
		for _, dev := range platform.Devices {
			for _, p := range dev.Precisions() {
				got, ok := db.TimeUS(ref, dev.ID, p)
				if !ok {
					t.Fatalf("missing entry %s/%s/%v", l.Name, dev.Name, p)
				}
				dense, err := m.LayerTimeUS(l, dev, p, ExecOpts{})
				if err != nil {
					t.Fatal(err)
				}
				sp, err := m.LayerTimeUS(l, dev, p, ExecOpts{Sparse: true, InputDensity: den})
				if err != nil {
					t.Fatal(err)
				}
				want := dense
				if sp < want {
					want = sp
				}
				if got != want {
					t.Fatalf("%s/%s/%v: profiled %f, min(dense %f, sparse %f)",
						l.Name, dev.Name, p, got, dense, sp)
				}
			}
		}
	}
	// Dense-only profiling never picks the sparse kernel.
	dbDense, err := BuildProfileDB(m, []*nn.Network{net}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	gpu := platform.MustDevice("GPU")
	for li, l := range net.Layers {
		got, _ := dbDense.TimeUS(LayerRef{Task: 0, Layer: li}, gpu.ID, nn.FP16)
		dense, _ := m.LayerTimeUS(l, gpu, nn.FP16, ExecOpts{})
		if got != dense {
			t.Fatalf("%s: dense profile %f != dense kernel %f", l.Name, got, dense)
		}
	}
}

// TestSparseWinsWhereExpected pins the kernel-selection boundary: at
// event densities the sparse kernel wins on the GPU, at ANN activation
// densities the dense kernel wins, and on the DLA dense always wins.
func TestSparseWinsWhereExpected(t *testing.T) {
	platform := hw.Xavier()
	m := NewModel(platform)
	gpu := platform.MustDevice("GPU")
	dla := platform.MustDevice("DLA0")
	l := &nn.Layer{
		Name: "conv", Kind: nn.Conv, Domain: nn.ANN,
		InC: 32, InH: 128, InW: 128, OutC: 64, OutH: 128, OutW: 128,
		K: 3, Stride: 1, Pad: 1, Timesteps: 1, ActDensity: 0.5,
	}
	timeAt := func(dev *hw.Device, sparse bool, den float64) float64 {
		v, err := m.LayerTimeUS(l, dev, nn.FP16, ExecOpts{Sparse: sparse, InputDensity: den})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if !(timeAt(gpu, true, 0.02) < timeAt(gpu, false, 0)) {
		t.Fatal("sparse should win at 2% density on GPU")
	}
	if !(timeAt(gpu, true, 0.5) > timeAt(gpu, false, 0)) {
		t.Fatal("dense should win at 50% density on GPU")
	}
	// The DLA's huge sparse overhead makes dense win at SNN activation
	// densities (>= ~5%), which is what keeps spiking layers off the
	// DLAs in the searched mappings.
	if !(timeAt(dla, true, 0.10) > timeAt(dla, false, 0)) {
		t.Fatal("DLA should prefer dense at SNN activation density")
	}
	// The GPU's break-even sits far higher than the DLA's.
	if !(timeAt(gpu, true, 0.10) < timeAt(gpu, false, 0)) {
		t.Fatal("GPU should still prefer sparse at 10% density")
	}
}
