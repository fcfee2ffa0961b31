package hw

import (
	"math"
	"testing"

	"evedge/internal/nn"
)

func TestXavierShape(t *testing.T) {
	p := Xavier()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Devices) != 4 {
		t.Fatalf("devices=%d", len(p.Devices))
	}
	gpu := p.MustDevice("GPU")
	if gpu.Kind != GPU {
		t.Fatal("GPU kind wrong")
	}
	for _, name := range []string{"DLA0", "DLA1"} {
		d := p.MustDevice(name)
		if d.Supports(nn.FP32) {
			t.Fatalf("%s must not support FP32", name)
		}
		if !d.Supports(nn.INT8) || !d.Supports(nn.FP16) {
			t.Fatalf("%s must support FP16+INT8", name)
		}
	}
	cpu := p.MustDevice("CPU")
	if !cpu.Supports(nn.FP32) {
		t.Fatal("CPU must support FP32")
	}
	// Performance ordering: GPU fastest, CPU slowest, DLA between.
	if !(gpu.PeakMACs[nn.FP16] > p.MustDevice("DLA0").PeakMACs[nn.FP16]) {
		t.Fatal("GPU should outrun DLA at FP16")
	}
	if !(p.MustDevice("DLA0").PeakMACs[nn.FP16] > cpu.PeakMACs[nn.FP16]) {
		t.Fatal("DLA should outrun CPU")
	}
	// Power ordering: GPU hungriest, DLA most efficient accelerator.
	if !(gpu.ActiveWatts > p.MustDevice("DLA0").ActiveWatts) {
		t.Fatal("GPU should draw more than DLA")
	}
	if _, err := p.Device("TPU"); err == nil {
		t.Fatal("unknown device accepted")
	}
	if p.GPUDevice() != gpu {
		t.Fatal("GPUDevice wrong")
	}
}

func TestDevicePrecisionHelpers(t *testing.T) {
	p := Xavier()
	gpu := p.MustDevice("GPU")
	if gpu.BestPrecision() != nn.INT8 {
		t.Fatalf("GPU best=%v", gpu.BestPrecision())
	}
	if gpu.FullPrecision() != nn.FP32 {
		t.Fatalf("GPU full=%v", gpu.FullPrecision())
	}
	dla := p.MustDevice("DLA0")
	if dla.FullPrecision() != nn.FP16 {
		t.Fatalf("DLA full=%v", dla.FullPrecision())
	}
	ps := gpu.Precisions()
	if len(ps) != 3 || ps[0] != nn.FP32 || ps[2] != nn.INT8 {
		t.Fatalf("precisions=%v", ps)
	}
}

func TestLinkTransfer(t *testing.T) {
	l := Link{BandwidthBps: 1e9, LatencyUS: 10}
	if l.TransferUS(0) != 0 {
		t.Fatal("zero bytes should be free")
	}
	// 1 MB at 1 GB/s = 1000 us + 10 us latency.
	got := l.TransferUS(1_000_000)
	if math.Abs(got-1010) > 1e-6 {
		t.Fatalf("transfer=%f", got)
	}
}

func TestEngineFIFOAndDeps(t *testing.T) {
	p := Xavier()
	e := NewEngine(p, true)
	gpu := p.MustDevice("GPU")
	dla := p.MustDevice("DLA0")

	// Two ops on GPU: second queues behind first even if ready earlier.
	s1, e1 := e.Submit(gpu, 0, 100, "a")
	if s1 != 0 || e1 != 100 {
		t.Fatalf("span1 [%f,%f]", s1, e1)
	}
	s2, e2 := e.Submit(gpu, 20, 50, "b")
	if s2 != 100 || e2 != 150 {
		t.Fatalf("span2 [%f,%f]: FIFO violated", s2, e2)
	}
	// Dependency start honored on an idle device.
	s3, _ := e.Submit(dla, 400, 10, "c")
	if s3 != 400 {
		t.Fatalf("span3 start=%f", s3)
	}
	if e.Makespan() != 410 {
		t.Fatalf("makespan=%f", e.Makespan())
	}
	if e.BusyTime(gpu) != 150 || e.BusyTime(dla) != 10 {
		t.Fatal("busy accounting wrong")
	}
	tl := e.Timeline()
	if len(tl) != 3 || tl[0].Tag != "a" || tl[2].Tag != "c" {
		t.Fatalf("timeline=%v", tl)
	}
	e.Reset()
	if e.Makespan() != 0 || len(e.Timeline()) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestEngineEnergy(t *testing.T) {
	p := Xavier()
	e := NewEngine(p, false)
	gpu := p.MustDevice("GPU")
	e.Submit(gpu, 0, 1_000_000, "burn") // 1 second on GPU
	j := e.EnergyJoules(0)
	// GPU 20W for 1s + everything else idle for 1s.
	wantIdle := 1.5 + 0.5 + 0.5 // CPU + 2xDLA idle
	want := 20.0 + wantIdle
	if math.Abs(j-want) > 1e-6 {
		t.Fatalf("energy=%f want %f", j, want)
	}
	// Longer horizon adds idle time everywhere.
	j2 := e.EnergyJoules(2_000_000)
	if j2 <= j {
		t.Fatal("longer horizon must cost more")
	}
}

func TestEnginePanicsOnNegativeDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewEngine(Xavier(), false).Submit(Xavier().MustDevice("CPU"), 0, -1, "bad")
}

func TestValidateCatchesBadPlatforms(t *testing.T) {
	bad := []*Platform{
		{Name: "empty"},
		{Name: "dupe", Devices: []*Device{
			{ID: 0, Name: "A", PeakMACs: map[nn.Precision]float64{nn.FP32: 1}, SparseEff: 1, SaturationSites: 1},
			{ID: 1, Name: "A", PeakMACs: map[nn.Precision]float64{nn.FP32: 1}, SparseEff: 1, SaturationSites: 1},
		}, Link: Link{BandwidthBps: 1}},
		{Name: "noprec", Devices: []*Device{
			{ID: 0, Name: "A", SparseEff: 1, SaturationSites: 1},
		}, Link: Link{BandwidthBps: 1}},
		{Name: "badlink", Devices: []*Device{
			{ID: 0, Name: "A", PeakMACs: map[nn.Precision]float64{nn.FP32: 1}, SparseEff: 1, SaturationSites: 1},
		}},
		{Name: "badid", Devices: []*Device{
			{ID: 5, Name: "A", PeakMACs: map[nn.Precision]float64{nn.FP32: 1}, SparseEff: 1, SaturationSites: 1},
		}, Link: Link{BandwidthBps: 1}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("platform %q accepted", p.Name)
		}
	}
}
