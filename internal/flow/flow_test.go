package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"evedge/internal/scene"
	"evedge/internal/sparse"
)

func constantField(w, h int, u, v float32) *scene.FlowField {
	f := scene.NewFlowField(w, h)
	for i := range f.U {
		f.U[i], f.V[i] = u, v
	}
	return f
}

func TestAEE(t *testing.T) {
	gt := constantField(8, 8, 3, 4)
	if aee, err := AEE(gt, gt); err != nil || aee != 0 {
		t.Fatalf("self AEE=%f err=%v", aee, err)
	}
	pred := constantField(8, 8, 0, 0)
	aee, err := AEE(pred, gt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(aee-5) > 1e-6 { // ||(3,4)|| = 5
		t.Fatalf("AEE=%f want 5", aee)
	}
	if _, err := AEE(constantField(4, 4, 0, 0), gt); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestMaskedAEE(t *testing.T) {
	gt := scene.NewFlowField(4, 4)
	pred := scene.NewFlowField(4, 4)
	// Error only at (1,1): endpoint error 2.
	pred.U[1*4+1] = 2
	frame := sparse.NewFrame(4, 4, 0, 1)
	frame.Set(1, 1, 1, 0)
	aee, err := MaskedAEE(pred, gt, frame)
	if err != nil {
		t.Fatal(err)
	}
	if aee != 2 {
		t.Fatalf("masked AEE=%f want 2", aee)
	}
	// Mask away the error: evaluate a clean pixel instead.
	frame2 := sparse.NewFrame(4, 4, 0, 1)
	frame2.Set(3, 3, 1, 0)
	aee2, _ := MaskedAEE(pred, gt, frame2)
	if aee2 != 0 {
		t.Fatalf("masked AEE=%f want 0", aee2)
	}
	empty := sparse.NewFrame(4, 4, 0, 1)
	if _, err := MaskedAEE(pred, gt, empty); err == nil {
		t.Fatal("empty mask accepted")
	}
	if _, err := MaskedAEE(pred, gt, sparse.NewFrame(2, 2, 0, 1)); err == nil {
		t.Fatal("mismatched frame accepted")
	}
}

func TestGroundTruthFlowPureTranslation(t *testing.T) {
	// A camera translating at constant velocity produces uniform flow
	// equal to minus the warp displacement over dt.
	wd := &scene.World{Path: &scene.SmoothPath{VX: 100, VY: -50}} // px/s
	gt := wd.GroundTruthFlow(32, 24, 0, 10_000)                   // dt = 10 ms
	u, v := flowAt(gt, 16, 12)
	// Texture moves +1 px in u per 10ms => scene appears to move -1 px.
	if math.Abs(float64(u)+1) > 1e-3 || math.Abs(float64(v)-0.5) > 1e-3 {
		t.Fatalf("flow=(%f,%f) want (-1, 0.5)", u, v)
	}
	// Uniform across the frame for pure translation.
	u2, v2 := flowAt(gt, 0, 0)
	if math.Abs(float64(u-u2)) > 1e-3 || math.Abs(float64(v-v2)) > 1e-3 {
		t.Fatal("translation flow not uniform")
	}
	if gt.MeanMagnitude() <= 0 {
		t.Fatal("zero mean magnitude")
	}
}

func TestGroundTruthFlowBlobOverride(t *testing.T) {
	wd := &scene.World{
		Path:  &scene.SmoothPath{},
		Blobs: []scene.Blob{{CX: 16, CY: 16, VX: 200, VY: 0, Radius: 3}},
	}
	gt := wd.GroundTruthFlow(32, 32, 0, 10_000)
	// Inside the blob: 2 px per 10 ms.
	u, _ := flowAt(gt, 16, 16)
	if math.Abs(float64(u)-2) > 1e-3 {
		t.Fatalf("blob flow u=%f want 2", u)
	}
	// Far away: static background.
	u2, v2 := flowAt(gt, 2, 2)
	if u2 != 0 || v2 != 0 {
		t.Fatalf("background moving: (%f,%f)", u2, v2)
	}
}

func TestGroundTruthFlowRotation(t *testing.T) {
	// Pure rotation: flow magnitude grows with radius, zero at center.
	wd := &scene.World{Path: &scene.SmoothPath{RotAmp: 0.2, RotFreq: 1}}
	gt := wd.GroundTruthFlow(64, 64, 0, 50_000)
	cu, cv := flowAt(gt, 32, 32)
	if math.Hypot(float64(cu), float64(cv)) > 0.05 {
		t.Fatalf("center flow (%f,%f) should be ~0", cu, cv)
	}
	eu, ev := flowAt(gt, 62, 32)
	if math.Hypot(float64(eu), float64(ev)) < 0.2 {
		t.Fatalf("edge flow (%f,%f) too small under rotation", eu, ev)
	}
}

// Property: AEE is a metric-like quantity — non-negative, zero iff
// fields match, symmetric.
func TestAEEProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := scene.NewFlowField(8, 8)
		b := scene.NewFlowField(8, 8)
		for i := range a.U {
			a.U[i], a.V[i] = r.Float32()*4-2, r.Float32()*4-2
			b.U[i], b.V[i] = r.Float32()*4-2, r.Float32()*4-2
		}
		ab, err1 := AEE(a, b)
		ba, err2 := AEE(b, a)
		aa, err3 := AEE(a, a)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return ab >= 0 && math.Abs(ab-ba) < 1e-9 && aa == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// flowAt returns the flow vector of f at (x, y).
func flowAt(f *scene.FlowField, x, y int) (u, v float32) {
	return f.U[y*f.W+x], f.V[y*f.W+x]
}
