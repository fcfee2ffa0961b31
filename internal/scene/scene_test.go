package scene

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"evedge/internal/events"
)

// validStream reports the first event of s that lies outside its
// sensor, carries no legal polarity or precedes the event before it.
func validStream(s *events.Stream) error {
	for i, e := range s.Events {
		switch {
		case int(e.X) >= s.Width || int(e.Y) >= s.Height:
			return fmt.Errorf("event %d at (%d,%d) on a %dx%d sensor", i, e.X, e.Y, s.Width, s.Height)
		case !e.Pol.Valid():
			return fmt.Errorf("event %d has polarity %d", i, e.Pol)
		case i > 0 && e.TS < s.Events[i-1].TS:
			return fmt.Errorf("event %d at %dus after %dus", i, e.TS, s.Events[i-1].TS)
		}
	}
	return nil
}

// rampRenderer brightens the whole frame linearly with time.
type rampRenderer struct{ rate float64 } // luminance per second

func (r *rampRenderer) Render(dst []float32, w, h int, tUS int64) {
	v := float32(0.2 + r.rate*float64(tUS)*1e-6)
	if v > 1 {
		v = 1
	}
	for i := range dst {
		dst[i] = v
	}
}

func testConfig(w, h int) Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = w, h
	cfg.NoiseHz = 0
	cfg.RefractoryUS = 0
	return cfg
}

func TestCameraValidation(t *testing.T) {
	if _, err := NewCamera(Config{Width: 0, Height: 1, Theta: 0.1, StepUS: 1}, &rampRenderer{}); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewCamera(Config{Width: 1, Height: 1, Theta: 0, StepUS: 1}, &rampRenderer{}); err == nil {
		t.Fatal("zero theta accepted")
	}
	if _, err := NewCamera(Config{Width: 1, Height: 1, Theta: 0.1, StepUS: 0}, &rampRenderer{}); err == nil {
		t.Fatal("zero step accepted")
	}
	cam, err := NewCamera(testConfig(4, 4), &rampRenderer{rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cam.Run(10, 10); err == nil {
		t.Fatal("empty interval accepted")
	}
}

func TestBrighteningEmitsOnEvents(t *testing.T) {
	cfg := testConfig(8, 8)
	cam, err := NewCamera(cfg, &rampRenderer{rate: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cam.Run(0, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() == 0 {
		t.Fatal("no events from a brightening scene")
	}
	if err := validStream(s); err != nil {
		t.Fatal(err)
	}
	on, off := s.CountByPolarity()
	if off != 0 {
		t.Fatalf("brightening scene produced %d OFF events", off)
	}
	if on < 8*8 {
		t.Fatalf("expected every pixel to fire, got %d events", on)
	}
}

func TestDimmingEmitsOffEvents(t *testing.T) {
	cfg := testConfig(8, 8)
	cam, err := NewCamera(cfg, &rampRenderer{rate: -1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Start bright: the ramp renderer at negative rate dims from 0.2
	// downward immediately, so use a custom start offset via a wrapper.
	s, err := cam.Run(0, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	on, _ := s.CountByPolarity()
	if on != 0 {
		t.Fatalf("dimming scene produced %d ON events", on)
	}
}

func TestStaticSceneIsQuiet(t *testing.T) {
	cfg := testConfig(16, 16)
	cam, err := NewCamera(cfg, &rampRenderer{rate: 0})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cam.Run(0, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("static noiseless scene produced %d events", s.Len())
	}
}

func TestNoiseOnlyRateIsPlausible(t *testing.T) {
	cfg := testConfig(32, 32)
	cfg.NoiseHz = 10 // 10 Hz per pixel
	cam, err := NewCamera(cfg, &rampRenderer{rate: 0})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cam.Run(0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0 * 32 * 32 // expected events in 1 s
	got := float64(s.Len())
	if got < want*0.7 || got > want*1.3 {
		t.Fatalf("noise events=%v want about %v", got, want)
	}
	if err := validStream(s); err != nil {
		t.Fatal(err)
	}
}

func TestEventCountScalesWithContrast(t *testing.T) {
	run := func(rate float64) int {
		cfg := testConfig(8, 8)
		cam, err := NewCamera(cfg, &rampRenderer{rate: rate})
		if err != nil {
			t.Fatal(err)
		}
		s, err := cam.Run(0, 400_000)
		if err != nil {
			t.Fatal(err)
		}
		return s.Len()
	}
	slow, fast := run(0.5), run(1.5)
	if fast <= slow {
		t.Fatalf("faster brightening should emit more events: %d vs %d", fast, slow)
	}
}

func TestPoisson(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, lambda := range []float64{0, 0.5, 3, 50} {
		n := 2000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(poisson(r, lambda))
		}
		mean := sum / float64(n)
		if math.Abs(mean-lambda) > 0.15*lambda+0.1 {
			t.Fatalf("lambda=%v mean=%v", lambda, mean)
		}
	}
}

func TestTextureSample(t *testing.T) {
	tex := NewTexture(32, 32, 0.5, 9)
	for _, v := range tex.Data {
		if v < 0.02 || v > 1 {
			t.Fatalf("texture value %f out of range", v)
		}
	}
	// Wraparound: sampling at x and x+W must agree.
	a := tex.Sample(5.3, 7.9)
	b := tex.Sample(5.3+32, 7.9-32)
	if math.Abs(float64(a-b)) > 1e-6 {
		t.Fatalf("wraparound broken: %f vs %f", a, b)
	}
	// Integer sampling returns the exact texel.
	if tex.Sample(3, 4) != tex.Data[4*32+3] {
		t.Fatal("integer sample not exact")
	}
}

func TestSmoothPathBurstsContinuity(t *testing.T) {
	p := &SmoothPath{VX: 10, Bursts: []Burst{{T0: 1_000_000, T1: 2_000_000, Gain: 5}}}
	// Position is continuous across the burst boundary.
	before := p.At(999_999).TX
	at := p.At(1_000_001).TX
	if math.Abs(at-before) > 0.01 {
		t.Fatalf("discontinuity at burst start: %f -> %f", before, at)
	}
	// Velocity during the burst is higher.
	v1 := p.At(1_500_000).TX - p.At(1_400_000).TX
	v0 := p.At(500_000).TX - p.At(400_000).TX
	if v1 < 4*v0 {
		t.Fatalf("burst velocity gain too small: %f vs %f", v1, v0)
	}
	// After the burst the motion keeps the accumulated offset.
	after := p.At(3_000_000).TX
	if after <= p.At(2_000_000).TX {
		t.Fatal("no forward motion after burst")
	}
}

func TestBlobOrbit(t *testing.T) {
	b := Blob{CX: 50, CY: 50, OrbitR: 10, OrbitHz: 1}
	x0, y0 := b.center(0)
	x1, y1 := b.center(500_000) // half period: opposite side
	if math.Abs(x0-60) > 1e-6 || math.Abs(y0-50) > 1e-6 {
		t.Fatalf("orbit start (%f,%f)", x0, y0)
	}
	if math.Abs(x1-40) > 1e-6 || math.Abs(y1-50) > 1e-6 {
		t.Fatalf("orbit half (%f,%f)", x1, y1)
	}
}

func TestPresetsGenerate(t *testing.T) {
	for _, p := range AllPresets() {
		seq, err := NewSequence(p, Half, 42)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		s, err := seq.Generate(200_000) // 200 ms
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := validStream(s); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if s.Len() == 0 {
			t.Fatalf("%s: produced no events", p)
		}
	}
	if _, err := NewSequence(Preset("nope"), Half, 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestPresetDensityOrdering(t *testing.T) {
	density := func(p Preset) float64 {
		seq, err := NewSequence(p, Half, 7)
		if err != nil {
			t.Fatal(err)
		}
		s, err := seq.Generate(300_000)
		if err != nil {
			t.Fatal(err)
		}
		// Mean spatial density over 5 ms frames, the paper's metric.
		var sum float64
		ws := s.Windows(5000)
		for _, w := range ws {
			sum += w.Stream.SpatialDensity()
		}
		return sum / float64(len(ws))
	}
	hover := density(IndoorFlying3)
	drive := density(OutdoorDay1)
	if drive <= hover {
		t.Fatalf("driving (%f) should be denser than hovering (%f)", drive, hover)
	}
	if drive < 0.01 {
		t.Fatalf("driving density %f implausibly low", drive)
	}
	if hover > 0.2 {
		t.Fatalf("hover density %f implausibly high", hover)
	}
}

func TestIndoorFlying2HasBursts(t *testing.T) {
	seq, err := NewSequence(IndoorFlying2, Half, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := seq.Generate(3_200_000)
	if err != nil {
		t.Fatal(err)
	}
	series := s.DensitySeries(50_000) // 50 ms buckets
	var peak, base float64
	n := 0
	for i, c := range series {
		tMid := int64(i)*50_000 + 25_000
		inBurst := (tMid > 800_000 && tMid < 1_300_000) || (tMid > 2_400_000 && tMid < 2_900_000)
		if inBurst {
			if float64(c) > peak {
				peak = float64(c)
			}
		} else {
			base += float64(c)
			n++
		}
	}
	base /= float64(n)
	if peak < 2*base {
		t.Fatalf("burst peak %f not clearly above base %f", peak, base)
	}
}

func TestGenerateUniform(t *testing.T) {
	s := GenerateUniform(64, 48, 10000, 1_000_000, 9)
	if s.Len() != 10000 {
		t.Fatalf("len=%d", s.Len())
	}
	if err := validStream(s); err != nil {
		t.Fatal(err)
	}
	// Determinism under the same seed.
	s2 := GenerateUniform(64, 48, 10000, 1_000_000, 9)
	if s2.Len() != s.Len() || s2.Events[500] != s.Events[500] {
		t.Fatal("GenerateUniform not deterministic")
	}
}

func TestSequenceDeterminism(t *testing.T) {
	gen := func() *events.Stream {
		seq, err := NewSequence(IndoorFlying1, Half, 11)
		if err != nil {
			t.Fatal(err)
		}
		s, err := seq.Generate(100_000)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := gen(), gen()
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}
