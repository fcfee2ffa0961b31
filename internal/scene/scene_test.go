package scene

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

func (r *rampRenderer) renderRows(dst []float32, _ []quietRange, w, h, y0, y1 int, tUS int64) {
	v := float32(0.2 + r.rate*float64(tUS)*1e-6)
	if v > 1 {
		v = 1
	}
	for i := range dst {
		dst[i] = v
	}
}

func testConfig(w, h int) config {
	cfg := defaultConfig()
	cfg.Width, cfg.Height = w, h
	cfg.NoiseHz = 0
	cfg.RefractoryUS = 0
	return cfg
}

func TestCameraValidation(t *testing.T) {
	if _, err := newCamera(config{Width: 0, Height: 1, Theta: 0.1, StepUS: 1}, &rampRenderer{}); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := newCamera(config{Width: 1, Height: 1, Theta: 0, StepUS: 1}, &rampRenderer{}); err == nil {
		t.Fatal("zero theta accepted")
	}
	if _, err := newCamera(config{Width: 1, Height: 1, Theta: 0.1, StepUS: 0}, &rampRenderer{}); err == nil {
		t.Fatal("zero step accepted")
	}
	cam, err := newCamera(testConfig(4, 4), &rampRenderer{rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cam.Run(10, 10); err == nil {
		t.Fatal("empty interval accepted")
	}
}

func TestBrighteningEmitsOnEvents(t *testing.T) {
	cfg := testConfig(8, 8)
	cam, err := newCamera(cfg, &rampRenderer{rate: 1.5})
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
	cam, err := newCamera(cfg, &rampRenderer{rate: -1.0})
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
	cam, err := newCamera(cfg, &rampRenderer{rate: 0})
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
	cam, err := newCamera(cfg, &rampRenderer{rate: 0})
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
		cam, err := newCamera(cfg, &rampRenderer{rate: rate})
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

// TestTextureSampleTinyNegative pins the wrap of a coordinate that is
// negative by less than the rounding of the texture size: adding the
// size to it rounds to the size itself, which must wrap to texel 0, not
// read the next row's first texel (or past the data on the last row).
func TestTextureSampleTinyNegative(t *testing.T) {
	tex := NewTexture(173, 130, 0.5, 9)
	for _, y := range []float64{0, 64, 129} {
		if got, want := tex.Sample(-1e-300, y), tex.Sample(0, y); got != want {
			t.Fatalf("Sample(-1e-300, %g) = %v, want texel (0, %g) = %v", y, got, y, want)
		}
	}
	if got, want := tex.Sample(7, -1e-300), tex.Sample(7, 0); got != want {
		t.Fatalf("Sample(7, -1e-300) = %v, want texel (7, 0) = %v", got, want)
	}
}

// modWrap and sampleMod are Sample as it was before its wrap avoided
// math.Mod, kept as the oracle of FuzzTextureSample.
func modWrap(x, n float64) float64 {
	x = math.Mod(x, n)
	if x < 0 {
		x += n
	}
	return x
}

func sampleMod(t *Texture, u, v float64) float32 {
	u, v = modWrap(u, float64(t.W)), modWrap(v, float64(t.H))
	x0, y0 := int(u), int(v)
	fx, fy := u-float64(x0), v-float64(y0)
	x1, y1 := (x0+1)%t.W, (y0+1)%t.H
	v00 := float64(t.Data[y0*t.W+x0])
	v01 := float64(t.Data[y0*t.W+x1])
	v10 := float64(t.Data[y1*t.W+x0])
	v11 := float64(t.Data[y1*t.W+x1])
	return float32(v00*(1-fx)*(1-fy) + v01*fx*(1-fy) + v10*(1-fx)*fy + v11*fx*fy)
}

// FuzzTextureSample holds Sample to the math.Mod wrap bit for bit at
// any finite coordinate. Where that wrap lands on the size itself (a
// tiny negative coordinate, see TestTextureSampleTinyNegative) Sample
// must return the sample at the wrapped-to-0 coordinate instead.
func FuzzTextureSample(f *testing.F) {
	const w, h = 13, 7
	tex := NewTexture(w, h, 0.8, 4)
	for _, c := range [][2]float64{
		{0, 0}, {5.3, 2.9}, {12.75, 6.5}, {-0.25, -0.5}, {-1e-300, 0}, {0, -5e-324},
		{-w, -h}, {w, h}, {-2 * w, -2 * h}, {2 * w, 2 * h}, {-2*w + 1e-9, 2*h - 1e-9},
		{-w - 1e-15, h + 1e-15}, {1e300, -1e300}, {-123456.789, 98765.4321},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, u, v float64) {
		if math.IsNaN(u) || math.IsInf(u, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip("non-finite coordinate")
		}
		ou, ov := u, v
		if modWrap(u, w) == w {
			ou = 0
		}
		if modWrap(v, h) == h {
			ov = 0
		}
		got, want := tex.Sample(u, v), sampleMod(tex, ou, ov)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("Sample(%g, %g) = %v, math.Mod wrap gives %v", u, v, got, want)
		}
	})
}

// FuzzCellBounds holds the cull's cell ranges to the samples they
// stand for: at any finite (u, v) and at gains 0.15, 0.6 and 1 (those
// of HighSpeedSpin, IndoorFlying2 and an unset TextureGain), the shaded
// sample lies in the shaded range of the cell its wrapped coordinates
// fall in. The seeds sample across the last column and row, where a
// cell's neighbours wrap to column and row 0.
func FuzzCellBounds(f *testing.F) {
	const w, h = 13, 7
	tex := NewTexture(w, h, 0.8, 4)
	gains := []float64{0.15, 0.6, 1}
	cells := make([][]cellRange, len(gains))
	for i, g := range gains {
		cells[i] = shadeCells(tex, g)
	}
	for _, c := range [][2]float64{
		{0, 0}, {5.3, 2.9}, {12.5, 3.5}, {12.9, 0.1}, {3.5, 6.5}, {0.2, 6.9},
		{12.5, 6.5}, {-0.5, -0.5}, {-1e-300, 0}, {2*w - 0.25, -h - 0.75}, {1e300, -1e300},
	} {
		for g := range gains {
			f.Add(c[0], c[1], uint8(g))
		}
	}
	f.Fuzz(func(t *testing.T, u, v float64, g uint8) {
		if math.IsNaN(u) || math.IsInf(u, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip("non-finite coordinate")
		}
		gi := int(g) % len(gains)
		s := shade(tex.Sample(u, v), gains[gi])
		wu, wv := wrap(u, w), wrap(v, h)
		if c := cells[gi][int(wv)*w+int(wu)]; !(c.lo <= s && s <= c.hi) {
			t.Fatalf("gain %g: shaded Sample(%g, %g) = %v outside its cell (%d, %d) range [%v, %v]",
				gains[gi], u, v, s, int(wu), int(wv), c.lo, c.hi)
		}
	})
}

// posePath holds the camera at one pose.
type posePath MotionSample

func (p posePath) At(int64) MotionSample { return MotionSample(p) }

// TestWorldCull holds the render's cull to its rule at every pixel. The
// texture has the sensor's size and the pose shifts it by half a
// texel, so pixel (x, y) samples the middle of texel cell (x, y); the
// cells of the last column and row blend across the wrap. Each pixel
// gets a quiet interval around its cell's shaded bounds, taken from
// the texels here and raised to the floor: open on both sides, where
// the pixel must take the low bound unless it lies in the blob's box,
// or closed at one of the two bounds, where it must take the full
// render. The frame is rendered in three bands, each given its own
// rows of the intervals, and rendering with intervals allocates
// nothing. One World goes through a change of gain and then of
// texture, so the bounds it keeps must follow both.
func TestWorldCull(t *testing.T) {
	const w, h = 23, 17
	wd := &World{
		Path:  posePath{TX: 0.5, TY: 0.5, Zoom: 1},
		Blobs: []Blob{{CX: 5, CY: 8, Radius: 1.5, Contrast: 0.3}},
	}
	inBox := func(x, y int) bool { return x <= 10 && y >= 3 && y <= 13 } // floor/ceil of (5, 8) ± 4.5
	tex := NewTexture(w, h, 0.9, 8)
	for _, setup := range []struct {
		tex  *Texture
		gain float64
	}{{tex, 0.6}, {tex, 0.3}, {NewTexture(w, h, 0.5, 9), 0.3}} {
		wd.Texture, wd.TextureGain = setup.tex, setup.gain
		full := make([]float32, w*h)
		wd.renderRows(full, nil, w, h, 0, h, 0)

		quiet := make([]quietRange, w*h)
		low := make([]float32, w*h)
		for y := range h {
			for x := range w {
				x1, y1 := (x+1)%w, (y+1)%h
				lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
				for _, i := range []int{y*w + x, y*w + x1, y1*w + x, y1*w + x1} {
					s := shade(setup.tex.Data[i], setup.gain)
					lo, hi = min(lo, s), max(hi, s)
				}
				i := y*w + x
				low[i] = lo
				q := quietRange{math.Nextafter(clampLum(lo), 0), math.Nextafter(clampLum(hi), 2)}
				switch i % 3 {
				case 1:
					q.lo = clampLum(lo)
				case 2:
					q.hi = clampLum(hi)
				}
				quiet[i] = q
			}
		}
		got := make([]float32, w*h)
		render := func() {
			for _, b := range [][2]int{{0, 5}, {5, 12}, {12, h}} {
				wd.renderRows(got[b[0]*w:b[1]*w], quiet[b[0]*w:b[1]*w], w, h, b[0], b[1], 0)
			}
		}
		render()
		culled, wrong := 0, 0
		for y := range h {
			for x := range w {
				i := y*w + x
				want := full[i]
				if i%3 == 0 && !inBox(x, y) {
					want = low[i]
					culled++
				}
				if math.Float32bits(got[i]) != math.Float32bits(want) {
					if wrong++; wrong <= 5 {
						t.Errorf("gain %g: pixel (%d, %d), interval case %d, in box %v: rendered %v, want %v (full render %v, low bound %v)",
							setup.gain, x, y, i%3, inBox(x, y), got[i], want, full[i], low[i])
					}
				}
			}
		}
		if wrong > 0 {
			t.Fatalf("gain %g: %d of %d pixels rendered wrong", setup.gain, wrong, w*h)
		}
		if culled == 0 {
			t.Fatal("no pixel culled")
		}
		if n := testing.AllocsPerRun(20, render); n != 0 {
			t.Errorf("rendering with quiet intervals allocates %v times per frame", n)
		}
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
		n := 0
		for t0 := s.TStart(); t0 <= s.TEnd(); t0 += 5000 {
			sum += s.Slice(t0, t0+5000).SpatialDensity()
			n++
		}
		return sum / float64(n)
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

// streamHash is the FNV-1a hash of a stream's events, each written as
// X and Y (uint16), TS (int64) little-endian and the polarity byte.
func streamHash(s *events.Stream) uint64 {
	h := fnv.New64a()
	var b [13]byte
	for _, e := range s.Events {
		binary.LittleEndian.PutUint16(b[0:], e.X)
		binary.LittleEndian.PutUint16(b[2:], e.Y)
		binary.LittleEndian.PutUint64(b[4:], uint64(e.TS))
		b[12] = byte(e.Pol)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestPresetStreamsPinned pins every preset's stream at half scale,
// seed 7, 200 ms, as the serial, math.Mod-wrapping simulator generated
// it, and at full scale (346x260, the scale of evbench's paper tables),
// seed 7, 100 ms, as the simulator before the render's cull generated
// it. Any change that moves a stream fails here.
func TestPresetStreamsPinned(t *testing.T) {
	pins := []struct {
		p     Preset
		sc    Scale
		durUS int64
		n     int
		hash  uint64
	}{
		{IndoorFlying1, Half, 200_000, 2145, 0x6d59f10e2c37b21b},
		{IndoorFlying2, Half, 200_000, 2862, 0x85266edb651cb272},
		{IndoorFlying3, Half, 200_000, 374, 0x4b553e81ee66d71a},
		{OutdoorDay1, Half, 200_000, 67670, 0x359a790c42d88137},
		{Town10, Half, 200_000, 10662, 0x96de6202968f0b75},
		{HighSpeedSpin, Half, 200_000, 22892, 0x3814cb8738f1e59a},
		{IndoorFlying1, Full, 100_000, 1829, 0xc8cc21374bfb7b75},
		{IndoorFlying2, Full, 100_000, 1874, 0x34daccc3b63708a3},
		{IndoorFlying3, Full, 100_000, 511, 0x6b61ab34d31a802f},
		{OutdoorDay1, Full, 100_000, 55586, 0x8b3213c6d80616cb},
		{Town10, Full, 100_000, 3863, 0x66b8898e15d6a522},
		{HighSpeedSpin, Full, 100_000, 23816, 0x8f8c60d5b3ecd8fc},
	}
	if len(pins) != 2*len(AllPresets()) {
		t.Fatalf("%d pins for %d presets at two scales", len(pins), len(AllPresets()))
	}
	for _, pin := range pins {
		seq, err := NewSequence(pin.p, pin.sc, 7)
		if err != nil {
			t.Fatal(err)
		}
		s, err := seq.Generate(pin.durUS)
		if err != nil {
			t.Fatal(err)
		}
		if got := streamHash(s); s.Len() != pin.n || got != pin.hash {
			t.Errorf("%s at %dx%d: %d events hash %#016x, pinned %d events hash %#016x",
				pin.p, s.Width, s.Height, s.Len(), got, pin.n, pin.hash)
		}
	}
}

// runSerial is camera.Run as one pass over the whole frame per step
// that renders every pixel (it passes the renderer no quiet
// intervals) and takes every pixel's log, before the rows were split
// into bands and before the quiet interval and the render's cull,
// kept as the oracle of TestCameraBandsMatchSerial. It leaves the
// camera's quiet intervals unset, so a camera it ran must not go on
// through camera.run.
func runSerial(c *camera, t0, t1 int64) *events.Stream {
	w, h := c.cfg.Width, c.cfg.Height
	out := events.NewStream(w, h)
	if !c.initialized {
		c.r.renderRows(c.frame, nil, w, h, 0, h, t0)
		for i, v := range c.frame {
			c.mem[i] = logLum(v)
		}
		c.initialized = true
	}
	prevT := t0
	for t := t0 + c.cfg.StepUS; prevT < t1; t += c.cfg.StepUS {
		if t > t1 {
			t = t1
		}
		c.r.renderRows(c.frame, nil, w, h, 0, h, t)
		dt := t - prevT
		for i, v := range c.frame {
			delta := logLum(v) - c.mem[i]
			if (delta < c.cfg.Theta && delta > -c.cfg.Theta) || c.refrUntil[i] > t {
				continue
			}
			pol, sign := events.On, 1.0
			if delta < 0 {
				pol, sign = events.Off, -1.0
			}
			n := min(int(math.Abs(delta)/c.cfg.Theta), c.cfg.MaxEventsPerStep)
			for k := 1; k <= n; k++ {
				ts := prevT + int64(float64(k)/float64(n+1)*float64(dt))
				out.Append(events.Event{X: uint16(i % w), Y: uint16(i / w), TS: ts, Pol: pol})
			}
			c.mem[i] += sign * float64(n) * c.cfg.Theta
			c.refrUntil[i] = prevT + c.cfg.RefractoryUS
		}
		if c.cfg.NoiseHz > 0 {
			lambda := c.cfg.NoiseHz * float64(w*h) * float64(dt) * 1e-6
			for nn := poisson(c.rng, lambda); nn > 0; nn-- {
				i := c.rng.Intn(w * h)
				pol := events.On
				if c.rng.Intn(2) == 0 {
					pol = events.Off
				}
				out.Append(events.Event{X: uint16(i % w), Y: uint16(i / w), TS: prevT + c.rng.Int63n(dt), Pol: pol})
			}
		}
		prevT = t
	}
	out.Sort()
	return out
}

// TestCameraBandsMatchSerial runs one camera over 1, 2, 3, 7 and
// height bands of rows and requires the stream of one serial pass over
// the frame (runSerial) from each: background noise on, a moving
// texture and an orbiting blob that crosses every band edge, a ramp
// that fires every pixel in the same microsecond, a part-length last
// step, and two consecutive runs on one camera so the pixel state and
// the RNG carry over. The edge renderer holds the quiet-interval skip
// to runSerial's log of every pixel where the two are likeliest to
// differ, with a refractory period that blocks the step after a fire,
// at the default threshold and at ln 2. The other World cases hold the
// render's cull to runSerial's render of every pixel: a zooming,
// turning path whose texture coordinates reach every branch of wrap,
// a texture with a flat patch whose cells' bounds are equal, and two
// blobs whose boxes share rows and overlap, one straddling band edges.
func TestCameraBandsMatchSerial(t *testing.T) {
	const w, h = 40, 30
	edge := func(theta float64) func(*config) renderer {
		return func(cfg *config) renderer {
			cfg.Theta, cfg.RefractoryUS = theta, 2500
			return newEdgeRenderer(theta, cfg.StepUS, h)
		}
	}
	cases := []struct {
		name  string
		setup func(cfg *config) renderer // may tune cfg
	}{
		{"world", func(*config) renderer {
			return &World{
				Texture:     NewTexture(w, h, 0.7, 3),
				Path:        &SmoothPath{VX: 60, VY: 25, AmpX: 4, FreqX: 2, RotAmp: 0.05, RotFreq: 1},
				Blobs:       []Blob{{CX: w / 2, CY: h / 2, OrbitR: 10, OrbitHz: 8, Radius: 3, Contrast: 0.5}},
				TextureGain: 0.6,
			}
		}},
		{"world spin", func(*config) renderer {
			return &World{Texture: NewTexture(w, h, 0.7, 4), Path: spinPath{}, TextureGain: 0.8}
		}},
		{"world flat", func(*config) renderer {
			tex := NewTexture(w, h, 0.7, 5)
			for y := 6; y < 22; y++ {
				for x := 4; x < 30; x++ {
					tex.Data[y*w+x] = 0.42
				}
			}
			return &World{Texture: tex, Path: &SmoothPath{VX: 8, VY: 3, AmpX: 2, FreqX: 3}}
		}},
		{"world blobs", func(*config) renderer {
			return &World{
				Texture: NewTexture(w, h, 0.6, 6),
				Path:    &SmoothPath{VX: 20, VY: -10},
				Blobs: []Blob{
					{CX: 10, CY: h / 2, VX: 30, Radius: 2.5, Contrast: 0.4},
					{CX: 30, CY: 13, VX: -20, OrbitR: 3, OrbitHz: 5, Radius: 2, Contrast: -0.35},
				},
				TextureGain: 0.5,
			}
		}},
		{"ramp", func(*config) renderer { return &rampRenderer{rate: 3} }},
		{"edge", edge(defaultConfig().Theta)},
		{"edge ln2", edge(math.Ln2)},
	}
	for _, tc := range cases {
		// nb == 0 runs runSerial.
		gen := func(nb int) []*events.Stream {
			cfg := defaultConfig()
			cfg.Width, cfg.Height = w, h
			cfg.NoiseHz = 50
			cfg.Seed = 5
			cam, err := newCamera(cfg, tc.setup(&cfg))
			if err != nil {
				t.Fatal(err)
			}
			var out []*events.Stream
			for _, iv := range [][2]int64{{0, 60_000}, {60_000, 150_500}} {
				var s *events.Stream
				if nb == 0 {
					s = runSerial(cam, iv[0], iv[1])
				} else if s, err = cam.run(iv[0], iv[1], nb); err != nil {
					t.Fatal(err)
				}
				if err := validStream(s); err != nil {
					t.Fatalf("%s, %d bands: %v", tc.name, nb, err)
				}
				out = append(out, s)
			}
			return out
		}
		want := gen(0)
		for _, nb := range []int{1, 2, 3, 7, h} {
			for r, got := range gen(nb) {
				sameStream(t, fmt.Sprintf("%s, %d bands, run %d", tc.name, nb, r), got, want[r])
			}
		}
	}
}

// spinPath zooms and turns the camera while it sweeps the texture by
// several of its periods, so the texture coordinates of a 40x30 sensor
// fall below -2n, in [-2n, -n), [-n, 0), [0, n), [n, 2n) and above 2n
// for n = 40 and n = 30 during one 150 ms run.
type spinPath struct{}

func (spinPath) At(tUS int64) MotionSample {
	t := float64(tUS) * 1e-6
	return MotionSample{
		TX: -150 + 900*t, TY: 70 - 400*t,
		Angle: 0.6 + 12*t, Zoom: 1.6 + 0.5*math.Sin(30*t),
	}
}

// sameStream fails t unless got holds want's events in want's order.
func sameStream(t *testing.T, label string, got, want *events.Stream) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d events, serial %d", label, got.Len(), want.Len())
	}
	for i := range got.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("%s: event %d is %+v, serial %+v", label, i, got.Events[i], want.Events[i])
		}
	}
}

// edgeLevels are the luminance levels of edgeRenderer, one schedule
// per group of columns, in thresholds above the row's base:
// one threshold up and back down, a ramp that fires then returns, two
// thresholds at once, and a staircase whose every step lands on the
// next crossing once the last one fired.
var edgeLevels = [][]float64{
	{0, 1, 1, 0, -1, -1, 0},
	{0, 0.5, 1.5, 0.5, 0, -1.5, -0.5},
	{0, 2, 0, -2, 0},
	{0, 1, 2, 3, 2, 1, 0, -1, -2, -1},
}

// edgeNudges are the float32 ulps each column of a group moves its
// level's luminance by.
var edgeNudges = []int{-3, -1, 0, 1, 3}

// nudge32 moves v by k float32 ulps.
func nudge32(v float32, k int) float32 {
	for ; k > 0; k-- {
		v = math.Nextafter32(v, float32(math.Inf(1)))
	}
	for ; k < 0; k++ {
		v = math.Nextafter32(v, 0)
	}
	return v
}

// edgeRenderer puts pixels a few float32 ulps either side of their
// threshold crossings, the edges of the camera's quiet intervals: the
// pixel in row y, column x sits at base[y]·exp(theta·m) nudged by
// edgeNudges[x%5] ulps, where m is the current level in the schedule
// edgeLevels[x/5%4], each held for three steps so that a pixel also
// stays where it just fired. A pixel back at its base after one fire
// sits within a float64 ulp or two of exp(mem-theta) at any theta; with
// theta = ln 2 and integer levels every luminance is the float32
// 2^m·base, as close to exp(mem±theta) itself.
type edgeRenderer struct {
	theta  float64
	stepUS int64
	base   []float32
}

// newEdgeRenderer gives h rows their bases: below, at and above
// lumFloor, a few fixed luminances up to 1, then seeded random ones.
func newEdgeRenderer(theta float64, stepUS int64, h int) *edgeRenderer {
	f := float32(lumFloor)
	base := []float32{1e-4, nudge32(f, -1), f, nudge32(f, 1), 1.2e-3, 0.0123, 0.1, 0.25, 0.5, 0.77, 1}
	rng := rand.New(rand.NewSource(17))
	for len(base) < h {
		base = append(base, float32(math.Exp(-7*rng.Float64())))
	}
	return &edgeRenderer{theta: theta, stepUS: stepUS, base: base[:h]}
}

func (r *edgeRenderer) renderRows(dst []float32, _ []quietRange, w, h, y0, y1 int, tUS int64) {
	k := int(tUS / (3 * r.stepUS))
	for y := y0; y < y1; y++ {
		for x := range w {
			levels := edgeLevels[x/len(edgeNudges)%len(edgeLevels)]
			v := float32(float64(r.base[y]) * math.Exp(r.theta*levels[k%len(levels)]))
			dst[(y-y0)*w+x] = nudge32(v, edgeNudges[x%len(edgeNudges)])
		}
	}
}

// BenchmarkCameraRun steps each preset's camera at half scale through
// 100 ms per iteration, carrying its state over, and reports the host
// time per pixel per 1 ms step and the events per iteration.
func BenchmarkCameraRun(b *testing.B) {
	const intervalUS = 100_000
	for _, p := range AllPresets() {
		b.Run(string(p), func(b *testing.B) {
			seq, err := NewSequence(p, Half, 7)
			if err != nil {
				b.Fatal(err)
			}
			cam := seq.cam
			pixelSteps := float64(cam.cfg.Width*cam.cfg.Height) * float64(intervalUS/cam.cfg.StepUS)
			var n int
			b.ResetTimer()
			for i := range b.N {
				t0 := int64(i) * intervalUS
				s, err := cam.Run(t0, t0+intervalUS)
				if err != nil {
					b.Fatal(err)
				}
				n += s.Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*pixelSteps), "ns/pixel-step")
			b.ReportMetric(float64(n)/float64(b.N), "events/op")
		})
	}
}
