package e2sf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"evedge/internal/events"
	"evedge/internal/scene"
	"evedge/internal/sparse"
)

func mkStream(w, h int, evs ...events.Event) *events.Stream {
	s := events.NewStream(w, h)
	s.Events = append(s.Events, evs...)
	return s
}

// mustFused returns an unpooled converter for a w x h sensor.
func mustFused(t testing.TB, w, h, nB int) *Fused {
	t.Helper()
	c, err := NewFused(Config{Width: w, Height: h, NumBins: nB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// framedEvents is the number of events the frames hold.
func framedEvents(frames []*sparse.Frame) int {
	var n float64
	for _, f := range frames {
		n += f.EventCount()
	}
	return int(n)
}

func TestNewValidation(t *testing.T) {
	if _, err := NewFused(Config{Width: 0, Height: 10, NumBins: 1}, nil); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewFused(Config{Width: 10, Height: 10, NumBins: 0}, nil); err == nil {
		t.Fatal("zero bins accepted")
	}
	// A frame's cell index is y<<s | x with s the bit length of W-1 (at
	// least 6), so the geometry fits when H<<s stays within int32. No
	// grid is allocated: the converter borrows one per conversion.
	for _, g := range []struct {
		w, h int
		ok   bool
	}{
		{1 << 16, 1 << 16, false},
		{65537, 16384, false}, // W·H < 2^31, but H<<17 = 2^31
		{65536, 16384, true},  // H<<16 = 2^30
		{64, 1<<25 - 1, true}, // s = 6 below W = 64
		{64, 1 << 25, false},
		{65, 1<<24 - 1, true}, // s = 7 from W = 65
		{65, 1 << 24, false},
	} {
		_, err := NewFused(Config{Width: g.w, Height: g.h, NumBins: 1}, nil)
		if (err == nil) != g.ok {
			t.Fatalf("%dx%d: NewFused error %v, want accepted = %v", g.w, g.h, err, g.ok)
		}
	}
	c := mustFused(t, 10, 10, 4)
	if c.cfg.NumBins != 4 {
		t.Fatal("config not retained")
	}
}

func TestConvertBinAssignment(t *testing.T) {
	// Window [0, 100) with 4 bins of 25us each.
	s := mkStream(4, 4,
		events.Event{X: 0, Y: 0, TS: 0, Pol: events.On},    // bin 0
		events.Event{X: 1, Y: 0, TS: 24, Pol: events.Off},  // bin 0
		events.Event{X: 2, Y: 0, TS: 25, Pol: events.On},   // bin 1
		events.Event{X: 3, Y: 0, TS: 74, Pol: events.On},   // bin 2
		events.Event{X: 0, Y: 1, TS: 75, Pol: events.Off},  // bin 3
		events.Event{X: 1, Y: 1, TS: 99, Pol: events.On},   // bin 3
		events.Event{X: 2, Y: 1, TS: 100, Pol: events.On},  // outside
		events.Event{X: 3, Y: 1, TS: 2000, Pol: events.On}, // outside
	)
	frames, _, err := mustFused(t, 4, 4, 4).ConvertGroupedAppend(nil, s, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("frames=%d", len(frames))
	}
	if n := framedEvents(frames); n != 6 {
		t.Fatalf("events framed=%d", n)
	}
	wantNNZ := []int{2, 1, 1, 2}
	for i, f := range frames {
		if f.NNZ() != wantNNZ[i] {
			t.Fatalf("bin %d nnz=%d want %d", i, f.NNZ(), wantNNZ[i])
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("bin %d: %v", i, err)
		}
	}
	// Bin time bounds follow Eq. 1.
	if frames[1].T0 != 25 || frames[1].T1 != 50 {
		t.Fatalf("bin 1 bounds [%d,%d)", frames[1].T0, frames[1].T1)
	}
	// Polarity separation.
	p, n := frames[0].Get(0, 1)
	if p != 0 || n != 1 {
		t.Fatalf("bin 0 (0,1)=(%f,%f)", p, n)
	}
}

func TestConvertPolarityAccumulation(t *testing.T) {
	s := mkStream(2, 2,
		events.Event{X: 0, Y: 0, TS: 1, Pol: events.On},
		events.Event{X: 0, Y: 0, TS: 2, Pol: events.On},
		events.Event{X: 0, Y: 0, TS: 3, Pol: events.Off},
	)
	frames, _, err := mustFused(t, 2, 2, 1).ConvertGroupedAppend(nil, s, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, n := frames[0].Get(0, 0)
	if p != 2 || n != 1 {
		t.Fatalf("accumulation (%f,%f)", p, n)
	}
}

func TestConvertErrors(t *testing.T) {
	c := mustFused(t, 4, 4, 2)
	s := mkStream(4, 4)
	if _, _, err := c.ConvertGroupedAppend(nil, s, 10, 10, 1); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, _, err := c.ConvertGroupedAppend(nil, mkStream(8, 8), 0, 10, 1); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestLastBinClamp(t *testing.T) {
	// An event exactly at the final microsecond before tEnd lands in
	// the last bin even with floating point rounding.
	s := mkStream(2, 2, events.Event{X: 0, Y: 0, TS: 99, Pol: events.On})
	frames, _, err := mustFused(t, 2, 2, 3).ConvertGroupedAppend(nil, s, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if frames[2].NNZ() != 1 {
		t.Fatal("event at window edge lost")
	}
}

// Property: E2SF conserves events — the sum of accumulated polarity
// counts across frames equals the number of in-window events.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, nbRaw uint8) bool {
		nB := int(nbRaw)%16 + 1
		s := scene.GenerateUniform(32, 24, 50_000, 100_000, seed)
		frames, st, err := mustFused(t, 32, 24, nB).ConvertGroupedAppend(nil, s, 0, 100_000, 1)
		if err != nil {
			return false
		}
		for _, fr := range frames {
			if fr.Validate() != nil {
				return false
			}
		}
		return framedEvents(frames) == s.Len() && st.Frames == nB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: every event's bin index satisfies Eq. 1 bounds.
func TestBinBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nB := 1 + r.Intn(12)
		tEnd := int64(1000 + r.Intn(100_000))
		s := scene.GenerateUniform(16, 16, 20_000, tEnd, seed)
		frames, _, err := mustFused(t, 16, 16, nB).ConvertGroupedAppend(nil, s, 0, tEnd, 1)
		if err != nil {
			return false
		}
		if len(frames) != nB {
			return false
		}
		for k, fr := range frames {
			if fr.T0 > fr.T1 {
				return false
			}
			if k > 0 && frames[k-1].T1 != fr.T0 {
				return false // bins must tile the window
			}
		}
		return frames[0].T0 == 0 && frames[nB-1].T1 >= tEnd-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The dense event-frame form the baseline feeds to dense kernels is
// the converted frame expanded, and scanning it back loses nothing.
func TestConvertDense(t *testing.T) {
	s := mkStream(4, 4,
		events.Event{X: 1, Y: 2, TS: 5, Pol: events.On},
		events.Event{X: 3, Y: 0, TS: 15, Pol: events.Off},
	)
	frames, _, err := mustFused(t, 4, 4, 2).ConvertGroupedAppend(nil, s, 0, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("frames=%d", len(frames))
	}
	dense := sparse.NewTensor(2, 4, 4)
	frames[0].DenseInto(dense)
	if dense.At(0, 2, 1) != 1 {
		t.Fatal("dense pos channel wrong")
	}
	frames[1].DenseInto(dense)
	if dense.At(1, 0, 3) != 1 || dense.NNZ() != 1 {
		t.Fatal("dense neg channel wrong")
	}
	back, err := sparse.FromDense(dense, frames[1].T0, frames[1].T1)
	if err != nil {
		t.Fatal(err)
	}
	framesEqual(t, "dense round trip", back, frames[1])
}

func TestGroupBins(t *testing.T) {
	c := mustFused(t, 8, 8, 5)
	s := scene.GenerateUniform(8, 8, 100_000, 50_000, 3)
	frames, _, err := c.ConvertGroupedAppend(nil, s, 0, 50_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups, _, err := c.ConvertGroupedAppend(nil, s, 0, 50_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 { // 2+2+1
		t.Fatalf("groups=%d", len(groups))
	}
	var inCount, outCount float64
	for _, f := range frames {
		inCount += f.EventCount()
	}
	for _, g := range groups {
		outCount += g.EventCount()
	}
	if inCount != outCount {
		t.Fatalf("grouping loses events: %f != %f", inCount, outCount)
	}
}

func TestDensityTracksBinCount(t *testing.T) {
	// More bins -> fewer events per bin -> lower per-frame density.
	s := scene.GenerateUniform(32, 32, 200_000, 100_000, 5)
	density := func(nB int) float64 {
		frames, _, err := mustFused(t, 32, 32, nB).ConvertGroupedAppend(nil, s, 0, 100_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, f := range frames {
			sum += f.Density()
		}
		return sum / float64(len(frames))
	}
	if d1, d10 := density(1), density(10); d10 >= d1 {
		t.Fatalf("density should fall with bins: nB=1 %f, nB=10 %f", d1, d10)
	}
}
