package events

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mk(w, h int, evs ...Event) *Stream {
	s := NewStream(w, h)
	s.Events = append(s.Events, evs...)
	return s
}

func TestPolarity(t *testing.T) {
	if On.String() != "ON" || Off.String() != "OFF" {
		t.Fatalf("polarity strings: %s %s", On, Off)
	}
	if !On.Valid() || !Off.Valid() || Polarity(0).Valid() || Polarity(2).Valid() {
		t.Fatal("polarity validity wrong")
	}
}

func TestStreamBasics(t *testing.T) {
	s := mk(4, 4,
		Event{X: 0, Y: 0, TS: 10, Pol: On},
		Event{X: 1, Y: 2, TS: 20, Pol: Off},
		Event{X: 3, Y: 3, TS: 45, Pol: On},
	)
	if s.Len() != 3 {
		t.Fatalf("Len=%d", s.Len())
	}
	if s.TStart() != 10 || s.TEnd() != 45 || s.Duration() != 35 {
		t.Fatalf("bounds %d %d %d", s.TStart(), s.TEnd(), s.Duration())
	}
	on, off := s.CountByPolarity()
	if on != 2 || off != 1 {
		t.Fatalf("polarity counts %d %d", on, off)
	}
	if !s.Sorted() {
		t.Fatal("sorted stream reported unsorted")
	}
}

func TestEmptyStream(t *testing.T) {
	s := NewStream(10, 10)
	if s.TStart() != 0 || s.TEnd() != 0 || s.Duration() != 0 {
		t.Fatal("empty stream bounds must be zero")
	}
	if s.EventRate() != 0 {
		t.Fatal("empty stream rate must be zero")
	}
	if got := s.DensitySeries(100); len(got) != 0 {
		t.Fatalf("empty stream density series = %v", got)
	}
	if s.ActivePixels() != 0 || s.SpatialDensity() != 0 {
		t.Fatal("empty stream density must be zero")
	}
}

func TestSort(t *testing.T) {
	s := mk(4, 4,
		Event{X: 1, TS: 30, Pol: On},
		Event{X: 2, TS: 10, Pol: Off},
		Event{X: 3, TS: 20, Pol: On},
	)
	if s.Sorted() {
		t.Fatal("should be unsorted")
	}
	s.Sort()
	if !s.Sorted() {
		t.Fatal("Sort failed")
	}
	if s.Events[0].X != 2 || s.Events[2].X != 1 {
		t.Fatalf("order wrong: %v", s.Events)
	}
}

func TestSliceAndWindows(t *testing.T) {
	s := NewStream(4, 4)
	for i := 0; i < 100; i++ {
		s.Append(Event{X: uint16(i % 4), Y: uint16(i / 25), TS: int64(i * 10), Pol: On})
	}
	mid := s.Slice(200, 500)
	if mid.Len() != 30 {
		t.Fatalf("slice len=%d", mid.Len())
	}
	if mid.TStart() != 200 || mid.TEnd() != 490 {
		t.Fatalf("slice bounds %d %d", mid.TStart(), mid.TEnd())
	}
	ws := s.DensitySeries(250)
	if len(ws) != 4 {
		t.Fatalf("windows=%d", len(ws))
	}
	total := 0
	for _, n := range ws {
		total += n
	}
	if total != s.Len() {
		t.Fatalf("windows lose events: %d != %d", total, s.Len())
	}
}

func TestDensity(t *testing.T) {
	s := mk(10, 10,
		Event{X: 0, Y: 0, TS: 1, Pol: On},
		Event{X: 0, Y: 0, TS: 2, Pol: Off}, // same pixel
		Event{X: 5, Y: 5, TS: 3, Pol: On},
	)
	if s.ActivePixels() != 2 {
		t.Fatalf("active=%d", s.ActivePixels())
	}
	if d := s.SpatialDensity(); d != 0.02 {
		t.Fatalf("density=%f", d)
	}
}

func TestDensitySeries(t *testing.T) {
	s := NewStream(4, 4)
	// 5 events in [0,100), none in [100,200), 2 in [200,300)
	for _, ts := range []int64{0, 10, 20, 30, 40, 210, 220} {
		s.Append(Event{TS: ts, Pol: On})
	}
	got := s.DensitySeries(100)
	want := []int{5, 0, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("series=%v want %v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	s := mk(10, 10,
		Event{X: 0, Y: 0, TS: 0, Pol: On},
		Event{X: 1, Y: 1, TS: 1000000, Pol: Off},
	)
	st := s.Summarize()
	if st.N != 2 || st.On != 1 || st.Off != 1 || st.RateEPS != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}

func randomStream(r *rand.Rand, n int) *Stream {
	s := NewStream(64, 48)
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += r.Int63n(100)
		p := On
		if r.Intn(2) == 0 {
			p = Off
		}
		s.Append(Event{X: uint16(r.Intn(64)), Y: uint16(r.Intn(48)), TS: ts, Pol: p})
	}
	return s
}

func TestBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 1000} {
		s := randomStream(r, n)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("n=%d binary round trip mismatch", n)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE00000000000000"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestTextRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := randomStream(r, 500)
	var buf bytes.Buffer
	if err := WriteText(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("text round trip mismatch")
	}
}

// Property: the windows of any positive duration partition the events.
func TestWindowsPartitionProperty(t *testing.T) {
	f := func(seed int64, durRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomStream(r, 200)
		dur := int64(durRaw)%5000 + 1
		series := s.DensitySeries(dur)
		if s.Len() > 0 && int64(len(series)) != s.Duration()/dur+1 {
			return false
		}
		total := 0
		for i, n := range series {
			t0 := s.TStart() + int64(i)*dur
			if n != s.Slice(t0, t0+dur).Len() {
				return false
			}
			total += n
		}
		return total == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: binary codec is lossless for arbitrary sorted streams.
func TestBinaryCodecProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomStream(r, r.Intn(300))
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
