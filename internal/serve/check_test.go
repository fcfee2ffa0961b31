package serve

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/scene"
)

// refCheck is the ingest check as a plain loop: checkEvent on every
// event in order, the first failure returned.
func refCheck(w, h int, evs []events.Event) error {
	prev := int64(math.MinInt64)
	for i, e := range evs {
		if err := checkEvent(e, i, w, h, prev); err != nil {
			return err
		}
		prev = e.TS
	}
	return nil
}

// checkScratch are the decode scratch sizes a chunk is checked with:
// the pooled segment's, and sizes that cut a body into many segments,
// so the per-segment fold, its prev carried across segment edges and
// its rescan are reached by small inputs too. A scratch is never made
// longer than the body, which takes the same branch of check.
var checkScratch = []int{segmentEvents, 1, 2, 5}

// requireCheckMatches checks evs on a w x h sensor through both entry
// points, an EVAR body at every scratch size, and requires each to
// answer as refCheck: both nil or the same error text and sentinel. A
// chunk that passes must then hand its events to segment unchanged.
func requireCheckMatches(t testing.TB, w, h int, evs []events.Event) {
	t.Helper()
	s := evStream(w, h, evs...)
	want := refCheck(w, h, evs)
	for _, ep := range entryPoints {
		ch := ep.chunk(t, s)
		sizes := checkScratch
		if len(ch.evs) > 0 {
			sizes = sizes[:1] // a stream chunk reads no scratch
		}
		for _, size := range sizes {
			scratch := make([]events.Event, min(size, len(evs)))
			got := ch.check(scratch)
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("%s, scratch %d, %dx%d, %d events: check = %v, want %v", ep.name, size, w, h, len(evs), got, want)
			}
			for _, sentinel := range []error{events.ErrGeometry, events.ErrPolarity, events.ErrOrder} {
				if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
					t.Fatalf("%s, scratch %d: check = %v, want sentinel of %v", ep.name, size, got, want)
				}
			}
			if got != nil {
				continue
			}
			var seen []events.Event
			for i := 0; i < ch.len(); {
				seg := ch.segment(i, scratch)
				seen = append(seen, seg...)
				i += len(seg)
			}
			if !slices.Equal(seen, evs) {
				t.Fatalf("%s, scratch %d: segments hand out other events than the chunk's %d", ep.name, size, len(evs))
			}
		}
	}
}

// TestChunkCheckMatchesReference: the folded check refuses exactly the
// chunks the per-event loop refuses, naming the same event with the
// same text and sentinel — at the sensor's edges, at every polarity
// byte that is not ±1, at both int64 ends and across ±2^62, where a
// sign-of-difference order test would overflow, and in a body of
// several decode segments that fails in a later one or on a segment
// edge.
func TestChunkCheckMatchesReference(t *testing.T) {
	ev := func(x, y uint16, ts int64) events.Event { return events.Event{X: x, Y: y, Pol: events.On, TS: ts} }
	pol := func(e events.Event, p events.Polarity) events.Event { e.Pol = p; return e }
	const lo, hi = math.MinInt64, math.MaxInt64
	const p62 = 1 << 62
	type checkCase struct {
		name string
		w, h int
		evs  []events.Event
	}
	cases := []checkCase{
		{"empty", 4, 4, nil},
		{"one", 4, 4, []events.Event{ev(3, 3, 0)}},
		{"x at the edge", 4, 4, []events.Event{ev(0, 0, 0), ev(4, 3, 1)}},
		{"y at the edge", 4, 4, []events.Event{ev(0, 0, 0), ev(3, 4, 1)}},
		{"x and y at once", 4, 4, []events.Event{ev(4, 4, 0)}},
		{"widest sensor", math.MaxUint16, math.MaxUint16, []events.Event{ev(math.MaxUint16-1, math.MaxUint16-1, 0), ev(math.MaxUint16, 0, 1)}},
		{"no geometry", 0, 0, []events.Event{ev(0, 0, 0)}},
		{"polarity 0", 4, 4, []events.Event{ev(0, 0, 0), pol(ev(1, 1, 1), 0)}},
		{"polarity 2", 4, 4, []events.Event{pol(ev(0, 0, 0), 2)}},
		{"polarity -2", 4, 4, []events.Event{pol(ev(0, 0, 0), -2)}},
		{"polarity 127", 4, 4, []events.Event{pol(ev(0, 0, 0), 127)}},
		{"polarity -128", 4, 4, []events.Event{pol(ev(0, 0, 0), -128)}},
		{"both polarities", 4, 4, []events.Event{pol(ev(0, 0, 0), events.Off), ev(1, 1, 0)}},
		{"geometry before polarity", 4, 4, []events.Event{pol(ev(9, 0, 0), 0)}},
		{"first failure wins", 4, 4, []events.Event{ev(0, 0, 5), ev(0, 0, 4), ev(9, 9, 6), pol(ev(0, 0, 7), 0)}},
		{"equal timestamps", 4, 4, []events.Event{ev(0, 0, 7), ev(1, 1, 7), ev(2, 2, 7)}},
		{"out of order", 4, 4, []events.Event{ev(0, 0, 10), ev(1, 1, 12), ev(2, 2, 11)}},
		{"int64 ends in order", 4, 4, []events.Event{ev(0, 0, lo), ev(0, 0, lo), ev(0, 0, hi), ev(0, 0, hi)}},
		{"int64 ends reversed", 4, 4, []events.Event{ev(0, 0, hi), ev(0, 0, lo)}},
		{"one past the low end", 4, 4, []events.Event{ev(0, 0, lo+1), ev(0, 0, lo)}},
		{"one below the high end", 4, 4, []events.Event{ev(0, 0, hi), ev(0, 0, hi-1)}},
		{"across ±2^62 in order", 4, 4, []events.Event{ev(0, 0, -p62-1), ev(0, 0, p62+1)}},
		{"across ±2^62 reversed", 4, 4, []events.Event{ev(0, 0, p62+1), ev(0, 0, -p62-1)}},
		{"across zero reversed", 4, 4, []events.Event{ev(0, 0, 1), ev(0, 0, -1)}},
		{"low end to high end reversed", 4, 4, []events.Event{ev(0, 0, lo), ev(0, 0, hi), ev(0, 0, -1)}},
	}
	// Bodies of three decode segments and a bit, failing in the second
	// segment, on the first event of the third (against the last of the
	// second) or not at all.
	long := func(mutate func([]events.Event)) []events.Event {
		evs := make([]events.Event, 3*segmentEvents+5)
		for i := range evs {
			evs[i] = ev(uint16(i%64), uint16(i/64%64), int64(i/3))
		}
		mutate(evs)
		return evs
	}
	cases = append(cases,
		checkCase{"long accepted", 64, 64, long(func([]events.Event) {})},
		checkCase{"long, geometry in segment 2", 64, 64, long(func(evs []events.Event) { evs[segmentEvents+77].Y = 64 })},
		checkCase{"long, order on a segment edge", 64, 64, long(func(evs []events.Event) { evs[2*segmentEvents].TS = 0 })},
		checkCase{"long, polarity at the end", 64, 64, long(func(evs []events.Event) { evs[len(evs)-1].Pol = 3 })},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { requireCheckMatches(t, c.w, c.h, c.evs) })
	}
}

// fuzzAnchors are the timestamps a fuzzed event may sit near: both
// int64 ends, ±2^62 and zero.
var fuzzAnchors = [8]int64{math.MinInt64, -1 << 62, -1, 0, 1 << 62, math.MaxInt64, 1<<62 - 1, -1<<62 - 1}

// fuzzEvents reads 7 bytes per event: x, y, two polarity bytes (while
// the first is even its next bit picks ±1; while it is odd the second
// byte is the polarity, any of the 256) and a timestamp step. A step
// byte below 0xf0 moves the timestamp by the signed 16-bit delta that
// follows it from the one before, wrapping; one at or above it puts
// the event that far from one of fuzzAnchors.
func fuzzEvents(data []byte) []events.Event {
	var evs []events.Event
	ts := int64(0)
	for ; len(data) >= 7; data = data[7:] {
		p := events.Polarity(1 - 2*int8(data[2]>>1&1))
		if data[2]&1 == 1 {
			p = events.Polarity(int8(data[3]))
		}
		d := int64(int16(binary.LittleEndian.Uint16(data[5:])))
		if data[4] >= 0xf0 {
			ts = fuzzAnchors[data[4]&7] + d
		} else {
			ts += d
		}
		evs = append(evs, events.Event{X: uint16(data[0]), Y: uint16(data[1]), Pol: p, TS: ts})
	}
	return evs
}

// FuzzChunkCheck holds the folded check to the per-event loop on
// arbitrary chunks, through both entry points and every scratch size
// of requireCheckMatches: the same nil or non-nil, error text and
// sentinel.
func FuzzChunkCheck(f *testing.F) {
	rec := func(x, y, pol, raw, step byte, d int16) []byte {
		return []byte{x, y, pol, raw, step, byte(d), byte(uint16(d) >> 8)}
	}
	f.Add(uint8(16), uint8(16), slices.Concat(rec(1, 2, 0, 0, 0, 5), rec(3, 4, 2, 0, 0, 0), rec(15, 15, 0, 0, 0, 9)))
	f.Add(uint8(16), uint8(16), slices.Concat(rec(1, 2, 0, 0, 0, 5), rec(16, 4, 2, 0, 0, 1)))
	f.Add(uint8(16), uint8(16), slices.Concat(rec(1, 2, 0, 0, 0, 5), rec(3, 4, 1, 0x7f, 0, 1)))
	f.Add(uint8(16), uint8(16), slices.Concat(rec(1, 2, 1, 0xff, 0, 5), rec(3, 4, 1, 2, 0, 0), rec(3, 4, 0, 0, 0, -1)))
	f.Add(uint8(8), uint8(8), slices.Concat(rec(1, 2, 0, 0, 0xf0, 0), rec(3, 4, 0, 0, 0xf5, 0))) // int64 ends in order
	f.Add(uint8(8), uint8(8), slices.Concat(rec(1, 2, 0, 0, 0xf5, 0), rec(3, 4, 0, 0, 0xf0, 0))) // and reversed
	f.Add(uint8(8), uint8(8), slices.Concat(rec(1, 2, 0, 0, 0xf7, 0), rec(3, 4, 0, 0, 0xf4, 1))) // across ±2^62
	f.Add(uint8(8), uint8(8), slices.Concat(rec(1, 2, 0, 0, 0xf4, 1), rec(3, 4, 0, 0, 0xf7, 0))) // and reversed
	f.Add(uint8(8), uint8(8), slices.Concat(rec(1, 2, 0, 0, 0xf5, 0), rec(3, 4, 0, 0, 0, 1)))    // wraps past the high end
	f.Add(uint8(0), uint8(0), rec(0, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte) {
		requireCheckMatches(t, int(w), int(h), fuzzEvents(data))
	})
}

// BenchmarkChunkCheck is the ingest check on one 20 ms chunk of the
// half-scale SpikeFlowNet scene, as each of serve_pump_batch's
// sessions ingests it: a caller's stream (stream) and an EVAR body
// decoded into a pooled-size scratch on the way (evar). It reports
// ns/event and must allocate nothing.
func BenchmarkChunkCheck(b *testing.B) {
	net := nn.MustByName(nn.SpikeFlowNet)
	seq, err := scene.NewSequence(net.Input.Preset, scene.Half, 7)
	if err != nil {
		b.Fatal(err)
	}
	s, err := seq.Generate(20_000)
	if err != nil || s.Len() == 0 {
		b.Fatalf("Generate: %d events, %v", s.Len(), err)
	}
	scratch := make([]events.Event, segmentEvents)
	for _, ep := range entryPoints {
		ch := ep.chunk(b, s)
		b.Run(ep.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := ch.check(scratch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Len()), "ns/event")
		})
	}
}
