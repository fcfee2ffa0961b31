package serve

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"testing"

	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/sparse"
)

// wireChunk is s as IngestHandler takes it on the binary wire:
// encoded, read into a body buffer and parsed. The records alias a
// buffer of their own.
func wireChunk(t testing.TB, s *events.Stream) Chunk {
	t.Helper()
	var body bytes.Buffer
	if err := events.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}
	return mustReadChunk(t, body.Bytes())
}

// mustReadChunk reads a binary body as IngestHandler does, into a
// buffer of its own.
func mustReadChunk(t testing.TB, body []byte) Chunk {
	t.Helper()
	ch, err := readChunk(false, bytes.NewReader(body), new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// entryPoints are the two ways a chunk reaches a session converter:
// Server.Ingest copying a caller's stream, and a binary body whose
// records are decoded on the way in.
var entryPoints = []struct {
	name  string
	chunk func(testing.TB, *events.Stream) Chunk
}{
	{"stream", func(_ testing.TB, s *events.Stream) Chunk { return StreamChunk(s) }},
	{"evar", wireChunk},
}

// chunkEvents decodes every event a chunk carries, unchecked.
func chunkEvents(c Chunk) []events.Event {
	if c.evs != nil {
		return c.evs
	}
	evs := make([]events.Event, c.recs.Len())
	for i := range evs {
		evs[i] = c.recs.At(i)
	}
	return evs
}

// evStream returns a w x h stream holding evs.
func evStream(w, h int, evs ...events.Event) *events.Stream {
	s := events.NewStream(w, h)
	s.Events = append(s.Events, evs...)
	return s
}

// TestIngestEventChecks: each event of a chunk is checked where it
// lies, before anything changes — inside the declared sensor, a legal
// polarity, not before the event ahead of it — by one rule whichever
// way the chunk arrives. The first event that fails is reported, alike
// from both entry points, wrapping the sentinel ErrorStatus answers
// 400, and the buffer is left as it was.
func TestIngestEventChecks(t *testing.T) {
	on := func(x, y uint16, ts int64) events.Event { return events.Event{X: x, Y: y, Pol: events.On, TS: ts} }
	pol := func(e events.Event, p events.Polarity) events.Event { e.Pol = p; return e }
	primer := evStream(4, 4, on(0, 0, 0), on(1, 0, 2), on(2, 0, 4))
	for _, c := range []struct {
		name  string
		chunk *events.Stream
		want  error
	}{
		{"x outside", evStream(4, 4, on(1, 1, 10), on(4, 0, 11)), events.ErrGeometry},
		{"y outside", evStream(4, 4, on(1, 1, 10), on(0, 4, 11), on(2, 2, 12)), events.ErrGeometry},
		{"no polarity", evStream(4, 4, on(1, 1, 10), pol(on(1, 2, 11), 0)), events.ErrPolarity},
		{"polarity 2", evStream(4, 4, pol(on(1, 1, 10), 2)), events.ErrPolarity},
		{"out of order", evStream(4, 4, on(1, 1, 10), on(2, 2, 12), on(3, 3, 11)), events.ErrOrder},
		{"geometry before polarity", evStream(4, 4, pol(on(9, 0, 10), 0)), events.ErrGeometry},
		{"first failure wins", evStream(4, 4, on(1, 1, 10), pol(on(1, 1, 11), 0), on(9, 9, 12)), events.ErrPolarity},
		{"no geometry", evStream(0, 0), events.ErrNoGeometry},
		{"accepted", evStream(4, 4, on(1, 1, 10), on(3, 2, 10), pol(on(0, 3, 12), events.Off)), nil},
	} {
		msgs := map[string]string{}
		for _, ep := range entryPoints {
			conv := &ingestConverter{spec: nn.MustByName(nn.DOTIE).Input}
			if _, err := conv.ingest(ep.chunk(t, primer)); err != nil {
				t.Fatalf("%s: primer: %v", ep.name, err)
			}
			before := convState(conv)
			_, err := conv.ingest(ep.chunk(t, c.chunk))
			if c.want == nil {
				if err != nil || len(tail(conv)) != primer.Len()+c.chunk.Len() {
					t.Fatalf("%s/%s: %v, %d events buffered", c.name, ep.name, err, len(tail(conv)))
				}
				continue
			}
			if !errors.Is(err, c.want) || ErrorStatus(err) != http.StatusBadRequest {
				t.Fatalf("%s/%s: err = %v (HTTP %d), want %v (HTTP 400)", c.name, ep.name, err, ErrorStatus(err), c.want)
			}
			if after := convState(conv); after != before {
				t.Fatalf("%s/%s: refused chunk moved the converter:\n before %s\n after  %s", c.name, ep.name, before, after)
			}
			msgs[ep.name] = err.Error()
		}
		if msgs["stream"] != msgs["evar"] {
			t.Fatalf("%s: the entry points disagree: %q vs %q", c.name, msgs["stream"], msgs["evar"])
		}
	}
}

// TestIngestRefusedChunkLeavesBuffer: a chunk is checked whole before
// it changes anything, so one refused at any step — an event at its
// start, middle or end, the work bounds, the session's geometry or
// watermark — leaves the buffer holding neither part of it nor a moved
// old event, and every later chunk frames exactly as on a converter
// that never saw the refused ones. The refused chunks arrive on a
// time-framed session with events buffered, and on a count-framed one
// with a run open, where an accepted chunk would be framed straight
// from the chunk.
func TestIngestRefusedChunkLeavesBuffer(t *testing.T) {
	run := func(w, h int, t0, step int64, n int) *events.Stream {
		s := events.NewStream(w, h)
		for i := 0; i < n; i++ {
			s.Append(events.Event{X: uint16(i % w), Y: uint16(i / w % h), Pol: events.On, TS: t0 + int64(i)*step})
		}
		return s
	}
	badAt := func(s *events.Stream, i int) *events.Stream {
		s.Events[i].X = uint16(s.Width)
		return s
	}
	for _, c := range []struct {
		net   string
		w, h  int
		first *events.Stream   // buffered: an open window or run
		bound *events.Stream   // over the framing's work bounds
		next  []*events.Stream // accepted after the refused chunks
	}{
		// 4 ms: buffered, no window closed yet.
		{nn.DOTIE, 16, 16, run(16, 16, 0, 40, 100),
			run(16, 16, 4_000, 1e12, 2), // a gap past the framing bound
			[]*events.Stream{run(16, 16, 4_000, 20, 300), run(16, 16, 10_000, 30, 400)}},
		// 12 ms at 64x64, N = 40: two runs framed, 21 events buffered.
		{nn.SpikeFlowNet, 64, 64, run(64, 64, 0, 120, 101),
			evStream(64, 64, events.Event{Pol: events.On, TS: 12_000}, events.Event{Pol: events.On, TS: math.MaxInt64}),
			[]*events.Stream{run(64, 64, 12_000, 20, 300), run(64, 64, 18_000, 30, 400)}},
	} {
		spec := nn.MustByName(c.net).Input
		refused := []*events.Stream{
			badAt(run(c.w, c.h, c.first.TEnd(), 20, 300), 0),
			badAt(run(c.w, c.h, c.first.TEnd(), 20, 300), 150),
			badAt(run(c.w, c.h, c.first.TEnd(), 20, 300), 299),
			c.bound,
			run(c.w/2, c.h, c.first.TEnd(), 20, 300), // another geometry
			run(c.w, c.h, c.first.TEnd()-1_000, 20, 300),                 // before the watermark
			evStream(c.w, c.h, events.Event{TS: c.first.TEnd() + 1_000}), // no polarity, first and only event
		}
		for _, ep := range entryPoints {
			hit, clean := &ingestConverter{spec: spec}, &ingestConverter{spec: spec}
			for _, conv := range []*ingestConverter{hit, clean} {
				if _, err := conv.ingest(ep.chunk(t, c.first)); err != nil {
					t.Fatalf("%s/%s: first chunk: %v", c.net, ep.name, err)
				}
			}
			if len(tail(hit)) == 0 {
				t.Fatalf("%s/%s: first chunk left nothing buffered, want an open unit", c.net, ep.name)
			}
			for i, bad := range refused {
				if _, err := hit.ingest(ep.chunk(t, bad)); err == nil {
					t.Fatalf("%s/%s: chunk %d accepted", c.net, ep.name, i)
				}
				if got, want := convState(hit), convState(clean); got != want {
					t.Fatalf("%s/%s: chunk %d left the buffer changed:\n got  %s\n want %s", c.net, ep.name, i, got, want)
				}
			}
			for i, ch := range c.next {
				got, err := hit.ingest(ep.chunk(t, ch))
				want, werr := clean.ingest(ep.chunk(t, ch))
				if err != nil || werr != nil || len(got) != len(want) || len(want) == 0 {
					t.Fatalf("%s/%s: next chunk %d: %d frames (%v), want %d > 0 (%v)", c.net, ep.name, i, len(got), err, len(want), werr)
				}
				for k := range want {
					if !sameFrame(got[k], want[k]) {
						t.Fatalf("%s/%s: next chunk %d frame %d differs after refused chunks", c.net, ep.name, i, k)
					}
				}
				if convState(hit) != convState(clean) {
					t.Fatalf("%s/%s: next chunk %d: converters diverged", c.net, ep.name, i)
				}
			}
		}
	}
}

// splitStream returns a 24x24 stream of n events over [0, span) µs on
// a 7 µs grid, so timestamps repeat, plus three events on each
// multiple of window up to span: equal timestamps on every window edge.
func splitStream(seed int64, n int, span, window int64) *events.Stream {
	rng := rand.New(rand.NewSource(seed))
	s := events.NewStream(24, 24)
	for range n {
		s.Append(events.Event{X: uint16(rng.Intn(24)), Y: uint16(rng.Intn(24)),
			Pol: events.Polarity(1 - 2*rng.Intn(2)), TS: 7 * rng.Int63n(span/7)})
	}
	for edge := window; edge < span; edge += window {
		for range 3 {
			s.Append(events.Event{X: uint16(rng.Intn(24)), Y: uint16(rng.Intn(24)), Pol: events.On, TS: edge})
		}
	}
	s.Sort()
	return s
}

// cutAt splits evs at the given ascending indices.
func cutAt(w, h int, evs []events.Event, cuts ...int) []*events.Stream {
	var out []*events.Stream
	prev := 0
	for _, c := range append(cuts, len(evs)) {
		out = append(out, evStream(w, h, evs[prev:c]...))
		prev = c
	}
	return out
}

// TestIngestChunkSplitInvariance: where a stream is cut into chunks
// does not change what it frames. The converter frames whole runs and
// windows straight from each chunk and keeps only the open one, so a
// run or window that straddles chunks, EVAR decode segments or both
// must come out exactly as if the stream had arrived whole: the same
// frames with the same bounds, the same flush, the same final state —
// whichever entry point the chunks take. The stream is cut as one
// chunk, as 1-event chunks, on and inside run or window boundaries,
// across a decode segment and at seeded random points.
func TestIngestChunkSplitInvariance(t *testing.T) {
	const n = 3 * segmentEvents
	for _, name := range []string{nn.SpikeFlowNet, nn.DOTIE, nn.HALSIE} {
		spec := nn.MustByName(name).Input
		s := splitStream(int64(len(name)), n, 8*spec.WindowUS, spec.WindowUS)
		rest := s.Events
		// unit returns the index in rest where framing unit k ends.
		unit := func(k int) int {
			if spec.Framing == nn.FrameByCount {
				return k * spec.EventsPerFrame(s.Width, s.Height)
			}
			edge := int64(k) * spec.WindowUS
			return sort.Search(len(rest), func(i int) bool { return rest[i].TS >= edge })
		}
		if unit(2)-unit(1) < 4 {
			t.Fatalf("%s: framing units of %d events are too small to cut inside", name, unit(2)-unit(1))
		}
		rng := rand.New(rand.NewSource(7))
		random := make([]int, 12)
		for i := range random {
			random[i] = rng.Intn(len(rest))
		}
		slices.Sort(random)
		w, h := s.Width, s.Height
		splits := map[string][]*events.Stream{
			"whole":    cutAt(w, h, rest),
			"on units": cutAt(w, h, rest, unit(1), unit(2), unit(4)),
			// The second piece holds more than one decode segment and
			// starts inside a unit.
			"inside units": cutAt(w, h, rest, unit(1)-1, unit(1)+segmentEvents+3,
				unit(1)+segmentEvents+3+(unit(2)-unit(1))/2),
			"random": cutAt(w, h, rest, random...),
		}
		ones := make([]int, len(rest)-1)
		for i := range ones {
			ones[i] = i + 1
		}
		splits["1-event"] = cutAt(w, h, rest, ones...)

		for _, ep := range entryPoints {
			feed := func(chunks []*events.Stream) ([]*sparse.Frame, string) {
				c := &ingestConverter{spec: spec}
				var frames []*sparse.Frame
				for i, ch := range chunks {
					fs, err := c.ingest(ep.chunk(t, ch))
					if err != nil {
						t.Fatalf("%s/%s: chunk %d: %v", name, ep.name, i, err)
					}
					frames = append(frames, fs...)
				}
				state := convState(c)
				return append(frames, c.close()...), state
			}
			want, wantState := feed(splits["whole"])
			if len(want) < 8 {
				t.Fatalf("%s/%s: whole stream framed only %d frames", name, ep.name, len(want))
			}
			for split, chunks := range splits {
				got, state := feed(chunks)
				if len(got) != len(want) {
					t.Fatalf("%s/%s/%s: %d frames, want %d", name, ep.name, split, len(got), len(want))
				}
				for k := range want {
					if !sameFrame(got[k], want[k]) {
						t.Fatalf("%s/%s/%s: frame %d [%d, %d) differs from [%d, %d) of the whole stream",
							name, ep.name, split, k, got[k].T0, got[k].T1, want[k].T0, want[k].T1)
					}
				}
				if state != wantState {
					t.Fatalf("%s/%s/%s: final state\n got  %s\n want %s", name, ep.name, split, state, wantState)
				}
			}
		}
	}
}

// TestIngestBufferHoldsOnlyTail: a chunk of about 10^5 events leaves
// the session buffer holding less than one run or window of events,
// and its capacity no larger than two units, as append may double a
// slice past what it must hold while the open unit is completed. It
// never scales with the chunk. Each chunk ends inside a window or run,
// so the next completes a unit begun in the buffer.
func TestIngestBufferHoldsOnlyTail(t *testing.T) {
	const n = 100_001 // not a multiple of a run
	for _, name := range []string{nn.SpikeFlowNet, nn.DOTIE, nn.HALSIE} {
		spec := nn.MustByName(name).Input
		for _, ep := range entryPoints {
			c := &ingestConverter{spec: spec}
			span := spec.WindowUS * 21 / 2 // 10.5 windows per chunk
			var all []events.Event
			var bigs []*events.Stream
			next := int64(0)
			for round := range 2 {
				big := splitStream(int64(round), n, span, span)
				for i := range big.Events {
					big.Events[i].TS += next
				}
				next = big.TEnd()
				bigs = append(bigs, big)
				all = append(all, big.Events...)
			}
			// A unit is a run of N events, or the most events any window
			// of the stream can hold.
			unit := 0
			if spec.Framing == nn.FrameByCount {
				unit = spec.EventsPerFrame(bigs[0].Width, bigs[0].Height)
			} else {
				for i, j := 0, 0; i < len(all); i++ {
					for j < len(all) && all[j].TS < all[i].TS+spec.WindowUS {
						j++
					}
					unit = max(unit, j-i)
				}
			}
			for round, big := range bigs {
				if _, err := c.ingest(ep.chunk(t, big)); err != nil {
					t.Fatalf("%s/%s: round %d: %v", name, ep.name, round, err)
				}
				if held := tail(c); len(held) == 0 || len(held) >= unit {
					t.Fatalf("%s/%s: round %d: %d events buffered, want an open unit of fewer than %d", name, ep.name, round, len(held), unit)
				}
				if cap(tail(c)) > 2*unit {
					t.Fatalf("%s/%s: round %d: after a %d-event chunk the buffer has capacity for %d events, over two units of %d",
						name, ep.name, round, n, cap(tail(c)), unit)
				}
			}
		}
	}
}

// TestCountFramingAtZooN: a count-framed session frames every run of
// the zoo's N events from its first event on, whatever its first chunk
// holds: one event, one event at 10^18 µs, or two events 10^18 µs
// apart (a rate read off that chunk would make N 1).
func TestCountFramingAtZooN(t *testing.T) {
	const w, h = 173, 130 // the geometry N is stated at
	on := func(ts int64) events.Event {
		return events.Event{X: uint16(ts % w), Y: uint16(ts / w % h), Pol: events.On, TS: ts}
	}
	for _, name := range []string{nn.SpikeFlowNet, nn.FusionFlowNet, nn.AdaptiveSpikeNet, nn.EVFlowNet} {
		spec := nn.MustByName(name).Input
		n := spec.FrameEvents
		for _, c := range []struct {
			name  string
			first []events.Event
		}{
			{"1 event", []events.Event{on(0)}},
			{"at 1e18", []events.Event{on(1e18)}},
			{"1e18 apart", []events.Event{on(0), on(1e18)}},
		} {
			for _, ep := range entryPoints {
				ctx := name + "/" + c.name + "/" + ep.name
				conv := &ingestConverter{spec: spec}
				frames, err := conv.ingest(ep.chunk(t, evStream(w, h, c.first...)))
				if err != nil || len(frames) != 0 || cap(tail(conv)) != n {
					t.Fatalf("%s: first chunk framed %d, its run sized for %d events (%v), want none, sized for N %d", ctx, len(frames), cap(tail(conv)), err, n)
				}
				// Two runs and three events more: the first run closes on
				// the first chunk's events, the second straight from this.
				rest := make([]events.Event, 2*n+3-len(c.first))
				t0 := c.first[len(c.first)-1].TS
				for i := range rest {
					rest[i] = on(t0 + int64(i)/4)
				}
				frames, err = conv.ingest(ep.chunk(t, evStream(w, h, rest...)))
				if err != nil || len(frames) != 2 {
					t.Fatalf("%s: %d events framed %d (%v), want 2 runs of %d", ctx, 2*n+3, len(frames), err, n)
				}
				for i, f := range frames {
					if int(f.EventCount()) != n {
						t.Fatalf("%s: frame %d holds %v events, want %d", ctx, i, f.EventCount(), n)
					}
				}
				if frames[0].T0 != c.first[0].TS || len(tail(conv)) != 3 {
					t.Fatalf("%s: first frame starts at %dus, want %dus; %d events buffered, want 3", ctx, frames[0].T0, c.first[0].TS, len(tail(conv)))
				}
			}
		}
	}
}
