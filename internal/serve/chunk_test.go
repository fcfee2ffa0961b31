package serve

import (
	"bytes"
	"errors"
	"net/http"
	"testing"

	"evedge/internal/events"
	"evedge/internal/nn"
)

// evarChunk is s as handleIngest takes it on the binary wire: encoded,
// read into a body buffer and parsed. The records alias a buffer of
// their own.
func evarChunk(t testing.TB, s *events.Stream) chunk {
	t.Helper()
	var body bytes.Buffer
	if err := events.WriteBinary(&body, s); err != nil {
		t.Fatal(err)
	}
	ch, err := readBody(&body, new(bytes.Buffer))
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
	chunk func(testing.TB, *events.Stream) chunk
}{
	{"stream", func(_ testing.TB, s *events.Stream) chunk { return streamChunk(s) }},
	{"evar", evarChunk},
}

// evStream returns a w x h stream holding evs.
func evStream(w, h int, evs ...events.Event) *events.Stream {
	s := events.NewStream(w, h)
	s.Events = append(s.Events, evs...)
	return s
}

// TestIngestEventChecks: each event of a chunk is checked as it is
// copied onto the session buffer — inside the declared sensor, a legal
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
				if err != nil || conv.buf.Len() != primer.Len()+c.chunk.Len() {
					t.Fatalf("%s/%s: %v, %d events buffered", c.name, ep.name, err, conv.buf.Len())
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

// TestIngestRefusedChunkLeavesBuffer: a chunk is decoded onto the
// session buffer behind the events already there and cut off again
// when any step refuses it — an event at its start, middle or end, the
// work bounds, the session's geometry or watermark. The buffer then
// holds neither part of the refused chunk nor a moved old event, and
// every later chunk frames exactly as on a converter that never saw
// the refused ones.
func TestIngestRefusedChunkLeavesBuffer(t *testing.T) {
	spec := nn.MustByName(nn.DOTIE).Input // 5 ms windows
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
	first := run(16, 16, 0, 40, 100) // 4 ms: buffered, no window closed yet
	refused := []*events.Stream{
		badAt(run(16, 16, 4_000, 20, 300), 0),
		badAt(run(16, 16, 4_000, 20, 300), 150),
		badAt(run(16, 16, 4_000, 20, 300), 299),
		run(16, 16, 4_000, 1e12, 2),             // a gap past the framing bound
		run(8, 16, 4_000, 20, 300),              // another geometry
		run(16, 16, 3_000, 20, 300),             // before the watermark
		evStream(16, 16, events.Event{TS: 5e3}), // no polarity, first and only event
	}
	next := []*events.Stream{run(16, 16, 4_000, 20, 300), run(16, 16, 10_000, 30, 400)}
	for _, ep := range entryPoints {
		hit, clean := &ingestConverter{spec: spec}, &ingestConverter{spec: spec}
		for _, c := range []*ingestConverter{hit, clean} {
			if _, err := c.ingest(ep.chunk(t, first)); err != nil {
				t.Fatalf("%s: first chunk: %v", ep.name, err)
			}
		}
		for i, bad := range refused {
			if _, err := hit.ingest(ep.chunk(t, bad)); err == nil {
				t.Fatalf("%s: chunk %d accepted", ep.name, i)
			}
			if got, want := convState(hit), convState(clean); got != want {
				t.Fatalf("%s: chunk %d left the buffer changed:\n got  %s\n want %s", ep.name, i, got, want)
			}
		}
		for i, c := range next {
			got, err := hit.ingest(ep.chunk(t, c))
			want, werr := clean.ingest(ep.chunk(t, c))
			if err != nil || werr != nil || len(got) != len(want) {
				t.Fatalf("%s: next chunk %d: %d frames (%v), want %d (%v)", ep.name, i, len(got), err, len(want), werr)
			}
			for k := range want {
				if !sameFrame(got[k], want[k]) {
					t.Fatalf("%s: next chunk %d frame %d differs after refused chunks", ep.name, i, k)
				}
			}
			if convState(hit) != convState(clean) {
				t.Fatalf("%s: next chunk %d: converters diverged", ep.name, i)
			}
		}
	}
}
