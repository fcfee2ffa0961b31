package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"evedge/internal/events"
)

// chunk is one ingest chunk before it is checked: the sensor geometry
// it declares and its events, which are either a caller's stream
// (Server.Ingest: the router, the JSON wire format, in-process
// clients) or the records of an EVAR body (the binary wire format).
// The session converter copies them onto its buffer with appendTo —
// decoding records on the way — and checks each event as it is
// copied, so a binary body is decoded once and into nothing but the
// buffer the session keeps.
type chunk struct {
	w, h int
	evs  []events.Event
	recs events.Records
}

// streamChunk is the chunk of a caller's stream; the converter copies
// its events and keeps nothing of the stream.
func streamChunk(s *events.Stream) chunk {
	return chunk{w: s.Width, h: s.Height, evs: s.Events}
}

// len is the number of events in the chunk.
func (c chunk) len() int { return len(c.evs) + c.recs.Len() }

// tEnd is the last event's timestamp, 0 for an empty chunk (the
// convention of events.Stream.TEnd).
func (c chunk) tEnd() int64 {
	if n := len(c.evs); n > 0 {
		return c.evs[n-1].TS
	}
	if n := c.recs.Len(); n > 0 {
		return c.recs.At(n - 1).TS
	}
	return 0
}

// appendTo appends the chunk's events to dst, each checked by
// checkEvent as it is copied, and stops at the first that fails. It
// returns dst extended by the whole chunk either way: on error the
// caller cuts it back to its old length.
func (c chunk) appendTo(dst []events.Event) ([]events.Event, error) {
	base, n := len(dst), c.len()
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	prev := int64(math.MinInt64)
	if len(c.evs) > 0 {
		for i, e := range c.evs {
			if err := checkEvent(e, i, c.w, c.h, prev); err != nil {
				return dst, err
			}
			out[i], prev = e, e.TS
		}
		return dst, nil
	}
	for i := range out {
		e := c.recs.At(i)
		if err := checkEvent(e, i, c.w, c.h, prev); err != nil {
			return dst, err
		}
		out[i], prev = e, e.TS
	}
	return dst, nil
}

// checkEvent is the rule every ingested event meets, as event i of a
// chunk declaring a w x h sensor whose previous event is at prev:
// inside the sensor (e2sf.Fused indexes its grid unchecked), a legal
// polarity, and not before prev.
func checkEvent(e events.Event, i, w, h int, prev int64) error {
	if int(e.X) < w && int(e.Y) < h && e.Pol.Valid() && e.TS >= prev {
		return nil
	}
	return eventError(e, i, w, h, prev)
}

// eventError is checkEvent's error for an event that fails it, naming
// the first rule broken.
func eventError(e events.Event, i, w, h int, prev int64) error {
	switch {
	case int(e.X) >= w || int(e.Y) >= h:
		return fmt.Errorf("%w: event %d at (%d,%d) on %dx%d sensor", events.ErrGeometry, i, e.X, e.Y, w, h)
	case !e.Pol.Valid():
		return fmt.Errorf("%w: event %d has polarity %d", events.ErrPolarity, i, e.Pol)
	}
	return fmt.Errorf("%w: event %d at %dus after %dus", events.ErrOrder, i, e.TS, prev)
}

// maxPooledBody bounds the binary ingest bodies kept for reuse: above
// any chunk a camera posts at the zoo's rates (25 ms of the densest
// benchmark scene is under 150 KB), so steady serving reads every body
// into a warm buffer, while one huge body does not pin its size in the
// pool.
const maxPooledBody = 512 << 10

// bodies recycles the buffers binary ingest bodies are read into. A
// buffer is borrowed for one request: the session converter copies
// the events it buffers, so nothing references the body once the
// ingest returns.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads a whole binary ingest body into buf and parses its
// EVAR framing. The chunk's records alias buf.
func readBody(r io.Reader, buf *bytes.Buffer) (chunk, error) {
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		return chunk{}, fmt.Errorf("reading EVAR body: %w", err)
	}
	w, h, recs, err := events.ParseBinary(buf.Bytes())
	return chunk{w: w, h: h, recs: recs}, err
}

// releaseBody returns a body buffer to the pool unless it grew past
// maxPooledBody.
func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodies.Put(buf)
	}
}
