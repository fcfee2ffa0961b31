package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"

	"evedge/internal/events"
)

// Chunk is one ingest chunk before it is checked: the sensor geometry
// it declares and its events, which are either a caller's stream
// (Server.Ingest, the JSON wire format, the scenario harness) or the
// records of an EVAR body (the binary wire format, a journal replica
// entry), kept with the body's bytes. The session converter copies the
// events onto its buffer with appendTo — decoding records on the way —
// and checks each event as it is copied, so a binary body is decoded
// once and into nothing but the buffer the session keeps. A Chunk is a
// view: it is valid as long as the stream or body it came from.
type Chunk struct {
	w, h int
	evs  []events.Event
	recs events.Records
	evar []byte // the whole EVAR body recs lie in; nil for a stream
}

// StreamChunk is the chunk of a caller's stream; the converter copies
// its events and keeps nothing of the stream.
func StreamChunk(s *events.Stream) Chunk {
	return Chunk{w: s.Width, h: s.Height, evs: s.Events}
}

// evarChunk frames a whole EVAR body as a chunk whose records alias it.
func evarChunk(body []byte) (Chunk, error) {
	w, h, recs, err := events.ParseBinary(body)
	return Chunk{w: w, h: h, recs: recs, evar: body}, err
}

// len is the number of events in the chunk.
func (c Chunk) len() int { return len(c.evs) + c.recs.Len() }

// tEnd is the last event's timestamp, 0 for an empty chunk (the
// convention of events.Stream.TEnd).
func (c Chunk) tEnd() int64 {
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
func (c Chunk) appendTo(dst []events.Event) ([]events.Event, error) {
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

// bodies recycles the buffers ingest bodies are read into. A buffer
// is borrowed for one request: the session converter copies the events
// it buffers and replication copies the bytes it keeps, so nothing
// references the body once the request is answered.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// IngestHandler is the ingest endpoint, POST /v1/sessions/{id}/events,
// of a node and of the cluster router alike. It reads the whole body
// before any session is looked up, so a body that does not decode is
// answered 400, and one over MaxBodyBytes 413, whatever the session. A
// JSON body becomes a chunk of events; a binary one is read into a
// pooled buffer and only its EVAR framing is checked here. ingest then
// takes the chunk onto the session, and the buffer goes back to the
// pool once ingest has returned.
func IngestHandler(ingest func(id string, c Chunk) (IngestResult, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		buf := bodies.Get().(*bytes.Buffer)
		defer releaseBody(buf)
		c, err := readChunk(isJSON(r.Header.Get("Content-Type")), http.MaxBytesReader(w, r.Body, MaxBodyBytes), buf)
		if err != nil {
			status := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				status = http.StatusRequestEntityTooLarge
			}
			writeError(w, status, err)
			return
		}
		res, err := ingest(r.PathValue("id"), c)
		if err != nil {
			writeError(w, ErrorStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// readChunk reads one ingest body, JSON or EVAR binary. A binary body
// is read whole into buf, which the chunk's records alias.
func readChunk(asJSON bool, r io.Reader, buf *bytes.Buffer) (Chunk, error) {
	if asJSON {
		var c ChunkJSON
		if err := json.NewDecoder(r).Decode(&c); err != nil {
			return Chunk{}, fmt.Errorf("decoding JSON chunk: %w", err)
		}
		s, err := c.Stream()
		if err != nil {
			return Chunk{}, err
		}
		return StreamChunk(s), nil
	}
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		return Chunk{}, fmt.Errorf("reading EVAR body: %w", err)
	}
	return evarChunk(buf.Bytes())
}

// releaseBody returns a body buffer to the pool unless it grew past
// maxPooledBody.
func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodies.Put(buf)
	}
}
