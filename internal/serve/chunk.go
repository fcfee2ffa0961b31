package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"mime"
	"net/http"
	"sync"

	"evedge/internal/events"
)

// Chunk is one ingest chunk before it is checked: the sensor geometry
// it declares and its events, which are either a caller's stream
// (Server.Ingest, the JSON wire format, the scenario harness) or the
// records of an EVAR body (the binary wire format, a journal replica
// entry), kept with the body's bytes. A Chunk is a view: it is valid
// as long as the stream or body it came from. The session converter
// checks it in place, then converts its events straight from the view
// — a stream as one segment, an EVAR body decoded a segment at a time
// into pooled scratch — and copies only the events of the run or
// window the chunk leaves open.
type Chunk struct {
	w, h int
	evs  []events.Event
	recs events.Records
	evar []byte // the whole EVAR body recs lie in; nil for a stream
}

// StreamChunk is the chunk of a caller's stream; the converter keeps
// nothing of the stream once ingest returns.
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

// tStart is the first event's timestamp, 0 for an empty chunk (the
// convention of events.Stream.TStart).
func (c Chunk) tStart() int64 {
	if len(c.evs) > 0 {
		return c.evs[0].TS
	}
	if c.recs.Len() > 0 {
		return c.recs.At(0).TS
	}
	return 0
}

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

// check returns the first event of the chunk that fails checkEvent,
// or nil. It changes nothing but scratch, so a chunk is refused before
// any state has changed. One fold (passes) decides for a stream chunk
// whole, for an EVAR body that fits scratch once decoded into it, and
// for a larger body per decoded segment; checkEvent runs event by
// event only where the fold fails, to name the failure. An EVAR body
// that fits scratch is left decoded there, and segment then hands it
// out without decoding it again.
func (c Chunk) check(scratch []events.Event) error {
	if len(c.evs) > 0 {
		return checkEvents(c.evs, 0, c.w, c.h, math.MinInt64)
	}
	n := c.recs.Len()
	if n <= len(scratch) {
		return checkEvents(c.decode(0, scratch[:n]), 0, c.w, c.h, math.MinInt64)
	}
	prev := int64(math.MinInt64)
	for i := 0; i < n; {
		seg := c.decode(i, scratch[:min(len(scratch), n-i)])
		if err := checkEvents(seg, i, c.w, c.h, prev); err != nil {
			return err
		}
		i, prev = i+len(seg), seg[len(seg)-1].TS
	}
	return nil
}

// segment returns the chunk's events from event i on, i < len, once
// check has passed with the same scratch: a stream chunk's own events,
// or as many of an EVAR body's records as fit scratch, decoded into it.
func (c Chunk) segment(i int, scratch []events.Event) []events.Event {
	if len(c.evs) > 0 {
		return c.evs[i:]
	}
	n := c.recs.Len()
	if n <= len(scratch) {
		return scratch[:n] // decoded by check
	}
	return c.decode(i, scratch[:min(len(scratch), n-i)])
}

// decode fills seg with the EVAR records from record i on and returns
// it.
func (c Chunk) decode(i int, seg []events.Event) []events.Event {
	for k := range seg {
		seg[k] = c.recs.At(i + k)
	}
	return seg
}

// checkEvents returns the first event of evs that fails checkEvent,
// or nil. evs are a chunk's events from index base on, and prev is the
// timestamp of the event ahead of them. passes decides for all of them
// at once; only when it says no are they walked one by one.
func checkEvents(evs []events.Event, base, w, h int, prev int64) error {
	if passes(evs, w, h, prev) {
		return nil
	}
	for i, e := range evs {
		if err := checkEvent(e, base+i, w, h, prev); err != nil {
			return err
		}
		prev = e.TS
	}
	return nil
}

// passes reports whether every event of evs meets checkEvent's rule,
// the event ahead of evs being at prev, in one fold with no call and
// no branch per event: the largest X and Y, compared with w and h once
// at the end; an OR of every polarity's distance from ±1 (uint8(p)+1
// is 0 or 2 exactly for p = -1 or 1); and an OR of the borrow of each
// timestamp less the one before. The timestamps are compared as
// uint64(ts) ^ 1<<63, which orders like int64 from one end to the
// other, so the borrow is exact wherever two timestamps lie.
func passes(evs []events.Event, w, h int, prev int64) bool {
	const flip = 1 << 63
	var maxX, maxY uint16
	var pol uint8
	var borrow uint64
	last := uint64(prev) ^ flip
	for _, e := range evs {
		ts := uint64(e.TS) ^ flip
		_, b := bits.Sub64(ts, last, 0)
		borrow |= b
		last = ts
		maxX, maxY = max(maxX, e.X), max(maxY, e.Y)
		pol |= (uint8(e.Pol) + 1) &^ 2
	}
	return int(maxX) < w && int(maxY) < h && pol|uint8(borrow) == 0
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

// segmentEvents is how many records of an EVAR body are decoded at a
// time (256 KiB of events): above a 25 ms chunk of the densest zoo
// stream at half scale, so such a body is decoded once, by check.
const segmentEvents = 1 << 14

// segments recycles the scratch an EVAR body's records are decoded
// into. One is borrowed for one ingest call and referenced by nothing
// once the call returns, so sessions share a few instead of each
// keeping one.
var segments = sync.Pool{New: func() any { return new([segmentEvents]events.Event) }}

// maxPooledBody bounds the binary ingest bodies kept for reuse: above
// any chunk a camera posts at the zoo's rates (25 ms of the densest
// benchmark scene is under 150 KB), so steady serving reads every body
// into a warm buffer, while one huge body does not pin its size in the
// pool.
const maxPooledBody = 512 << 10

// bodies recycles the buffers ingest bodies are read into. A buffer
// is borrowed for one request: the session converter copies the events
// it keeps as its tail and replication copies the bytes it keeps, so
// nothing references the body once the request is answered.
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
			WriteError(w, status, err)
			return
		}
		res, err := ingest(r.PathValue("id"), c)
		if err != nil {
			WriteError(w, ErrorStatus(err), err)
			return
		}
		WriteJSON(w, http.StatusOK, res)
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

// isJSON reports whether an ingest body's media type selects the JSON
// wire format (parameters like charset are tolerated); anything else,
// unparseable types included, is EVAR binary.
func isJSON(contentType string) bool {
	mt, _, err := mime.ParseMediaType(contentType)
	return err == nil && mt == "application/json"
}

// EventJSON is one AER event on the JSON wire format: p is 1 (ON) or
// -1/0 (OFF), matching the text codec's convention.
type EventJSON struct {
	X  uint16 `json:"x"`
	Y  uint16 `json:"y"`
	TS int64  `json:"ts"`
	P  int8   `json:"p"`
}

// ChunkJSON is the JSON ingest payload.
type ChunkJSON struct {
	Width  int         `json:"width"`
	Height int         `json:"height"`
	Events []EventJSON `json:"events"`
}

// Stream converts the JSON chunk to an event stream.
func (c *ChunkJSON) Stream() (*events.Stream, error) {
	if c.Width <= 0 || c.Height <= 0 {
		return nil, fmt.Errorf("serve: JSON chunk has no sensor geometry")
	}
	s := events.NewStream(c.Width, c.Height)
	s.Events = make([]events.Event, len(c.Events))
	for i, e := range c.Events {
		pol := events.Off
		if e.P == 1 {
			pol = events.On
		}
		s.Events[i] = events.Event{X: e.X, Y: e.Y, TS: e.TS, Pol: pol}
	}
	return s, nil
}

// ChunkFromStream converts an event stream to the JSON wire format.
func ChunkFromStream(s *events.Stream) *ChunkJSON {
	c := &ChunkJSON{Width: s.Width, Height: s.Height, Events: make([]EventJSON, len(s.Events))}
	for i, e := range s.Events {
		p := int8(-1)
		if e.Pol == events.On {
			p = 1
		}
		c.Events[i] = EventJSON{X: e.X, Y: e.Y, TS: e.TS, P: p}
	}
	return c
}
