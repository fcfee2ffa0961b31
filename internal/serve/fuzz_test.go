package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"mime"
	"net/http"
	"net/http/httptest"
	"testing"

	"evedge/internal/events"
	"evedge/internal/nn"
)

// FuzzDecodeChunk hammers the ingest-body decoder — the first code
// that touches untrusted client bytes on a serving node — across both
// wire formats (content-type selects JSON vs EVAR binary). It must
// never panic; accepted JSON chunks must carry positive geometry
// (DecodeChunk's contract with the session converter), and no accepted
// chunk may panic the session converter it is handed to next: ingest
// must reject whatever e2sf.Fused's unchecked grid cannot take, and —
// whatever geometry and timestamps the body declares — bound the work
// (ingest's maxSessionPixels / maxFramesPerIngest), so no input is
// skipped here for being expensive.
func FuzzDecodeChunk(f *testing.F) {
	s := events.NewStream(8, 6)
	s.Append(events.Event{X: 1, Y: 2, TS: 100, Pol: events.On})
	var bin bytes.Buffer
	if err := events.WriteBinary(&bin, s); err != nil {
		f.Fatal(err)
	}
	f.Add("application/octet-stream", bin.Bytes())
	f.Add("", bin.Bytes()[:7])
	f.Add("application/json", []byte(`{"width":8,"height":6,"events":[{"x":1,"y":2,"ts":100,"p":1}]}`))
	f.Add("application/json", []byte(`{"width":-1,"height":6,"events":[]}`))
	f.Add("application/json; charset=utf-8", []byte(`{"width":8,"height":6}`))
	f.Add("application/json", []byte(`{`))
	f.Add("text/plain;;;", []byte("garbage"))
	f.Add("application/json", []byte(`{"width":8,"height":8,"events":[{"x":1,"y":1,"ts":0,"p":1},{"x":9,"y":7,"ts":6000,"p":1}]}`))
	f.Add("application/json", []byte(`{"width":40000,"height":40000,"events":[{"x":1,"y":1,"ts":0,"p":1}]}`))
	f.Add("application/json", []byte(`{"width":8,"height":8,"events":[{"x":1,"y":1,"ts":0,"p":1},{"x":1,"y":1,"ts":1000000000000000000,"p":1}]}`))

	specs := []nn.InputSpec{nn.MustByName(nn.DOTIE).Input, nn.MustByName(nn.SpikeFlowNet).Input}
	f.Fuzz(func(t *testing.T, contentType string, body []byte) {
		s, err := DecodeChunk(contentType, bytes.NewReader(body))
		if err != nil {
			return
		}
		if mt, _, merr := mime.ParseMediaType(contentType); merr == nil && mt == "application/json" {
			if s.Width <= 0 || s.Height <= 0 {
				t.Fatalf("accepted JSON chunk with geometry %dx%d", s.Width, s.Height)
			}
		}
		for _, spec := range specs {
			conv := &ingestConverter{spec: spec} // time and count framing
			if _, err := conv.ingest(streamChunk(s)); err == nil {
				_, _ = conv.flush() // an error is a rejection; only a panic fails
			}
		}
	})
}

// wireRecord is one 13-byte EVAR record, which WriteBinary cannot
// produce for a bad polarity or a timestamp order it does not check.
func wireRecord(x, y uint16, ts int64, pol int8) []byte {
	rec := make([]byte, 13)
	binary.LittleEndian.PutUint16(rec[0:], x)
	binary.LittleEndian.PutUint16(rec[2:], y)
	binary.LittleEndian.PutUint64(rec[4:], uint64(ts))
	rec[12] = byte(pol)
	return rec
}

// wireBody is an EVAR body for a w x h sensor whose header declares
// count records, followed by recs.
func wireBody(w, h int, count uint64, recs ...[]byte) []byte {
	var hdr bytes.Buffer
	if err := events.WriteBinary(&hdr, events.NewStream(w, h)); err != nil {
		panic(err)
	}
	b := hdr.Bytes()
	binary.LittleEndian.PutUint64(b[10:], count)
	for _, r := range recs {
		b = append(b, r...)
	}
	return b
}

// FuzzIngestWire: a binary body reaches a session two ways — POSTed to
// the node, where its records are decoded straight into the session
// buffer, or decoded by DecodeChunk into a stream that Server.Ingest
// copies (the router's path). Both must answer alike: the same HTTP
// status, the same IngestResult, the same error text, and the session
// converter left in the same state. Each input is two bodies sent in
// turn to one session, so the second can fall behind the first's
// watermark, on a time-framed (DOTIE) or count-framed (SpikeFlowNet)
// network.
func FuzzIngestWire(f *testing.F) {
	body := func(s *events.Stream) []byte {
		var b bytes.Buffer
		if err := events.WriteBinary(&b, s); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	ok := body(evStream(16, 16,
		events.Event{X: 1, Y: 2, Pol: events.On, TS: 100},
		events.Event{X: 3, Y: 4, Pol: events.Off, TS: 3_000},
		events.Event{X: 5, Y: 6, Pol: events.On, TS: 6_000}))
	later := body(evStream(16, 16,
		events.Event{X: 7, Y: 8, Pol: events.Off, TS: 6_000},
		events.Event{X: 9, Y: 1, Pol: events.On, TS: 12_000}))
	earlier := body(evStream(16, 16, events.Event{X: 1, Y: 1, Pol: events.On, TS: 50}))
	for _, countFraming := range []bool{false, true} {
		f.Add(countFraming, ok, later)
		f.Add(countFraming, ok, ok[:len(ok)-4])                                                               // truncated record
		f.Add(countFraming, ok, ok[:9])                                                                       // truncated header
		f.Add(countFraming, ok, wireBody(16, 16, 5, wireRecord(1, 1, 7_000, 1)))                              // count mismatch
		f.Add(countFraming, ok, wireBody(16, 16, 0, wireRecord(1, 1, 7_000, 1), wireRecord(2, 2, 7_001, 3)))  // bad polarity
		f.Add(countFraming, ok, wireBody(16, 16, 2, wireRecord(1, 1, 8_000, 1), wireRecord(2, 2, 7_000, -1))) // out of order
		f.Add(countFraming, ok, wireBody(16, 16, 1, wireRecord(16, 0, 7_000, 1)))                             // outside the sensor
		f.Add(countFraming, ok, wireBody(8, 16, 1, wireRecord(1, 1, 7_000, 1)))                               // another geometry
		f.Add(countFraming, ok, earlier)                                                                      // before the watermark
		f.Add(countFraming, wireBody(16, 16, 2, wireRecord(1, 1, math.MaxInt64-1, 1), wireRecord(2, 2, math.MaxInt64, -1)), later)
		f.Add(countFraming, wireBody(16, 16, 1, wireRecord(1, 1, math.MinInt64, 1)), later)
		f.Add(countFraming, wireBody(16, 16, 2, wireRecord(1, 1, -5, 1), wireRecord(2, 2, 1e12, 1)), later) // over the framing bound
		f.Add(countFraming, wireBody(0, 0, 0), ok)                                                          // no geometry
		f.Add(countFraming, []byte("NOPE"), ok)
	}

	f.Fuzz(func(t *testing.T, countFraming bool, first, second []byte) {
		network := nn.DOTIE
		if countFraming {
			network = nn.SpikeFlowNet
		}
		open := func() (*Server, *Session) {
			srv, err := New(Config{ManualDrain: true})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := srv.CreateSession(SessionConfig{Network: network, Level: 2})
			if err != nil {
				t.Fatal(err)
			}
			return srv, sess
		}
		postSrv, postSess := open()
		defer postSrv.Close()
		decSrv, decSess := open()
		defer decSrv.Close()
		handler := postSrv.Handler()
		for i, b := range [][]byte{first, second} {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+postSess.ID+"/events", bytes.NewReader(b))
			req.Header.Set("Content-Type", "application/octet-stream")
			handler.ServeHTTP(rec, req)
			var post struct {
				IngestResult
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &post); err != nil {
				t.Fatalf("body %d: POST answered %d with %q: %v", i, rec.Code, rec.Body.Bytes(), err)
			}

			status, res, msg := http.StatusOK, IngestResult{}, ""
			chunk, err := DecodeChunk("application/octet-stream", bytes.NewReader(b))
			if err != nil {
				status, msg = http.StatusBadRequest, err.Error()
			} else if res, err = decSrv.Ingest(decSess.ID, chunk); err != nil {
				status, res, msg = ErrorStatus(err), IngestResult{}, err.Error()
			}
			if rec.Code != status || post.IngestResult != res || post.Error != msg {
				t.Fatalf("body %d: POST answered %d %+v %q; DecodeChunk + Ingest %d %+v %q",
					i, rec.Code, post.IngestResult, post.Error, status, res, msg)
			}
			if a, b := convState(postSess.conv), convState(decSess.conv); a != b {
				t.Fatalf("body %d: sessions diverged:\n POST   %s\n Ingest %s", i, a, b)
			}
		}
	})
}

// FuzzDecodeJournalEntry hammers the journal replication codec — the
// bytes a buddy node stores and replays at failover. It must never
// panic on hostile input (the chunk payload inherits the EVAR reader's
// bounded preallocation), and every accepted entry must survive a
// re-encode/re-decode round trip unchanged: replayed sessions are only
// as good as the codec's fidelity.
func FuzzDecodeJournalEntry(f *testing.F) {
	s := events.NewStream(8, 6)
	s.Append(events.Event{X: 1, Y: 2, TS: 100, Pol: events.On})
	if enc, err := EncodeJournalChunk(3, s); err == nil {
		f.Add(enc)
		f.Add(enc[:journalHeaderSize+2])
	}
	if enc, err := EncodeJournalResult(ResultEvent{Seq: 9, DoneUS: 1500, LatUS: 42.5, Frames: 4}); err == nil {
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
	}
	f.Add([]byte(journalMagic))
	f.Add([]byte("XXXXgarbage that is not a journal entry"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ent, err := DecodeJournalEntry(data)
		if err != nil {
			return
		}
		var reenc []byte
		switch ent.Kind {
		case JournalChunk:
			reenc, err = EncodeJournalChunk(ent.Seq, ent.Chunk)
		case JournalResult:
			reenc, err = EncodeJournalResult(ent.Result)
		default:
			t.Fatalf("decoder accepted unknown kind %d", ent.Kind)
		}
		if err != nil {
			t.Fatalf("accepted entry failed to re-encode: %v", err)
		}
		ent2, err := DecodeJournalEntry(reenc)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		if ent2.Kind != ent.Kind || ent2.Seq != ent.Seq {
			t.Fatalf("round trip changed header: %+v vs %+v", ent, ent2)
		}
		switch ent.Kind {
		case JournalChunk:
			a, b := ent.Chunk, ent2.Chunk
			if a.Width != b.Width || a.Height != b.Height || len(a.Events) != len(b.Events) {
				t.Fatalf("round trip changed chunk shape: %dx%d/%d vs %dx%d/%d",
					a.Width, a.Height, len(a.Events), b.Width, b.Height, len(b.Events))
			}
			for i := range a.Events {
				if a.Events[i] != b.Events[i] {
					t.Fatalf("round trip changed event %d: %+v vs %+v", i, a.Events[i], b.Events[i])
				}
			}
		case JournalResult:
			// Bit-level float comparison so NaN payloads still round-trip.
			a, b := ent.Result, ent2.Result
			if a.Seq != b.Seq || a.Frames != b.Frames ||
				math.Float64bits(a.DoneUS) != math.Float64bits(b.DoneUS) ||
				math.Float64bits(a.LatUS) != math.Float64bits(b.LatUS) {
				t.Fatalf("round trip changed result: %+v vs %+v", a, b)
			}
		}
	})
}
