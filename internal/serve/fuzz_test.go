package serve

import (
	"bytes"
	"math"
	"mime"
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
			if _, err := conv.ingest(s); err == nil {
				_, _ = conv.flush() // an error is a rejection; only a panic fails
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
