package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"evedge/internal/events"
	"evedge/internal/nn"
)

// TestJournalAckWatermark exercises the chunk-mark lifecycle: marks
// retire in order once the completed count reaches their cumulative
// frame watermark, and the ack sequence never regresses.
func TestJournalAckWatermark(t *testing.T) {
	j := new(journal)
	if seq := j.appendChunk(10); seq != 1 {
		t.Fatalf("first chunk seq = %d", seq)
	}
	if seq := j.appendChunk(25); seq != 2 {
		t.Fatalf("second chunk seq = %d", seq)
	}
	j.appendChunk(40)
	if ack := j.ack(9); ack != 0 {
		t.Fatalf("ack below first watermark = %d", ack)
	}
	if ack := j.ack(25); ack != 2 {
		t.Fatalf("ack at second watermark = %d", ack)
	}
	st := j.stats()
	if st.Unacked != 1 || j.ackSeq != 2 || st.Seq != 3 {
		t.Fatalf("stats after partial ack: %+v", st)
	}
	// Acks are monotonic: a stale (lower) completed count is a no-op.
	if ack := j.ack(10); ack != 2 {
		t.Fatalf("ack regressed to %d", ack)
	}
	if ack := j.ack(40); ack != 3 {
		t.Fatalf("final ack = %d", ack)
	}
	if st := j.stats(); st.Unacked != 0 {
		t.Fatalf("marks not drained: %+v", st)
	}
}

// TestJournalWakeup: a channel taken by wait before an append is
// closed by that append (no lost wakeup), and once the ring is full an
// append with nobody waiting allocates nothing — no notify channel is
// made for a subscriber that does not exist.
func TestJournalWakeup(t *testing.T) {
	j := new(journal)
	wake := j.wait()
	j.appendResult(1, 1, 1)
	select {
	case <-wake:
	default:
		t.Fatal("an append did not close the channel wait returned before it")
	}
	if again := j.wait(); again == wake {
		t.Fatal("wait after a broadcast returned the closed channel")
	}
	for i := 0; i < journalResultCap; i++ {
		j.appendResult(1, 1, 1)
	}
	if a := testing.AllocsPerRun(100, func() { j.appendResult(1, 1, 1) }); a != 0 {
		t.Fatalf("appendResult with no subscriber: %v allocs, want 0", a)
	}
}

// TestJournalResultRing checks the catch-up ring: interleaved chunk and
// result entries share one sequence, resultsSince honors the cursor,
// and the ring overwrites oldest-first at capacity.
func TestJournalResultRing(t *testing.T) {
	j := new(journal)
	j.appendChunk(5) // seq 1
	for i := 0; i < 3; i++ {
		j.appendResult(float64(i), 1, 1) // seq 2,3,4
	}
	got := j.resultsSince(0, nil)
	if len(got) != 3 || got[0].Seq != 2 || got[2].Seq != 4 {
		t.Fatalf("resultsSince(0) = %+v", got)
	}
	if got := j.resultsSince(3, nil); len(got) != 1 || got[0].Seq != 4 {
		t.Fatalf("resultsSince(3) = %+v", got)
	}

	// Fill past capacity: the ring keeps the newest journalResultCap.
	full := new(journal)
	for i := 0; i < journalResultCap+10; i++ {
		full.appendResult(float64(i), 1, 1)
	}
	got = full.resultsSince(0, nil)
	if len(got) != journalResultCap {
		t.Fatalf("ring retained %d, want %d", len(got), journalResultCap)
	}
	if got[0].Seq != 11 || got[len(got)-1].Seq != journalResultCap+10 {
		t.Fatalf("ring window [%d, %d], want [11, %d]",
			got[0].Seq, got[len(got)-1].Seq, journalResultCap+10)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("ring out of order at %d: %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
	}
}

// TestJournalSeed checks the failover seed only raises the counter.
func TestJournalSeed(t *testing.T) {
	j := new(journal)
	j.seed(7)
	if seq := j.appendChunk(1); seq != 8 {
		t.Fatalf("seq after seed(7) = %d", seq)
	}
	j.seed(3) // lower seed is a no-op
	if seq := j.appendChunk(2); seq != 9 {
		t.Fatalf("seq after stale seed = %d", seq)
	}
}

// TestChunkReplicaRoundTrip: a chunk replica's Body is the EVAR body
// the client sent, byte for byte — the header-count-0 form (records run
// to the end), which WriteBinary never writes, included — and a chunk
// of events is encoded once. The entry owns its bytes, and its body
// frames back into the events it carried.
func TestChunkReplicaRoundTrip(t *testing.T) {
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 21, 20_000)
	var canonical bytes.Buffer
	if err := events.WriteBinary(&canonical, stream); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	countZero := bytes.Clone(canonical.Bytes())
	binary.LittleEndian.PutUint64(countZero[10:], 0)
	for _, form := range []struct {
		name  string
		chunk Chunk
		body  []byte
	}{
		{"stream", StreamChunk(stream), canonical.Bytes()},
		{"evar", wireChunk(t, stream), canonical.Bytes()},
		{"evar count 0", mustReadChunk(t, countZero), countZero},
	} {
		e, err := ChunkReplica(42, form.chunk)
		if err != nil {
			t.Fatalf("%s: ChunkReplica: %v", form.name, err)
		}
		if e.Seq != 42 || !bytes.Equal(e.Body, form.body) {
			t.Fatalf("%s: replica seq %d, body is not the expected EVAR body", form.name, e.Seq)
		}
		if b := form.chunk.evar; b != nil {
			b[0] ^= 0xff // the pooled body buffer is reused
			if e.Body[0] == b[0] {
				t.Fatalf("%s: replica aliases the body buffer", form.name)
			}
		}
		c, err := evarChunk(e.Body)
		if err != nil || c.w != stream.Width || c.h != stream.Height || !slices.Equal(chunkEvents(c), stream.Events) {
			t.Fatalf("%s: replica body frames to %dx%d/%d (%v), want the %d events sent", form.name, c.w, c.h, c.len(), err, stream.Len())
		}
	}
	if _, err := ChunkReplica(1, StreamChunk(events.NewStream(1<<16, 1))); err == nil {
		t.Fatal("a geometry the EVAR header cannot hold was replicated")
	}
}

// TestReplay resumes a session from a replica log as failover does: it
// recovers the frames the chunks made live, seeds the journal past the
// log's last seq, refills the ring with the log's results, and skips a
// body that fails its EVAR framing or the ingest checks.
func TestReplay(t *testing.T) {
	srv, _, live, stop := newJournalServer(t, DefaultConfig())
	defer stop()
	resumed, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	var log []ReplicaEntry
	var frames uint64
	for _, ch := range chunks(genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 5, 60_000), 60_000, 20_000) {
		res, err := srv.Ingest(live.ID, ch)
		e, rerr := ChunkReplica(res.Seq, StreamChunk(ch))
		if err != nil || rerr != nil {
			t.Fatal(err, rerr)
		}
		frames += uint64(res.Frames)
		log = append(log, e)
	}
	restored := ResultEvent{Seq: 4, DoneUS: 9, LatUS: 2, Frames: 3}
	log = append(log, ReplicaEntry{Seq: 4, Result: restored},
		ReplicaEntry{Seq: 5, Body: []byte("EVAR")}, // truncated header
		ReplicaEntry{Seq: 6, Body: log[0].Body})    // before the watermark
	got := srv.Replay(resumed.ID, log)
	st, _ := srv.SessionJournalStats(resumed.ID)
	ring := mustJournalResults(t, srv, resumed.ID)
	if got != frames || frames == 0 || st.Seq != 6+3 || len(ring) != 1 || ring[0] != restored {
		t.Fatalf("replay recovered %d frames (live %d), journal at seq %d (want the log's 6 + 3 chunks), ring %+v (want %+v)",
			got, frames, st.Seq, ring, restored)
	}
	if srv.Replay("nope", log) != 0 {
		t.Fatal("replay onto an unknown session recovered frames")
	}
}

// TestIngestJournalSequencing checks the server-side wiring: journaled
// ingests carry sequence numbers and the ack watermark advances once
// frames drain.
func TestIngestJournalSequencing(t *testing.T) {
	srv, cl, sess, stop := newJournalServer(t, DefaultConfig())
	defer stop()
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 5, 90_000)
	var lastSeq uint64
	for _, ch := range chunks(stream, 90_000, 30_000) {
		res, err := cl.SendEvents(sess.ID, ch)
		if err != nil {
			t.Fatalf("SendEvents: %v", err)
		}
		if res.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d", res.Seq, lastSeq)
		}
		lastSeq = res.Seq
	}
	st, err := srv.SessionJournalStats(sess.ID)
	if err != nil {
		t.Fatalf("SessionJournalStats: %v", err)
	}
	if st.Unacked == 0 {
		t.Fatal("no unacked chunks with a queued backlog")
	}
	srv.Pump()
	if _, err := cl.CloseSession(sess.ID); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	st, err = srv.SessionJournalStats(sess.ID)
	if err != nil {
		t.Fatalf("SessionJournalStats after close: %v", err)
	}
	if st.Retained == 0 {
		t.Fatal("no results retained after a full drain")
	}
}

// TestStreamResultsCatchUp is the SSE contract: a client that
// disconnects mid-stream and reconnects with since=<last seq> sees
// exactly the remaining events — the union of the two passes equals a
// full from-zero read with no gaps and no duplicates.
func TestStreamResultsCatchUp(t *testing.T) {
	srv, cl, sess, stop := newJournalServer(t, DefaultConfig())
	defer stop()
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 8, 120_000)
	for _, ch := range chunks(stream, 120_000, 20_000) {
		if _, err := cl.SendEvents(sess.ID, ch); err != nil {
			t.Fatalf("SendEvents: %v", err)
		}
	}
	srv.Pump()
	st, err := srv.SessionJournalStats(sess.ID)
	if err != nil {
		t.Fatalf("SessionJournalStats: %v", err)
	}
	if st.Retained < 2 {
		t.Fatalf("need >= 2 retained results for a split stream, got %d", st.Retained)
	}

	// Pass 1: read roughly half, then drop the connection mid-stream.
	errStop := errors.New("drop connection")
	var first []ResultEvent
	half := st.Retained / 2
	err = cl.StreamResults(context.Background(), sess.ID, 0, func(ev ResultEvent) error {
		first = append(first, ev)
		if len(first) == half {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("pass 1 err = %v, want errStop", err)
	}

	// The session closes; the resumed stream must drain the remainder
	// and then terminate on the close event.
	if _, err := cl.CloseSession(sess.ID); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	var second []ResultEvent
	err = cl.StreamResults(context.Background(), sess.ID, first[len(first)-1].Seq, func(ev ResultEvent) error {
		second = append(second, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("pass 2: %v", err)
	}

	var full []ResultEvent
	err = cl.StreamResults(context.Background(), sess.ID, 0, func(ev ResultEvent) error {
		full = append(full, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("full read: %v", err)
	}

	union := append(append([]ResultEvent{}, first...), second...)
	if len(union) != len(full) {
		t.Fatalf("union has %d events, full read %d", len(union), len(full))
	}
	for i := range full {
		if union[i] != full[i] {
			t.Fatalf("event %d differs: resumed %+v vs full %+v", i, union[i], full[i])
		}
		if i > 0 && union[i].Seq <= union[i-1].Seq {
			t.Fatalf("sequence not strictly increasing at %d: %d after %d",
				i, union[i].Seq, union[i-1].Seq)
		}
	}
}

// TestStreamResultsErrors pins the stream endpoint's failure statuses.
func TestStreamResultsErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ManualDrain = true
	srv, cl, stop := newTestServer(t, cfg)
	defer stop()

	nop := func(ResultEvent) error { return nil }
	if err := cl.StreamResults(context.Background(), "nope", 0, nop); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown session stream err = %v, want 404", err)
	}
	// Journal off: streaming is a 409, not a hang.
	snap, err := cl.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if err := cl.StreamResults(context.Background(), snap.ID, 0, nop); err == nil ||
		!strings.Contains(err.Error(), "409") {
		t.Fatalf("disabled journal stream err = %v, want 409", err)
	}
	if _, err := srv.SessionJournalStats(snap.ID); !errors.Is(err, ErrJournalDisabled) {
		t.Fatalf("journal stats err = %v, want ErrJournalDisabled", err)
	}
}

// sseRaceWriter runs onData on ServeStream's first result write,
// between its read of the results and its check of the close.
type sseRaceWriter struct {
	*httptest.ResponseRecorder
	onData func()
}

func (w *sseRaceWriter) Write(b []byte) (int, error) {
	if f := w.onData; f != nil && bytes.Contains(b, []byte("data:")) {
		w.onData = nil
		f()
	}
	return w.ResponseRecorder.Write(b)
}

// TestStreamSendsResultRacingClose: a result appended and the journal
// closed while the stream writes the result before it (the last
// completion racing CloseSession) is still sent before the close.
func TestStreamSendsResultRacingClose(t *testing.T) {
	srv, _, sess, stop := newJournalServer(t, DefaultConfig())
	defer stop()
	j := sess.journal
	j.appendResult(1, 1, 1)
	w := &sseRaceWriter{ResponseRecorder: httptest.NewRecorder(), onData: func() {
		j.appendResult(2, 1, 1)
		j.close()
	}}
	srv.ServeStream(w, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+sess.ID+"/stream", nil), sess.ID)
	body := w.Body.String()
	if n := strings.Count(body, "id: "); n != 2 || !strings.HasSuffix(body, "event: close\ndata: {}\n\n") {
		t.Fatalf("stream sent %d of 2 results before closing:\n%s", n, body)
	}
}

// TestStreamResultsDroppedIsError: a stream that ends without the close
// event (here the node stops mid-stream) is io.ErrUnexpectedEOF, not
// the nil of a close, so the caller knows to reconnect.
func TestStreamResultsDroppedIsError(t *testing.T) {
	srv, cl, sess, stop := newJournalServer(t, DefaultConfig())
	defer stop()
	sess.journal.appendResult(1, 1, 1)
	got := 0
	err := cl.StreamResults(context.Background(), sess.ID, 0, func(ResultEvent) error {
		got++
		srv.Close()
		return nil
	})
	if got != 1 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("stream of a stopped node: %d results, err %v; want 1 and io.ErrUnexpectedEOF", got, err)
	}
}

// TestJournalRestore checks the failover ring-refill path: restored
// results keep their original sequence numbers, raise the counter past
// themselves, and interleave correctly with freshly appended results.
func TestJournalRestore(t *testing.T) {
	j := new(journal)
	j.restore(ResultEvent{Seq: 4, Frames: 2})
	j.restore(ResultEvent{Seq: 6, Frames: 3})
	if st := j.stats(); st.Seq != 6 {
		t.Fatalf("seq after restore = %d, want 6", st.Seq)
	}
	// A fresh append continues strictly after the restored watermark.
	if seq := j.appendResult(1, 1, 1); seq != 7 {
		t.Fatalf("appended seq = %d, want 7", seq)
	}
	got := j.resultsSince(0, nil)
	if len(got) != 3 || got[0].Seq != 4 || got[1].Seq != 6 || got[2].Seq != 7 {
		t.Fatalf("ring after restore+append: %+v", got)
	}
	// A catch-up cursor between restored seqs sees only the newer tail.
	if got := j.resultsSince(4, nil); len(got) != 2 || got[0].Seq != 6 {
		t.Fatalf("resultsSince(4) = %+v", got)
	}
}

// TestReplicaAppendSortedAndKindAware pins the replica-store ordering
// and trim contract: out-of-order appends (concurrent ingests can
// interleave replication) land in sequence order, the ack watermark
// retires only chunk entries, and result entries are capped at the
// catch-up ring size.
func TestReplicaAppendSortedAndKindAware(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ManualDrain = true
	srv, _, stop := newTestServer(t, cfg)
	defer stop()
	chunk := func(seq uint64) ReplicaEntry { return ReplicaEntry{Seq: seq, Body: []byte{byte(seq)}} }
	result := func(seq uint64) ReplicaEntry { return ReplicaEntry{Seq: seq, Result: ResultEvent{Seq: seq}} }

	// Out-of-order appends sort by seq.
	srv.ReplicaAppend("s", chunk(5), 0, 0)
	srv.ReplicaAppend("s", chunk(3), 0, 0)
	srv.ReplicaAppend("s", result(4), 0, 0)
	if log := srv.ReplicaTake("s", 0); !reflect.DeepEqual(log, []ReplicaEntry{chunk(3), result(4), chunk(5)}) {
		t.Fatalf("log not seq-sorted: %+v", log)
	}

	// The ack watermark retires chunks but keeps results: they carry
	// the sequence watermark and the catch-up ring across a failover.
	srv.ReplicaAppend("s", chunk(1), 0, 0)
	srv.ReplicaAppend("s", result(2), 0, 0)
	srv.ReplicaAppend("s", chunk(3), 2, 0)
	if log := srv.ReplicaTake("s", 0); !reflect.DeepEqual(log, []ReplicaEntry{result(2), chunk(3)}) {
		t.Fatalf("ack trim wrong: %+v", log)
	}

	// Result entries are bounded by the ring cap, oldest shed first.
	for i := 0; i < journalResultCap+10; i++ {
		srv.ReplicaAppend("s", result(uint64(i+1)), 0, 0)
	}
	log := srv.ReplicaTake("s", 0)
	if len(log) != journalResultCap {
		t.Fatalf("replica retained %d results, want %d", len(log), journalResultCap)
	}
	if log[0].Seq != 11 || log[len(log)-1].Seq != journalResultCap+10 {
		t.Fatalf("replica result window [%d, %d], want [11, %d]",
			log[0].Seq, log[len(log)-1].Seq, journalResultCap+10)
	}
}

// TestReplicaAppendFenced pins the replica store's epoch fence: a take
// or drop fences the session at its epoch, an append routed at an
// older epoch is refused and stores nothing, one at or past the fence
// lands, other sessions are not fenced, and the store forgets all but
// the newest MaxClosed fences while still refusing appends below the
// highest fence it forgot.
func TestReplicaAppendFenced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ManualDrain = true
	srv, _, stop := newTestServer(t, cfg)
	defer stop()
	chunk := ReplicaEntry{Seq: 1, Body: []byte{1}}

	if !srv.ReplicaAppend("s", chunk, 0, 3) {
		t.Fatal("an unfenced session refused an append")
	}
	if got := srv.ReplicaTake("s", 5); len(got) != 1 {
		t.Fatalf("take returned %d entries, want 1", len(got))
	}
	if srv.ReplicaAppend("s", chunk, 0, 4) {
		t.Fatal("an append routed before the take landed")
	}
	if !srv.ReplicaAppend("other", chunk, 0, 4) {
		t.Fatal("a take fenced another session")
	}
	if !srv.ReplicaAppend("s", chunk, 0, 5) {
		t.Fatal("an append at the take's epoch was refused")
	}
	srv.ReplicaDrop("s", 7)
	if srv.ReplicaAppend("s", chunk, 0, 6) || len(srv.ReplicaLog("s")) != 0 {
		t.Fatal("an append routed before the drop landed")
	}

	// Fence MaxClosed more sessions: "s" (fenced at 7) is forgotten,
	// and the floor it leaves still refuses what its fence refused.
	for i := 0; i < MaxClosed; i++ {
		srv.ReplicaDrop(fmt.Sprintf("x%d", i), 2)
	}
	if srv.ReplicaAppend("s", chunk, 0, 6) {
		t.Fatal("forgetting a fence let an append below it land")
	}
	if !srv.ReplicaAppend("s", chunk, 0, 7) {
		t.Fatal("an append at the floor was refused")
	}
	if sessions, _ := srv.ReplicaStats(); sessions != 2 {
		t.Fatalf("store holds %d logs, want 2 (other, s)", sessions)
	}
}

// TestReplicaAppendConstantTime: an append costs the same however
// long the log is. A session holding n unacked chunk entries (the ack
// trails the newest chunk by n) and a full result cap appends one chunk
// and one result per step; at n = 20 000 a step takes at most twice
// what it takes at n = 100, and once the log is warm a step allocates
// nothing. The two sizes are timed in turn, so load from elsewhere on
// the host falls on both.
func TestReplicaAppendConstantTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ManualDrain = true
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body := []byte{1}
	// stepper returns one step of a session holding held chunks.
	stepper := func(id string, held uint64) func() {
		var seq uint64
		return func() {
			seq++
			ack := seq - min(seq, 2*held) // chunks take the odd seqs
			srv.ReplicaAppend(id, ReplicaEntry{Seq: seq, Body: body}, ack, 0)
			seq++
			srv.ReplicaAppend(id, ReplicaEntry{Seq: seq, Result: ResultEvent{Seq: seq}}, ack, 0)
		}
	}
	sizes := []uint64{100, 20000}
	steps := make([]func(), len(sizes))
	for i, held := range sizes {
		steps[i] = stepper(fmt.Sprint(held), held)
		// Warm: both rings reach their steady length and size.
		for range 3 * (held + journalResultCap) {
			steps[i]()
		}
	}
	if _, entries := srv.ReplicaStats(); entries != 20100+2*journalResultCap {
		t.Fatalf("logs hold %d entries, want %d", entries, 20100+2*journalResultCap)
	}
	const n = 20000
	best := []time.Duration{math.MaxInt64, math.MaxInt64}
	for range 5 {
		for i, step := range steps {
			start := time.Now()
			for range n {
				step()
			}
			best[i] = min(best[i], time.Since(start)/n)
		}
	}
	t.Logf("ns per chunk+result step: %d at 100 chunks held, %d at 20 000", best[0].Nanoseconds(), best[1].Nanoseconds())
	if best[1] > 2*best[0] {
		t.Fatalf("a step at 20 000 chunks held takes %v, more than twice the %v at 100", best[1], best[0])
	}
	for i, step := range steps {
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Fatalf("a warm step at %d chunks held allocates %.3f times, want 0", sizes[i], allocs)
		}
	}
}

// TestOnResultHook checks the replication hook fires once per
// journaled result, outside the session lock, with the event's
// assigned sequence and the live ack watermark.
func TestOnResultHook(t *testing.T) {
	var mu sync.Mutex
	type call struct {
		id  string
		ev  ResultEvent
		ack uint64
	}
	var calls []call
	cfg := DefaultConfig()
	cfg.OnResult = func(id string, ev ResultEvent, ack uint64) {
		mu.Lock()
		calls = append(calls, call{id, ev, ack})
		mu.Unlock()
	}
	srv, cl, sess, stop := newJournalServer(t, cfg)
	defer stop()
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 11, 60_000)
	if _, err := cl.SendEvents(sess.ID, stream); err != nil {
		t.Fatalf("SendEvents: %v", err)
	}
	srv.Pump()

	mu.Lock()
	defer mu.Unlock()
	if len(calls) == 0 {
		t.Fatal("OnResult never fired across a full drain")
	}
	ring := mustJournalResults(t, srv, sess.ID)
	if len(calls) != len(ring) {
		t.Fatalf("hook fired %d times, ring retained %d", len(calls), len(ring))
	}
	for i, c := range calls {
		if c.id != sess.ID {
			t.Fatalf("call %d session = %q, want %q", i, c.id, sess.ID)
		}
		if c.ev != ring[i] {
			t.Fatalf("call %d event %+v != ring %+v", i, c.ev, ring[i])
		}
	}
}

// newJournalServer is newTestServer with ManualDrain and the journal
// on, holding one DOTIE level-1 session.
func newJournalServer(t *testing.T, cfg Config) (*Server, *Client, *Session, func()) {
	t.Helper()
	cfg.ManualDrain, cfg.Journal, cfg.QueueCap = true, true, 4096
	srv, cl, stop := newTestServer(t, cfg)
	sess, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		stop()
		t.Fatalf("CreateSession: %v", err)
	}
	return srv, cl, sess, stop
}

// mustJournalResults reads session id's full catch-up ring.
func mustJournalResults(t *testing.T, srv *Server, id string) []ResultEvent {
	t.Helper()
	sess, ok := srv.Session(id)
	if !ok {
		t.Fatalf("no session %q", id)
	}
	return sess.journal.resultsSince(0, nil)
}

// TestClosedServerRejectsWork pins the kill-path ownership rule: a
// closed server refuses new sessions and new frames instead of
// queueing work nobody will drain.
func TestClosedServerRejectsWork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ManualDrain = true
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sess, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	srv.Close()
	if _, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 1}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("CreateSession on closed server: %v, want ErrServerClosed", err)
	}
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 2, 20_000)
	if _, err := srv.Ingest(sess.ID, stream); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Ingest on closed server: %v, want ErrServerClosed", err)
	}
}
