package serve

import (
	"bytes"
	"fmt"
	"sync"

	"evedge/internal/events"
)

// The per-session event journal behind lossless failover and
// server-push result delivery. Every ingested chunk and every emitted
// result draws from one monotonic per-session sequence; chunk entries
// are acknowledged (retired) once every frame they produced has left
// the pipeline (completed or shed), and result entries are retained in
// a bounded ring for SSE catch-up (GET /v1/sessions/{id}/stream).
//
// The journal itself stores only chunk *marks* (sequence number plus
// the cumulative frame count at append) — the chunk payloads needed
// for failover replay live in a buddy node's replica store as
// ReplicaEntry values, so a dead node's own memory is never consulted.
// A chunk entry carries the EVAR body the client sent, byte for byte,
// and Server.Replay resumes a session from such a log. Results
// replicate there too (Config.OnResult): they carry the
// session's sequence watermark across a failover — the resumed
// journal seeds strictly past every seq the dead incarnation handed
// out, chunk or result — and they refill the resumed ring so SSE
// catch-up spans the kill. Both sides are bounded: marks retire at
// the ack watermark, the result ring overwrites its oldest entry,
// and replica logs trim chunk entries to the ack watermark and cap
// result entries at the ring size on every replicated append.

// ResultEvent is one completed inference batch pushed to stream
// subscribers: the raw frames that finished, their completion instant
// in session stream time, and the batch's mean per-raw latency. Seq
// orders it within the session's journal sequence.
type ResultEvent struct {
	Seq    uint64  `json:"seq"`
	DoneUS float64 `json:"done_us"`
	LatUS  float64 `json:"lat_us"`
	Frames int     `json:"frames"`
}

// journalResultCap bounds the retained result ring per session. A
// reconnecting client can catch up gaplessly as long as it resumes
// within this many results of the live edge.
const journalResultCap = 1024

// chunkMark is one unacknowledged ingest chunk: its sequence number
// and the session's cumulative frames_in right after it was ingested.
// The chunk retires when completed-or-shed frames reach framesCum.
type chunkMark struct {
	seq       uint64
	framesCum uint64
}

// JournalStats is one session journal's observable state.
type JournalStats struct {
	Seq      uint64 // last sequence number assigned
	AckSeq   uint64 // ack watermark: every chunk at or below it retired
	Unacked  int    // chunk marks not yet retired
	Retained int    // result events in the catch-up ring
}

// journal is the per-session sequence state. It has its own leaf lock
// because stream subscribers read it from HTTP goroutines without the
// session lock; session-side writers already hold sess.mu, making the
// two-lock cost one uncontended acquisition.
type journal struct {
	mu      sync.Mutex
	seq     uint64
	ackSeq  uint64
	chunks  []chunkMark
	results []ResultEvent // ring, oldest at head
	head    int
	n       int
	closed  bool
	// notify is the channel the waiting subscribers hold, made by the
	// first wait after a broadcast: nil while nobody waits, so an
	// append with no subscriber allocates nothing.
	notify chan struct{}
}

// appendChunk assigns the next sequence number to an ingested chunk
// and records its ack mark.
func (j *journal) appendChunk(framesCum uint64) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	j.chunks = append(j.chunks, chunkMark{seq: j.seq, framesCum: framesCum})
	return j.seq
}

// ack retires every chunk whose frames have all completed or been
// shed, returning the new ack watermark.
func (j *journal) ack(completed uint64) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := 0
	for i < len(j.chunks) && j.chunks[i].framesCum <= completed {
		j.ackSeq = j.chunks[i].seq
		i++
	}
	if i > 0 {
		rest := copy(j.chunks, j.chunks[i:])
		j.chunks = j.chunks[:rest]
	}
	return j.ackSeq
}

// appendResult assigns the next sequence number to a completed batch,
// retains it in the catch-up ring and wakes stream subscribers.
func (j *journal) appendResult(doneUS, latUS float64, frames int) uint64 {
	j.mu.Lock()
	j.seq++
	j.pushLocked(ResultEvent{Seq: j.seq, DoneUS: doneUS, LatUS: latUS, Frames: frames})
	seq := j.seq
	j.broadcastLocked()
	j.mu.Unlock()
	return seq
}

// restore re-inserts a result replicated before a failover, keeping
// its original sequence number, and raises the sequence counter past
// it so nothing appended later can recycle a seq a client already
// consumed. Callers feed entries in ascending seq order (the replica
// log is sorted) so the ring stays ordered for resultsSince.
func (j *journal) restore(ev ResultEvent) {
	j.mu.Lock()
	if ev.Seq > j.seq {
		j.seq = ev.Seq
	}
	j.pushLocked(ev)
	j.broadcastLocked()
	j.mu.Unlock()
}

// pushLocked retains one result in the catch-up ring; callers hold
// j.mu and have already fixed ev.Seq.
func (j *journal) pushLocked(ev ResultEvent) {
	if len(j.results) < journalResultCap {
		j.results = append(j.results, ev)
		j.n++
	} else {
		j.results[j.head] = ev
		j.head = (j.head + 1) % journalResultCap
	}
}

// resultsSince appends every retained result with Seq > after to dst,
// oldest first.
func (j *journal) resultsSince(after uint64, dst []ResultEvent) []ResultEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.results)
	for i := 0; i < n; i++ {
		ev := j.results[(j.head+i)%n]
		if ev.Seq > after {
			dst = append(dst, ev)
		}
	}
	return dst
}

// seed raises the sequence counter so entries appended after a
// failover replay sort strictly after everything the old incarnation
// emitted.
func (j *journal) seed(seq uint64) {
	j.mu.Lock()
	if seq > j.seq {
		j.seq = seq
	}
	j.mu.Unlock()
}

// wait returns a channel closed on the next append or close. Grab it
// before reading resultsSince to avoid a lost wakeup.
func (j *journal) wait() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.notify == nil {
		j.notify = make(chan struct{})
	}
	return j.notify
}

// close marks the journal final (session closed) and wakes streams so
// they can drain and finish.
func (j *journal) close() {
	j.mu.Lock()
	if !j.closed {
		j.closed = true
		j.broadcastLocked()
	}
	j.mu.Unlock()
}

func (j *journal) isClosed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closed
}

// broadcastLocked wakes every subscriber, if any waits; callers hold
// j.mu.
func (j *journal) broadcastLocked() {
	if j.notify != nil {
		close(j.notify)
		j.notify = nil
	}
}

func (j *journal) stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{Seq: j.seq, AckSeq: j.ackSeq, Unacked: len(j.chunks), Retained: j.n}
}

// ReplicaEntry is one journal entry held in a buddy node's replica
// store: a chunk, as the EVAR body the client sent, or a result.
type ReplicaEntry struct {
	Seq uint64
	// Body is a chunk entry's EVAR body; nil for a result entry.
	Body []byte
	// Result is a result entry's event (Body == nil).
	Result ResultEvent
}

// ChunkReplica is the replica entry of ingest chunk c, journaled under
// seq: an EVAR body copied as it was received, the header-count-0 form
// included, or a chunk of events (a stream, a JSON body) encoded once.
// The entry owns its bytes, so the body buffer c views can go back to
// its pool.
func ChunkReplica(seq uint64, c Chunk) (ReplicaEntry, error) {
	if c.evar != nil {
		return ReplicaEntry{Seq: seq, Body: bytes.Clone(c.evar)}, nil
	}
	var buf bytes.Buffer
	if err := events.WriteBinary(&buf, &events.Stream{Width: c.w, Height: c.h, Events: c.evs}); err != nil {
		return ReplicaEntry{}, err
	}
	return ReplicaEntry{Seq: seq, Body: buf.Bytes()}, nil
}

// Replay resumes session id from a replicated journal log, sorted by
// seq, and returns the frames it recovered. The journal's sequence
// counter seeds from the log's last seq — results included, since they
// share the chunk sequence — so nothing the resumed session assigns
// collides with a seq a streaming client has already consumed; result
// entries refill the catch-up ring under their original seqs, all of
// them before any chunk, so a result of a replayed chunk, which takes
// a seq past the log's, lands after them; chunk entries re-enter
// IngestChunk, their EVAR framing and every event checked as on first
// ingest. An entry that fails either check is skipped: replay recovers
// what it can of an already-failed node and is never a new failure.
// Replay does nothing on an unknown or unjournaled session.
func (s *Server) Replay(id string, log []ReplicaEntry) uint64 {
	sess, ok := s.Session(id)
	if !ok || sess.journal == nil || len(log) == 0 {
		return 0
	}
	sess.journal.seed(log[len(log)-1].Seq)
	for _, e := range log {
		if e.Body == nil {
			sess.journal.restore(e.Result)
		}
	}
	var recovered uint64
	for _, e := range log {
		if e.Body == nil {
			continue
		}
		c, err := evarChunk(e.Body)
		if err != nil {
			continue
		}
		if res, err := s.IngestChunk(id, c); err == nil {
			recovered += uint64(res.Frames)
		}
	}
	return recovered
}

// SessionJournalStats reports session id's journal state.
func (s *Server) SessionJournalStats(id string) (JournalStats, error) {
	sess, ok := s.Session(id)
	if !ok {
		return JournalStats{}, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	if sess.journal == nil {
		return JournalStats{}, ErrJournalDisabled
	}
	return sess.journal.stats(), nil
}

// --- replica store ---

// replicaStore holds other sessions' journal entries on a buddy node,
// keyed by fleet-wide session ID. It lives on the buddy server (not
// the router) so a dead buddy genuinely loses its replicas — exactly
// the failure model a real fleet has.
//
// Every call carries the router's epoch (its route table version). A
// take or drop fences the session at its epoch, and an append older
// than the session's fence is refused: it was routed before the take
// or drop and belongs to a superseded incarnation. Fences outlive
// their logs; the store keeps the newest MaxClosed and refuses an
// append below the highest one it forgot.
type replicaStore struct {
	mu     sync.Mutex
	logs   map[string]*replicaLog
	fences map[string]uint64
	order  []string // fenced sessions, oldest first
	floor  uint64
}

// replicaLog is one session's replica log as two queues sorted by
// seq: the chunk entries, trimmed from the front as the ack watermark
// passes them, and the result entries, at most journalResultCap, the
// oldest shed first. An append touches only the ends of one queue, so
// it costs O(1) amortized however long the log is; the two merge by
// seq only when the log is read (ReplicaTake, ReplicaLog).
type replicaLog struct {
	chunks, results seqQueue
}

// entries returns the log's entries merged in sequence order, nil when
// it holds none.
func (l *replicaLog) entries() []ReplicaEntry {
	if l == nil || l.chunks.n+l.results.n == 0 {
		return nil
	}
	out := make([]ReplicaEntry, 0, l.chunks.n+l.results.n)
	c, r := 0, 0
	for c < l.chunks.n && r < l.results.n {
		if ce, re := l.chunks.at(c), l.results.at(r); re.Seq < ce.Seq {
			out, r = append(out, *re), r+1
		} else {
			out, c = append(out, *ce), c+1
		}
	}
	for ; c < l.chunks.n; c++ {
		out = append(out, *l.chunks.at(c))
	}
	for ; r < l.results.n; r++ {
		out = append(out, *l.results.at(r))
	}
	return out
}

// seqQueue is a ring of replica entries kept sorted by seq, oldest at
// head. A push inserts from the tail, O(1) in the common in-order case
// (concurrent ingests can replicate out of order); a pop advances the
// head. The ring doubles when full, so its size is the next power of
// two at or above the most entries it has held.
type seqQueue struct {
	buf  []ReplicaEntry // len is zero or a power of two
	head int
	n    int
}

// at returns the i-th oldest entry.
func (q *seqQueue) at(i int) *ReplicaEntry { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// pop drops the oldest entry, releasing its body to the collector.
func (q *seqQueue) pop() {
	*q.at(0) = ReplicaEntry{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

func (q *seqQueue) push(e ReplicaEntry) {
	if q.n == len(q.buf) {
		grown := make([]ReplicaEntry, max(4, 2*len(q.buf)))
		for i := range q.n {
			grown[i] = *q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	i := q.n
	for ; i > 0 && q.at(i-1).Seq > e.Seq; i-- {
		*q.at(i) = *q.at(i - 1)
	}
	*q.at(i) = e
	q.n++
}

// fencedLocked reports whether an append for extID at epoch is refused.
func (rs *replicaStore) fencedLocked(extID string, epoch uint64) bool {
	fence, ok := rs.fences[extID]
	if !ok {
		fence = rs.floor
	}
	return epoch < fence
}

// fenceLocked raises extID's fence to epoch and removes its log.
func (rs *replicaStore) fenceLocked(extID string, epoch uint64) []ReplicaEntry {
	log := rs.logs[extID].entries()
	delete(rs.logs, extID)
	if rs.fences == nil {
		rs.fences = map[string]uint64{}
	}
	if _, ok := rs.fences[extID]; !ok {
		rs.order = append(rs.order, extID)
		if len(rs.order) > MaxClosed {
			rs.floor = max(rs.floor, rs.fences[rs.order[0]])
			delete(rs.fences, rs.order[0])
			rs.order = rs.order[1:]
		}
	}
	rs.fences[extID] = max(rs.fences[extID], epoch)
	return log
}

// ReplicaAppend stores journal entry e for extID, routed at epoch,
// inserted by sequence number (concurrent ingests can replicate out of
// order; Replay reads the log front to back, so it must be sorted), and
// trims the log so it stays bounded: chunk entries retire at or below
// the ack watermark, result entries are capped at the catch-up ring
// size (they exist to re-seed the resumed journal's ring and seq
// counter, so they outlive their chunk's ack). It reports false, and
// stores nothing, when epoch is below the session's fence.
func (s *Server) ReplicaAppend(extID string, e ReplicaEntry, ackSeq, epoch uint64) bool {
	rs := &s.replicas
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.fencedLocked(extID, epoch) {
		return false
	}
	if rs.logs == nil {
		rs.logs = map[string]*replicaLog{}
	}
	log := rs.logs[extID]
	if log == nil {
		log = &replicaLog{}
		rs.logs[extID] = log
	}
	// The chunk queue is sorted, so the entries at or below the ack
	// are its front.
	for log.chunks.n > 0 && log.chunks.at(0).Seq <= ackSeq {
		log.chunks.pop()
	}
	if e.Body != nil {
		log.chunks.push(e)
		return true
	}
	if log.results.n == journalResultCap {
		log.results.pop()
	}
	log.results.push(e)
	return true
}

// ReplicaTake removes and returns extID's replica log in sequence
// order — the input of Replay — and fences the session at epoch.
func (s *Server) ReplicaTake(extID string, epoch uint64) []ReplicaEntry {
	rs := &s.replicas
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.fenceLocked(extID, epoch)
}

// ReplicaLog returns a copy of extID's replica log in sequence order
// and leaves the store as it is.
func (s *Server) ReplicaLog(extID string) []ReplicaEntry {
	rs := &s.replicas
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.logs[extID].entries()
}

// ReplicaDrop discards extID's replica log (session closed or moved
// gracefully) and fences the session at epoch.
func (s *Server) ReplicaDrop(extID string, epoch uint64) {
	rs := &s.replicas
	rs.mu.Lock()
	rs.fenceLocked(extID, epoch)
	rs.mu.Unlock()
}

// ReplicaStats reports how many sessions and entries the node holds
// replicas for.
func (s *Server) ReplicaStats() (sessions, entries int) {
	rs := &s.replicas
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, log := range rs.logs {
		sessions++
		entries += log.chunks.n + log.results.n
	}
	return
}
