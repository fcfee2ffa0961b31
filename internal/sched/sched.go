// Package sched is the fleet-wide execution scheduler: the shared
// substrate that owns per-device run queues between serving sessions
// and the simulated accelerators. Producers (serving sessions,
// benchmarks) submit Requests; the scheduler coalesces compatible ones
// — same coalescing Key: primary device, network, plan signature —
// into micro-batches and hands each batch to a consumer-supplied
// Dispatch function exactly once. Keeping dispatch a callback keeps the
// substrate decoupled from any one consumer: serve merges pipeline
// invocations and prices them on the shared hw.Engine, tests dispatch
// synthetic work. Offline runs have nothing to coalesce and call the
// engine directly.
//
// One queue per device, one take step, one driver. Submit stamps a
// request with a submission sequence number and links it onto the
// queue of its Key.Device; it never dispatches. take is the only place
// a batch forms: a queue's head opens it and later requests with the
// head's Key join, in submission order, up to MaxBatch and none
// submitted at or after a sequence limit. Pump is the only driver. It
// runs passes: a pass fixes the limit at the sequence number current
// when it starts and takes from whichever idle queue's head is oldest
// until no head is below it; what callbacks submit meanwhile waits for
// the next pass. That pass boundary is the coalescing window.
//
// Pump runs on whoever calls it — a serving worker after it submits, a
// Wait or Drain, the scenario harness's single thread — and any number
// of goroutines may pump at once. A queue is busy while one of its
// batches is in Dispatch and Observe, and Pump skips busy queues, so
// each device has at most one batch in flight, a device's batches
// reach Dispatch in take order, and different devices dispatch
// concurrently (the engine is internally synchronized per device). On
// a single goroutine nothing is busy when Pump picks: a Pump nested in
// a Done callback starts after the outer batch left Dispatch.
//
// Pump, Wait, Drain and Close run the Dispatch, Observe, Done and
// Release callbacks of whatever they dispatch on the calling
// goroutine, other sessions' work included, so a caller must hold no
// lock that a callback takes. A request stays outstanding until its
// batch's callbacks return, so a Done callback must not Wait for its
// own session.
//
// A Key contains its Device, so everything that may join a batch sits
// in the head's own queue, and the oldest head across queues is the
// oldest queued request overall: a single-threaded Pump dispatches
// exactly as if it walked all queued requests in submission order,
// each opening a batch that pulls later compatible ones forward.
// Dispatch order is then a pure function of submission order, so the
// same (scenario, seed) pair replays byte-identically.
//
// Fairness: queues are FIFO by submission; coalescing only ever pulls
// *compatible* requests forward. An incompatible request behind a
// flash-crowd backlog of B compatible ones therefore waits at most
// ceil(B/MaxBatch) dispatches — it can never be starved by other
// sessions' merging (see the starvation test).
package sched

import (
	"fmt"
	"sync"
)

// Key identifies coalesceable work: requests with equal keys may ride
// one micro-batch. Device routes the request to its run queue (the
// plan's primary device); Net and Sig pin the network and the exact
// plan mapping so merged members price identically.
type Key struct {
	Device int
	Net    string
	Sig    string
}

// Request is one unit of submitted work.
type Request struct {
	// Session names the submitter; Wait blocks on it.
	Session string
	// Key is the coalescing identity (see Key).
	Key Key
	// Units is the request's raw-frame weight, reported in Stats.
	Units int
	// Payload carries the consumer's data (e.g. the invocation plus its
	// plan) through to Dispatch untouched.
	Payload any
	// Done, if non-nil, is called with the batch completion time after
	// the request's batch left Dispatch, members in submission order.
	// Batches pumped by different goroutines may complete at once; on a
	// single goroutine they complete in dispatch order, so the callbacks
	// are deterministic.
	Done func(endUS float64)

	seq  uint64   // submission sequence number, stamped by Submit
	next *Request // the request behind this one in its device's queue
}

// Config tunes a scheduler.
type Config struct {
	// Dispatch executes one micro-batch (1..MaxBatch compatible
	// requests, submission-ordered) and returns its completion time in
	// virtual microseconds. Required. The batch slice is scheduler
	// scratch reused across dispatches — consume it during the call,
	// never retain it.
	Dispatch func(batch []*Request) float64
	// MaxBatch caps micro-batch members; <= 0 takes DefaultMaxBatch,
	// 1 disables coalescing (the serialized baseline).
	MaxBatch int
	// Virtual is ignored: Pump is the only driver.
	Virtual bool
	// Observe, if non-nil, is called once per executed micro-batch —
	// after Dispatch returns with the batch completion time, before the
	// members' Done callbacks — so a tracing layer can record dispatch
	// instants with batch identity and occupancy. It runs outside the
	// scheduler lock on the dispatching goroutine, while the batch's
	// queue is still busy.
	Observe func(batch []*Request, endUS float64)
	// Release, if non-nil, is called exactly once per request after ALL
	// scheduler bookkeeping for it has finished — after Done and after
	// the outstanding/per-session counters were decremented (which read
	// r.Session) — so consumers can recycle Request structs through a
	// pool. The scheduler never touches a request after releasing it.
	Release func(r *Request)
}

// DefaultMaxBatch is the micro-batch cap when Config.MaxBatch is 0.
const DefaultMaxBatch = 8

// Stats is the scheduler's monotonic counter snapshot.
type Stats struct {
	// Submitted counts requests accepted; Dispatched counts requests
	// whose batch has executed (Submitted - Dispatched is the live
	// backlog); Dispatches counts batches handed to Dispatch.
	Submitted  uint64 `json:"submitted"`
	Dispatched uint64 `json:"dispatched"`
	Dispatches uint64 `json:"dispatches"`
	// Coalesced counts requests that rode a batch with at least one
	// other member.
	Coalesced uint64 `json:"coalesced"`
	// Units sums the dispatched requests' raw-frame weights.
	Units uint64 `json:"units"`
	// MaxBatchLen is the largest batch dispatched so far.
	MaxBatchLen int `json:"max_batch_len"`
}

// Occupancy is the mean number of requests per executed dispatch
// (1 = fully serialized, >1 = micro-batching is coalescing
// cross-submission work). It counts dispatched members, not accepted
// submissions, so a backlogged live server does not overstate it.
func (s Stats) Occupancy() float64 {
	if s.Dispatches == 0 {
		return 0
	}
	return float64(s.Dispatched) / float64(s.Dispatches)
}

// Merge folds another snapshot in (fleet aggregation across nodes and
// incarnations).
func (s *Stats) Merge(o Stats) {
	s.Submitted += o.Submitted
	s.Dispatched += o.Dispatched
	s.Dispatches += o.Dispatches
	s.Coalesced += o.Coalesced
	s.Units += o.Units
	if o.MaxBatchLen > s.MaxBatchLen {
		s.MaxBatchLen = o.MaxBatchLen
	}
}

// devQueue is one device's run queue: n requests in submission order,
// linked through Request.next, so queueing never allocates and a take
// costs what it walks past, not what is queued. busy marks a batch of
// this queue in Dispatch.
type devQueue struct {
	dev        int
	head, tail *Request
	n          int
	busy       bool
}

// Scheduler owns the run queues. Create with New, submit with Submit,
// dispatch with Pump, Wait or Drain.
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on completion
	stats  Stats
	queues []*devQueue // one per Key.Device seen, in first-submission order
	seq    uint64      // the next request's sequence number
	// outstanding counts submitted-but-not-completed requests, total
	// and per session; Wait and Drain block on them.
	outstanding int
	perSession  map[string]int
	// free holds idle batch buffers: each running Pump borrows one, a
	// Pump nested in a Done callback (Done → Wait → Pump) another, so
	// the outer batch's members stay put.
	free [][]*Request
}

// New validates cfg and returns a scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Dispatch == nil {
		return nil, fmt.Errorf("sched: Config.Dispatch is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	s := &Scheduler{cfg: cfg, perSession: map[string]int{}}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Stats returns the counter snapshot.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// QueueDepths reports pending requests per device — the queue-depth
// signal the control plane and the fleet router consume.
func (s *Scheduler) QueueDepths() map[int]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[int]int{}
	for _, q := range s.queues {
		if q.n > 0 {
			out[q.dev] = q.n
		}
	}
	return out
}

// Submit accepts one request onto its device's run queue. It never
// dispatches: the submitter pumps, or a later Pump, Wait or Drain does.
func (s *Scheduler) Submit(r *Request) {
	s.mu.Lock()
	s.stats.Submitted++
	s.outstanding++
	s.perSession[r.Session]++
	r.seq = s.seq
	s.seq++
	q := s.queue(r.Key.Device)
	if q.tail == nil {
		q.head = r
	} else {
		q.tail.next = r
	}
	q.tail = r
	q.n++
	s.mu.Unlock()
}

// queue returns dev's run queue, creating it on first use; a platform
// has a handful of devices, so the lookup is a scan. The caller holds
// s.mu.
func (s *Scheduler) queue(dev int) *devQueue {
	for _, q := range s.queues {
		if q.dev == dev {
			return q
		}
	}
	q := &devQueue{dev: dev}
	s.queues = append(s.queues, q)
	return q
}

// take forms one batch from a non-empty q: the head opens it, and later
// requests with the head's key join in submission order until the
// batch holds MaxBatch or the next request was submitted at or after
// limit. Everything else keeps its place. The caller holds s.mu.
func (s *Scheduler) take(q *devQueue, limit uint64, batch []*Request) []*Request {
	key := q.head.Key
	var prev *Request // the last request walked past and left queued
	for r := q.head; r != nil && len(batch) < s.cfg.MaxBatch && r.seq < limit; {
		next := r.next
		if r.Key != key {
			prev, r = r, next
			continue
		}
		if prev == nil {
			q.head = next
		} else {
			prev.next = next
		}
		if next == nil {
			q.tail = prev
		}
		r.next = nil
		q.n--
		batch = append(batch, r)
		r = next
	}
	return batch
}

// dispatch executes one batch taken from q, which the caller marked
// busy, and completes its members. q stays busy until Dispatch and
// Observe returned.
func (s *Scheduler) dispatch(q *devQueue, batch []*Request) {
	end := s.cfg.Dispatch(batch)
	if s.cfg.Observe != nil {
		s.cfg.Observe(batch, end)
	}
	s.mu.Lock()
	q.busy = false
	s.stats.Dispatches++
	s.stats.Dispatched += uint64(len(batch))
	if len(batch) > s.stats.MaxBatchLen {
		s.stats.MaxBatchLen = len(batch)
	}
	if len(batch) > 1 {
		s.stats.Coalesced += uint64(len(batch))
	}
	for _, r := range batch {
		s.stats.Units += uint64(r.Units)
	}
	s.mu.Unlock()
	for _, r := range batch {
		if r.Done != nil {
			r.Done(end)
		}
	}
	s.mu.Lock()
	for _, r := range batch {
		s.outstanding--
		if s.perSession[r.Session]--; s.perSession[r.Session] == 0 {
			delete(s.perSession, r.Session)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.cfg.Release != nil {
		for _, r := range batch {
			s.cfg.Release(r)
		}
	}
}

// oldest returns the idle queue whose head was submitted first, nil
// when no idle queue holds work. The caller holds s.mu.
func (s *Scheduler) oldest() *devQueue {
	var best *devQueue
	for _, q := range s.queues {
		if q.head != nil && !q.busy && (best == nil || q.head.seq < best.head.seq) {
			best = q
		}
	}
	return best
}

// Pump dispatches until no idle queue holds work and reports whether
// anything ran. It works in passes: a pass covers the requests
// submitted before it started and takes from whichever idle queue's
// head is oldest until every head left is newer than that; requests
// submitted by callbacks during a pass wait for the next one. Work
// queued behind a busy queue is left to the Pump that holds it, which
// looks again once its batch left Dispatch.
func (s *Scheduler) Pump() bool {
	worked := false
	s.mu.Lock()
	var batch []*Request
	if n := len(s.free); n > 0 {
		batch, s.free = s.free[n-1], s.free[:n-1]
	}
	limit := s.seq
	for q := s.oldest(); q != nil; q = s.oldest() {
		if q.head.seq >= limit {
			limit = s.seq // the pass is over; the next one starts here
		}
		batch = s.take(q, limit, batch[:0])
		q.busy = true
		s.mu.Unlock()
		s.dispatch(q, batch)
		worked = true
		s.mu.Lock()
	}
	s.free = append(s.free, batch)
	s.mu.Unlock()
	return worked
}

// settle pumps until done reports true, waiting for another
// goroutine's completion whenever nothing is left to take.
func (s *Scheduler) settle(done func() bool) {
	s.mu.Lock()
	for !done() {
		if s.oldest() == nil {
			s.cond.Wait()
			continue
		}
		s.mu.Unlock()
		s.Pump()
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// Wait pumps until the session has no submitted-but-uncompleted work.
func (s *Scheduler) Wait(session string) {
	s.settle(func() bool { return s.perSession[session] == 0 })
}

// Drain pumps until no work is outstanding anywhere.
func (s *Scheduler) Drain() {
	s.settle(func() bool { return s.outstanding == 0 })
}

// Close is Drain: the scheduler holds no goroutine to stop, and a
// request submitted later is dispatched by the next Pump, Wait or
// Drain.
func (s *Scheduler) Close() { s.Drain() }
