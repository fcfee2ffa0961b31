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
// One queue per device, one take step, two drivers. Submit stamps a
// request with a submission sequence number and links it onto the queue
// of its Key.Device. take is the only place a batch forms: a queue's
// head opens it and later requests with the head's Key join, in
// submission order, up to MaxBatch and none submitted at or after a
// sequence limit. The drivers decide when take runs and with which
// limit:
//
//   - Wall-clock (evserve / evcluster): one dispatcher goroutine per
//     queue waits for a head, holds it back one Window if its batch
//     still has room and nobody is in Wait/Drain, then takes from
//     everything queued by then. Queues of different devices run
//     concurrently — the engine is internally synchronized per device.
//
//   - Virtual-clock (the scenario harness, ManualDrain servers): no
//     goroutines. Pump runs passes: a pass fixes the limit at the
//     sequence number current when it starts and takes from whichever
//     queue's head is oldest until no head is below it; what callbacks
//     submit meanwhile waits for the next pass. That pass boundary is
//     the virtual coalescing window; Window is ignored.
//
// A Key contains its Device, so everything that may join a batch sits
// in the head's own queue, and the oldest head across queues is the
// oldest queued request overall: the virtual driver dispatches exactly
// as if it walked all queued requests in submission order, each opening
// a batch that pulls later compatible ones forward. Dispatch order is a
// pure function of submission order, so the same (scenario, seed) pair
// replays byte-identically.
//
// Fairness: queues are FIFO by submission; coalescing only ever pulls
// *compatible* requests forward. An incompatible request behind a
// flash-crowd backlog of B compatible ones therefore waits at most
// ceil(B/MaxBatch) dispatches plus one coalescing window — it can
// never be starved by other sessions' merging (see the starvation
// test).
package sched

import (
	"fmt"
	"sync"
	"time"
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
	// the request's batch dispatched. Batches complete in dispatch
	// order and members in submission order, so virtual-mode callbacks
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
	// Window bounds how long a wall-clock dispatcher holds the head
	// request open for more compatible arrivals. 0 coalesces
	// opportunistically (only work already queued). Ignored in virtual
	// mode, where Pump boundaries are the window.
	Window time.Duration
	// Virtual selects the deterministic no-goroutine mode driven by
	// Pump.
	Virtual bool
	// Observe, if non-nil, is called once per executed micro-batch —
	// after Dispatch returns with the batch completion time, before the
	// members' Done callbacks — so a tracing layer can record dispatch
	// instants with batch identity and occupancy. It runs outside the
	// scheduler lock on the dispatching goroutine; virtual mode calls
	// it in deterministic dispatch order.
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
// costs what it walks past, not what is queued.
type devQueue struct {
	dev        int
	head, tail *Request
	n          int
}

// Scheduler owns the run queues. Create with New, submit with Submit;
// stop wall-clock dispatchers with Close (remaining work dispatches
// first).
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on submission, completion and state changes
	stats  Stats
	queues []*devQueue // one per Key.Device seen, in first-submission order
	seq    uint64      // the next request's sequence number
	// outstanding counts submitted-but-not-completed requests, total
	// and per session; Wait and Drain block on them.
	outstanding int
	perSession  map[string]int
	waiters     int // active Wait/Drain calls: dispatchers skip windows
	stopped     bool
	// free holds idle batch buffers: a Pump borrows one for its run, a
	// Pump nested in a Done callback (Done → Wait → Pump) another, so
	// the outer batch's members stay put.
	free [][]*Request

	wg sync.WaitGroup
}

// New validates cfg and returns a scheduler; wall-clock dispatchers
// start lazily, one per device queue, on first submission.
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

// Submit accepts one request: it lands on its device's run queue, and
// in wall-clock mode wakes that queue's dispatcher (in virtual mode
// Pump dispatches). Submit never blocks on dispatch. A wall-clock
// submit that races Close (a late HTTP handler on a shutting-down
// server) dispatches inline instead of enqueueing: the dispatchers are
// gone, so an enqueued request would never complete and Wait/Drain
// would hang (and a fresh queue's wg.Add would race Close's wg.Wait).
func (s *Scheduler) Submit(r *Request) {
	s.mu.Lock()
	s.stats.Submitted++
	s.outstanding++
	s.perSession[r.Session]++
	if s.stopped && !s.cfg.Virtual {
		s.mu.Unlock()
		s.dispatch([]*Request{r})
		return
	}
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
	if !s.cfg.Virtual {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// queue returns dev's run queue, creating it — and in wall-clock mode
// starting its dispatcher — on first use; a platform has a handful of
// devices, so the lookup is a scan. The caller holds s.mu.
func (s *Scheduler) queue(dev int) *devQueue {
	for _, q := range s.queues {
		if q.dev == dev {
			return q
		}
	}
	q := &devQueue{dev: dev}
	s.queues = append(s.queues, q)
	if !s.cfg.Virtual {
		s.wg.Add(1)
		go s.dispatcher(q)
	}
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

// dispatcher is the wall-clock driver of one device's run queue, until
// Close: wait for a head, hold it back one Window if its batch has room
// for later arrivals, take, dispatch.
func (s *Scheduler) dispatcher(q *devQueue) {
	defer s.wg.Done()
	var batch []*Request // reused across iterations; dispatch must not retain it
	s.mu.Lock()
	for {
		for q.head == nil && !s.stopped {
			s.cond.Wait()
		}
		if q.head == nil {
			break // stopped and drained
		}
		// Someone draining or shutting down means hurry: no window.
		if s.cfg.Window > 0 && !s.stopped && s.waiters == 0 && s.hasRoom(q) {
			s.mu.Unlock()
			time.Sleep(s.cfg.Window)
			s.mu.Lock()
		}
		batch = s.take(q, s.seq, batch[:0])
		s.mu.Unlock()
		s.dispatch(batch)
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// hasRoom reports whether the batch q's head would open right now is
// short of MaxBatch. The caller holds s.mu.
func (s *Scheduler) hasRoom(q *devQueue) bool {
	n := 0
	for r := q.head; r != nil; r = r.next {
		if r.Key == q.head.Key {
			if n++; n == s.cfg.MaxBatch {
				return false
			}
		}
	}
	return true
}

// dispatch executes one batch and completes its members.
func (s *Scheduler) dispatch(batch []*Request) {
	end := s.cfg.Dispatch(batch)
	if s.cfg.Observe != nil {
		s.cfg.Observe(batch, end)
	}
	s.mu.Lock()
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

// oldest returns the queue whose head was submitted first, nil when
// nothing is queued. The caller holds s.mu.
func (s *Scheduler) oldest() *devQueue {
	var best *devQueue
	for _, q := range s.queues {
		if q.head != nil && (best == nil || q.head.seq < best.head.seq) {
			best = q
		}
	}
	return best
}

// Pump is the virtual driver: it dispatches until nothing is queued and
// reports whether anything ran. It works in passes: a pass covers the
// requests submitted before it started and takes from whichever queue's
// head is oldest until every head left is newer than that; requests
// submitted by callbacks during a pass wait for the next one.
func (s *Scheduler) Pump() bool {
	if !s.cfg.Virtual {
		return false
	}
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
		s.mu.Unlock()
		s.dispatch(batch)
		worked = true
		s.mu.Lock()
	}
	s.free = append(s.free, batch)
	s.mu.Unlock()
	return worked
}

// Wait blocks until the session has no submitted-but-uncompleted work.
// In virtual mode it pumps inline (single-threaded callers own the
// clock); in wall-clock mode it marks itself a waiter so dispatchers
// skip their coalescing windows and drain promptly.
func (s *Scheduler) Wait(session string) {
	if s.cfg.Virtual {
		s.mu.Lock()
		for s.perSession[session] > 0 {
			s.mu.Unlock()
			if !s.Pump() {
				return // nothing pending: callbacks owe the rest
			}
			s.mu.Lock()
		}
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.waiters++
	s.cond.Broadcast()
	for s.perSession[session] > 0 {
		s.cond.Wait()
	}
	s.waiters--
	s.mu.Unlock()
}

// Drain blocks until no work is outstanding anywhere (virtual mode:
// pumps to quiescence).
func (s *Scheduler) Drain() {
	if s.cfg.Virtual {
		for s.Pump() {
		}
		return
	}
	s.mu.Lock()
	s.waiters++
	s.cond.Broadcast()
	for s.outstanding > 0 {
		s.cond.Wait()
	}
	s.waiters--
	s.mu.Unlock()
}

// Close stops the wall-clock dispatchers after they drain their
// queues. Virtual schedulers have no goroutines; Close only marks the
// scheduler stopped.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
