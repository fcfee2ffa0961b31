package serve

import (
	"fmt"
	"sync"

	"evedge/internal/pipeline"
	"evedge/internal/sparse"
)

// DropPolicy selects what a full ingest queue discards.
type DropPolicy int

// Drop policies. DropOldest mirrors DSFA's backlog semantics (the
// inference queue "discards the earliest entries on overflow"): stale
// frames are worth less than fresh ones to a perception pipeline.
// DropNewest refuses new work instead, the classic load-shedding
// answer when completed work must never be wasted.
const (
	DropOldest DropPolicy = iota
	DropNewest
)

// String names the policy.
func (p DropPolicy) String() string {
	if p == DropNewest {
		return "drop-newest"
	}
	return "drop-oldest"
}

// ParseDropPolicy parses a policy name.
func ParseDropPolicy(s string) (DropPolicy, error) {
	switch s {
	case "", "drop-oldest", "oldest":
		return DropOldest, nil
	case "drop-newest", "newest":
		return DropNewest, nil
	}
	return 0, fmt.Errorf("serve: unknown drop policy %q", s)
}

// frameQueue is the session's bounded ingest queue: the hold of its
// stepper, where every frame waits until the step releases it, bounded
// at cap frames. It is the session's explicit backpressure point:
// pushes never block, overflow drops per the policy, and every drop is
// counted so clients can observe the shedding in /metrics and ingest
// responses. The bound is host-side: it counts what the session holds
// between execute passes, which a virtual-time driver empties after
// every chunk. The session lock guards it, as it does the stepper.
type frameQueue struct {
	st      *pipeline.Stepper
	cap     int
	policy  DropPolicy
	dropped uint64
	// recycle, if non-nil, receives every frame the queue sheds so the
	// arena reclaims it immediately instead of waiting for GC.
	recycle func(*sparse.Frame)
}

func newFrameQueue(st *pipeline.Stepper, capacity int, policy DropPolicy) *frameQueue {
	if capacity <= 0 {
		capacity = 64
	}
	return &frameQueue{st: st, cap: capacity, policy: policy}
}

// push holds a frame in the stepper, shedding per the policy when the
// hold is full. It returns how many frames were dropped by this push
// (0 or 1).
func (q *frameQueue) push(f *sparse.Frame) int {
	if q.st.Held() < q.cap {
		q.st.Push(f)
		return 0
	}
	q.dropped++
	if q.policy == DropOldest {
		// Evict the oldest held frame to admit the fresh one.
		head := q.st.Shed()
		q.st.Push(f)
		f = head
	}
	if q.recycle != nil {
		q.recycle(f)
	}
	return 1
}

// len returns the held frame count.
func (q *frameQueue) len() int { return q.st.Held() }

// stats returns the dropped frame count; the session counts the frames
// pushed (framesIn).
func (q *frameQueue) stats() (dropped uint64) { return q.dropped }

// runQueue is the server's FIFO of sessions with work pending: ingest
// and completion callbacks push, the workers — or Pump under
// ManualDrain — pop. Session.scheduled admits a session at most once,
// so the queue is a list linked through the sessions themselves: it
// holds the whole session table if it must and a push never blocks,
// which ManualDrain needs — nothing pops between two Pump calls.
type runQueue struct {
	mu         sync.Mutex
	ready      sync.Cond // L is &mu; one Signal per push, Broadcast on close
	head, tail *Session  // linked through Session.runNext
	closed     bool
}

// push appends a session and wakes one waiting worker.
func (q *runQueue) push(sess *Session) {
	q.mu.Lock()
	if q.tail == nil {
		q.head = sess
	} else {
		q.tail.runNext = sess
	}
	q.tail = sess
	q.mu.Unlock()
	q.ready.Signal()
}

// pop removes the oldest session. With wait it blocks until one is
// queued and returns nil once the queue is closed; without, nil means
// empty.
func (q *runQueue) pop(wait bool) *Session {
	q.mu.Lock()
	defer q.mu.Unlock()
	for wait && q.head == nil && !q.closed {
		q.ready.Wait()
	}
	sess := q.head
	if sess == nil || wait && q.closed {
		return nil
	}
	q.head, sess.runNext = sess.runNext, nil
	if q.head == nil {
		q.tail = nil
	}
	return sess
}

// close releases every waiting worker; queued sessions stay in place.
func (q *runQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.ready.Broadcast()
}
