package serve

import (
	"fmt"
	"sync"

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

// frameQueue is the bounded per-session ingest queue sitting between
// the HTTP ingest path and the worker pool. It is the session's
// explicit backpressure point: pushes never block, overflow drops per
// the policy, and every drop is counted so clients can observe the
// shedding in /metrics and ingest responses.
type frameQueue struct {
	mu      sync.Mutex
	buf     []*sparse.Frame
	cap     int
	policy  DropPolicy
	pushed  uint64
	dropped uint64
	// recycle, if non-nil, receives every frame the queue sheds so the
	// arena reclaims it immediately instead of waiting for GC. Called
	// under mu; the hook must not call back into the queue.
	recycle func(*sparse.Frame)
}

func newFrameQueue(capacity int, policy DropPolicy) *frameQueue {
	if capacity <= 0 {
		capacity = 64
	}
	return &frameQueue{cap: capacity, policy: policy}
}

// push enqueues a frame, shedding per the policy when full. It returns
// how many frames were dropped by this push (0 or 1).
func (q *frameQueue) push(f *sparse.Frame) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pushed++
	if len(q.buf) >= q.cap {
		q.dropped++
		if q.policy == DropNewest {
			if q.recycle != nil {
				q.recycle(f)
			}
			return 1
		}
		// Drop-oldest: evict the head to admit the fresh frame.
		head := q.buf[0]
		copy(q.buf, q.buf[1:])
		q.buf = q.buf[:len(q.buf)-1]
		q.buf = append(q.buf, f)
		if q.recycle != nil {
			q.recycle(head)
		}
		return 1
	}
	q.buf = append(q.buf, f)
	return 0
}

// drain removes and returns up to max frames (all when max <= 0).
func (q *frameQueue) drain(max int) []*sparse.Frame {
	return q.drainInto(nil, max)
}

// drainInto is drain appending into a caller-owned scratch slice — the
// worker hot path's zero-allocation variant.
func (q *frameQueue) drainInto(dst []*sparse.Frame, max int) []*sparse.Frame {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.buf)
	if max > 0 && n > max {
		n = max
	}
	if n == 0 {
		return dst
	}
	dst = append(dst, q.buf[:n]...)
	rest := copy(q.buf, q.buf[n:])
	for i := rest; i < len(q.buf); i++ {
		q.buf[i] = nil
	}
	q.buf = q.buf[:rest]
	return dst
}

// len returns the queued frame count.
func (q *frameQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// stats returns total pushed and dropped frame counts.
func (q *frameQueue) stats() (pushed, dropped uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushed, q.dropped
}

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
