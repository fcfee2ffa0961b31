// Package par is the engine-shared bounded worker pool behind the
// tiled compute kernels: one pool per serving node, sized from
// GOMAXPROCS, executing sharded tasks with zero steady-state heap
// allocations per dispatch.
//
// The design goal is determinism-compatible parallelism. A Task
// partitions its work into shards over DISJOINT output ranges; the
// pool only decides which goroutine runs which shard, never the
// arithmetic order within one shard. Kernels built this way (see
// sparse's tiled variants) produce bit-identical results to their
// serial counterparts regardless of worker count or scheduling, which
// is what keeps scenario replay byte-identical when parallelism is on.
//
// Allocation discipline mirrors internal/mem: dispatch records are
// free-listed and reused, the completion channel is reused across
// dispatches, shard claiming is a single atomic counter (no per-shard
// closures, no WaitGroups that escape to the heap), and per-goroutine
// scratch buffers are pooled so tasks needing staging space allocate
// only while growing to their high-water mark.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one sharded unit of work. The pool calls RunShard exactly
// once for every shard in [0, shards); implementations must write only
// to state owned by their shard (disjoint output ranges) so shards can
// run concurrently and in any order. scratch is a reusable staging
// buffer private to the executing goroutine for the duration of the
// call.
type Task interface {
	RunShard(shard, shards int, scratch *Scratch)
}

// Scratch is pooled per-goroutine staging space handed to every
// RunShard call. Buffers keep their capacity across dispatches, so a
// warm pool serves Grow requests without allocating. Contents are
// unspecified on entry.
type Scratch struct {
	I32 []int32
	F32 []float32
}

// GrowI32 returns a length-n int32 buffer with unspecified contents,
// reusing the scratch capacity when possible.
func (s *Scratch) GrowI32(n int) []int32 {
	if cap(s.I32) < n {
		s.I32 = make([]int32, n)
	}
	s.I32 = s.I32[:n]
	return s.I32
}

// GrowF32 returns a length-n float32 buffer with unspecified contents,
// reusing the scratch capacity when possible.
func (s *Scratch) GrowF32(n int) []float32 {
	if cap(s.F32) < n {
		s.F32 = make([]float32, n)
	}
	s.F32 = s.F32[:n]
	return s.F32
}

// scratchPool recycles Scratch buffers across goroutines and
// dispatches; sync.Pool because workers and callers borrow
// concurrently.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// dispatch is one Run call in flight. Records are free-listed on the
// pool; the claim counter hands out shards, pending counts them home,
// refs counts live references (caller + queued helper wakeups) so a
// record is recycled only after every holder is done with it — a
// helper that dequeues the record after the work finished sees an
// exhausted claim counter and just releases.
type dispatch struct {
	task    Task
	shards  int32
	next    atomic.Int32  // shard claim counter
	pending atomic.Int32  // shards not yet finished
	refs    atomic.Int32  // caller + enqueued helper references
	done    chan struct{} // buffered(1), signaled once per dispatch
}

// work claims and executes shards until none remain.
func (d *dispatch) work() {
	s := scratchPool.Get().(*Scratch)
	for {
		i := d.next.Add(1) - 1
		if i >= d.shards {
			break
		}
		d.task.RunShard(int(i), int(d.shards), s)
		if d.pending.Add(-1) == 0 {
			d.done <- struct{}{}
		}
	}
	scratchPool.Put(s)
}

// Pool is a bounded worker pool. The zero value is not usable; New
// returns a ready pool. A nil *Pool is valid everywhere and means
// "serial": Run executes all shards inline on the caller.
type Pool struct {
	workers int
	jobs    chan *dispatch

	mu     sync.Mutex
	free   []*dispatch
	closed bool
}

// New returns a pool of the given parallel width (worker goroutines
// plus the calling goroutine participate, so width n engages at most n
// CPUs per dispatch). n <= 0 sizes the pool from GOMAXPROCS. Call
// Close to stop the workers.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: n,
		jobs:    make(chan *dispatch, 4*n),
	}
	for i := 0; i < n-1; i++ {
		go p.worker()
	}
	return p
}

// Size returns the pool's parallel width (1 for a nil pool).
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.workers
}

func (p *Pool) worker() {
	for d := range p.jobs {
		d.work()
		p.release(d)
	}
}

// getLocked borrows a dispatch record from the free list; callers
// hold p.mu.
func (p *Pool) getLocked() *dispatch {
	if n := len(p.free); n > 0 {
		d := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return d
	}
	return &dispatch{done: make(chan struct{}, 1)}
}

// release drops one reference; the last holder recycles the record.
func (p *Pool) release(d *dispatch) {
	if d.refs.Add(-1) != 0 {
		return
	}
	d.task = nil
	p.mu.Lock()
	p.free = append(p.free, d)
	p.mu.Unlock()
}

// Run executes t's shards and returns when all of them finished. The
// caller participates, so Run never deadlocks even with zero idle
// workers; helper wakeups are best-effort (a full queue just means the
// caller does more shards itself). shards <= 0 is a no-op; a nil pool,
// width 1, or a single shard runs everything inline on the caller in
// ascending shard order.
func (p *Pool) Run(shards int, t Task) {
	if shards <= 0 {
		return
	}
	if p == nil || p.workers <= 1 || shards == 1 {
		s := scratchPool.Get().(*Scratch)
		for i := 0; i < shards; i++ {
			t.RunShard(i, shards, s)
		}
		scratchPool.Put(s)
		return
	}
	p.mu.Lock()
	if p.closed {
		// Draining after Close: execute inline rather than hanging on a
		// dead worker set.
		p.mu.Unlock()
		s := scratchPool.Get().(*Scratch)
		for i := 0; i < shards; i++ {
			t.RunShard(i, shards, s)
		}
		scratchPool.Put(s)
		return
	}
	d := p.getLocked()
	d.task = t
	d.shards = int32(shards)
	d.next.Store(0)
	d.pending.Store(int32(shards))
	helpers := p.workers - 1
	if helpers > shards-1 {
		helpers = shards - 1
	}
	// One reference per intended wakeup plus the caller's, stored
	// BEFORE the first enqueue — a helper may dequeue and release the
	// moment the send lands. Wakeups enqueue under p.mu so Close cannot
	// close the channel mid-send; a full queue means concurrent
	// dispatches already saturate the workers, so the rest are dropped
	// (their references handed back below) and the caller chews through
	// the shards itself.
	d.refs.Store(int32(helpers) + 1)
	enq := 0
enqueue:
	for i := 0; i < helpers; i++ {
		select {
		case p.jobs <- d:
			enq++
		default:
			break enqueue
		}
	}
	if enq < helpers {
		// The caller's own reference keeps refs >= 1 until the final
		// release, so this can never drop the count to zero early.
		d.refs.Add(int32(enq - helpers))
	}
	p.mu.Unlock()
	d.work()
	<-d.done
	p.release(d)
}

// Close stops the worker goroutines. Outstanding Run calls finish
// first (the caller always participates); Run calls after Close
// execute inline. Close is idempotent.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.jobs)
}
