// Package mem is the serving hot path's memory-discipline layer:
// free-list pools for the objects the steady-state frame path churns
// through — sparse frames and the accumulation grids they are built
// in, and (via the generic Pool) pipeline invocation and scheduler
// request structs. Borrowed objects keep their backing arrays across
// reuse, so after a short warm-up the ingest→E2SF→DSFA→dispatch cycle
// runs at zero allocations per frame (see serve's alloc-regression
// test).
//
// Every pool carries a double-release tripwire: Put panics loudly when
// handed an object that is already free. Use-after-release bugs in a
// pooled system otherwise surface as silent cross-session data
// corruption — a panic at the second Put is the cheap, debuggable
// failure mode.
//
// Pools are mutex-guarded and safe for concurrent use. The tripwire
// set is a map, but steady-state Put/Get pairs only insert and delete
// without growing it, which Go's map implementation does without
// allocating.
package mem

import (
	"math/bits"
	"sync"

	"evedge/internal/sparse"
)

// PoolStats counts one pool's traffic. News is the number of Gets that
// missed the free list and allocated; a steady-state hot path should
// hold News flat while Gets climbs.
type PoolStats struct {
	Gets uint64 `json:"gets"`
	Puts uint64 `json:"puts"`
	News uint64 `json:"news"`
}

// Live returns the number of objects currently borrowed.
func (s PoolStats) Live() uint64 { return s.Gets - s.Puts }

// add merges another snapshot (Arena totals).
func (s *PoolStats) add(o PoolStats) {
	s.Gets += o.Gets
	s.Puts += o.Puts
	s.News += o.News
}

// FramePool free-lists sparse frames. Get returns a frame with the
// requested geometry and time bounds whose channel slices are empty
// but keep the capacity of their previous use.
//
// Free frames are filed by capacity class — class k > 0 holds the
// frames with room for [2^(k-1), 2^k) entries, class 0 those with none
// — LIFO within a class, and Get picks by the number of entries the
// caller is about to store. So a server whose sessions emit frames of
// very different sizes lends its large frames to large emissions and
// its small ones to small emissions, instead of regrowing whichever
// frame came back last. Any free frame serves any Get, so lending by
// size never turns a pool hit into a miss.
//
// It also lends the accumulation grids frames are built in (GetAccum /
// PutAccum): a grid is borrowed for one E2SF conversion call or one
// DSFA bucket close and must come back all-zero, so whoever holds the
// frame pool needs no W x H state of its own.
type FramePool struct {
	mu    sync.Mutex
	free  [frameClasses][]*sparse.Frame // free frames by capacity class
	avail uint64                        // bit k set when free[k] is not empty
	inSet map[*sparse.Frame]struct{}
	stats PoolStats

	accums     []*sparse.Accum // free grids, any geometry; at most maxFreeAccums
	accumStats PoolStats
}

// frameClasses covers every capacity an int can hold.
const frameClasses = 64

// capClass is f's class: bits.Len of the room its channel slices all
// have.
func capClass(f *sparse.Frame) int {
	return bits.Len(uint(min(cap(f.Ys), cap(f.Xs), cap(f.Pos), cap(f.Neg))))
}

// fitClass picks the free class Get lends from for a frame that will
// hold n entries: the smallest non-empty class whose every frame has
// room for n, else the largest non-empty class below it. avail must
// not be zero.
func fitClass(avail uint64, n int) int {
	lo := 0 // smallest class whose least capacity, 2^(lo-1), is at least n
	if n > 0 {
		lo = bits.Len(uint(n-1)) + 1
	}
	if lo < frameClasses {
		if above := avail >> lo << lo; above != 0 {
			return bits.TrailingZeros64(above)
		}
	}
	return bits.Len64(avail&(1<<lo-1)) - 1
}

// maxFreeAccums bounds the grid free list: a server needs one grid per
// concurrently converting goroutine per geometry in use, and a return
// beyond the bound drops the least recently used grid, so clients
// declaring many distinct geometries cannot pin W x H memory in the
// pool.
const maxFreeAccums = 8

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool {
	return &FramePool{inSet: map[*sparse.Frame]struct{}{}}
}

// Get borrows a frame with the given geometry and time bounds for an
// emission of at most entries entries — a bound the caller has for
// free, such as the events counted into the frame; the frame is not
// limited to it. It is the most recently returned frame of the class
// fitClass picks, or a new one when none is free.
func (p *FramePool) Get(h, w int, t0, t1 int64, entries int) *sparse.Frame {
	p.mu.Lock()
	p.stats.Gets++
	if p.avail != 0 {
		k := fitClass(p.avail, entries)
		free := p.free[k]
		n := len(free) - 1
		f := free[n]
		free[n] = nil
		p.free[k] = free[:n]
		if n == 0 {
			p.avail &^= 1 << k
		}
		delete(p.inSet, f)
		p.mu.Unlock()
		f.Reset(h, w, t0, t1)
		return f
	}
	p.stats.News++
	p.mu.Unlock()
	return sparse.NewFrame(h, w, t0, t1)
}

// Put returns a frame to the pool. Putting the same frame twice
// without an intervening Get panics: the caller kept a stale
// reference, and letting two owners share a recycled frame would
// corrupt data silently.
func (p *FramePool) Put(f *sparse.Frame) {
	if f == nil {
		panic("mem: Put of nil frame")
	}
	p.mu.Lock()
	if _, dup := p.inSet[f]; dup {
		p.mu.Unlock()
		panic("mem: double release of sparse.Frame")
	}
	p.stats.Puts++
	p.inSet[f] = struct{}{}
	k := capClass(f)
	p.free[k] = append(p.free[k], f)
	p.avail |= 1 << k
	p.mu.Unlock()
}

// Stats snapshots the frame counters.
func (p *FramePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// GetAccum borrows an all-zero h x w accumulation grid, the most
// recently returned one of that geometry if there is one (it is the
// likeliest to still be in cache).
func (p *FramePool) GetAccum(h, w int) *sparse.Accum {
	p.mu.Lock()
	p.accumStats.Gets++
	for i := len(p.accums) - 1; i >= 0; i-- {
		if a := p.accums[i]; a.H() == h && a.W() == w {
			last := len(p.accums) - 1
			copy(p.accums[i:], p.accums[i+1:])
			p.accums[last] = nil
			p.accums = p.accums[:last]
			p.mu.Unlock()
			return a
		}
	}
	p.accumStats.News++
	p.mu.Unlock()
	return sparse.NewAccum(h, w)
}

// PutAccum returns a borrowed grid. A grid that is not all-zero — the
// borrower added to it without emitting — would leak one call's
// events into the next borrower's frames, so that panics, as does a
// double release.
func (p *FramePool) PutAccum(a *sparse.Accum) {
	if a == nil {
		panic("mem: PutAccum of nil accumulator")
	}
	if !a.Clean() {
		panic("mem: sparse.Accum returned dirty")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, free := range p.accums {
		if free == a {
			panic("mem: double release of sparse.Accum")
		}
	}
	p.accumStats.Puts++
	if len(p.accums) == maxFreeAccums {
		// Returns append and borrows scan from the tail, so the head is
		// the least recently used grid.
		copy(p.accums, p.accums[1:])
		p.accums = p.accums[:maxFreeAccums-1]
	}
	p.accums = append(p.accums, a)
}

// AccumStats snapshots the accumulation-grid counters.
func (p *FramePool) AccumStats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accumStats
}

// Pool is a generic free list for consumer-defined structs (pipeline
// invocations, scheduler requests, dispatch payloads). The reset hook
// runs on every Get — including the allocating first one — so borrowed
// objects always start from a known state while keeping whatever slice
// capacity their fields accumulated.
type Pool[T any] struct {
	mu    sync.Mutex
	free  []*T
	inSet map[*T]struct{}
	reset func(*T)
	stats PoolStats
}

// NewPool returns a pool whose objects are reset by the given hook
// (nil for none).
func NewPool[T any](reset func(*T)) *Pool[T] {
	return &Pool[T]{inSet: map[*T]struct{}{}, reset: reset}
}

// Get borrows an object, reset.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	p.stats.Gets++
	var x *T
	if n := len(p.free); n > 0 {
		x = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		delete(p.inSet, x)
		p.mu.Unlock()
	} else {
		p.stats.News++
		p.mu.Unlock()
		x = new(T)
	}
	if p.reset != nil {
		p.reset(x)
	}
	return x
}

// Put returns an object; double release panics.
func (p *Pool[T]) Put(x *T) {
	if x == nil {
		panic("mem: Put of nil object")
	}
	p.mu.Lock()
	if _, dup := p.inSet[x]; dup {
		p.mu.Unlock()
		panic("mem: double release of pooled object")
	}
	p.stats.Puts++
	p.inSet[x] = struct{}{}
	p.free = append(p.free, x)
	p.mu.Unlock()
}

// Stats snapshots the counters.
func (p *Pool[T]) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Arena bundles the pools one serving node shares across all sessions:
// frames flow ingest→DSFA→dispatch→release regardless of which session
// produced them, so one free list per type maximizes reuse.
type Arena struct {
	Frames *FramePool
}

// NewArena returns an arena with empty pools.
func NewArena() *Arena {
	return &Arena{Frames: NewFramePool()}
}

// ArenaStats is the per-pool counter snapshot plus the total.
type ArenaStats struct {
	Frames PoolStats `json:"frames"`
	Accums PoolStats `json:"accums"`
	Total  PoolStats `json:"total"`
}

// Stats snapshots every pool.
func (a *Arena) Stats() ArenaStats {
	st := ArenaStats{
		Frames: a.Frames.Stats(),
		Accums: a.Frames.AccumStats(),
	}
	st.Total.add(st.Frames)
	st.Total.add(st.Accums)
	return st
}
