// Package dsfa implements the Dynamic Sparse Frame Aggregator (paper
// Sec. 4.2). Sparse frames produced by E2SF enter an event buffer that
// is partitioned into merge buckets; frames are placed greedily into
// the earliest available bucket subject to a time-delay threshold
// (MtTh) and a spatial-density-change threshold (MdTh). When the
// buffer exceeds its capacity — or earlier, whenever the hardware
// becomes available — buckets are combined according to the merge mode
// (cAdd, cAverage, cBatch), forwarded to a bounded inference queue
// (oldest entries are discarded on overflow), and dispatched as one
// batched input, trading the temporal granularity of events against
// computational demand to track both input dynamics and hardware
// processing capability.
//
// A closed bucket waits in the inference queue as its members, and is
// dispatched as its members too: one model input, priced by its
// spatial density. A cAdd/cAverage bucket's density is that of its
// members' pixel sum, which is the fraction of pixels their union
// occupies; it is counted on the occupancy bitmaps of a dense grid
// (sparse.Accum.UnionCount) without touching a pixel cell. A
// one-member bucket, and so every cBatch bucket, is its member. The
// grid is borrowed from the aggregator's frame pool for one dispatched
// bucket and returned all-zero, so the aggregator holds no W x H state
// between dispatches. A shed bucket is never counted.
//
// The pixel sum itself — the members scattered, in admission order,
// into a borrowed grid and emitted once in (y, x) order, scaled by 1 or
// 1/n — is made only when a consumer asks for the pixels
// (Aggregator.sum). The analytic pipeline and the server price a bucket
// by its density alone, so they never ask.
//
// The aggregator only reads the frames pushed into it and never
// releases one. Every pushed frame leaves it exactly once: as a member
// of a dispatched bucket, or, when the inference queue sheds its
// bucket, in the Shed list of the next dispatch. Whoever converted the
// frames releases them once every reader is done.
package dsfa

import (
	"fmt"

	"evedge/internal/mem"
	"evedge/internal/sparse"
)

// CMode is the bucket combine mode.
type CMode int

// Combine modes (paper: cAdd, cAverage, cBatch).
const (
	// CAdd sums member frames pixelwise — event counts are conserved.
	CAdd CMode = iota
	// CAverage averages member frames pixelwise.
	CAverage
	// CBatch keeps frames separate; every frame opens its own bucket
	// and batching happens only at dispatch (for high-speed scenes
	// where temporal precision matters).
	CBatch
)

// String names the mode.
func (m CMode) String() string {
	switch m {
	case CAdd:
		return "cAdd"
	case CAverage:
		return "cAverage"
	case CBatch:
		return "cBatch"
	}
	return fmt.Sprintf("CMode(%d)", int(m))
}

// Config tunes the aggregator. Per the paper, MtTh and MdTh need
// per-task tuning (segmentation keeps them tight, which is why DSFA
// helps HALSIE least).
type Config struct {
	// EBufSize is the event-buffer capacity in frames; exceeding it
	// triggers a flush of all buckets to the inference queue.
	EBufSize int
	// MBSize is the per-bucket frame capacity.
	MBSize int
	// MtThUS is the maximum delay between a new frame and the earliest
	// frame of the bucket it joins.
	MtThUS int64
	// MdTh is the maximum relative spatial-density change between the
	// new frame and the bucket's merged density.
	MdTh float64
	// Mode is the combine mode.
	Mode CMode
	// QueueCap bounds the inference queue (merged buckets awaiting
	// dispatch); the earliest entry is discarded on overflow.
	QueueCap int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.EBufSize <= 0 {
		return fmt.Errorf("dsfa: EBufSize must be positive, got %d", c.EBufSize)
	}
	if c.MBSize <= 0 || c.MBSize > c.EBufSize {
		return fmt.Errorf("dsfa: MBSize %d outside [1, EBufSize=%d]", c.MBSize, c.EBufSize)
	}
	if c.MtThUS <= 0 {
		return fmt.Errorf("dsfa: MtThUS must be positive, got %d", c.MtThUS)
	}
	if c.MdTh <= 0 {
		return fmt.Errorf("dsfa: MdTh must be positive, got %f", c.MdTh)
	}
	if c.QueueCap <= 0 {
		return fmt.Errorf("dsfa: QueueCap must be positive, got %d", c.QueueCap)
	}
	return nil
}

// DefaultConfig returns a moderate tuning: buffer of 8 frames, buckets
// of 4, 20 ms delay tolerance, 50% density change tolerance, cAdd.
func DefaultConfig() Config {
	return Config{EBufSize: 8, MBSize: 4, MtThUS: 20_000, MdTh: 0.5, Mode: CAdd, QueueCap: 4}
}

// bucketStatus is the paper's AVL / FULL flag.
type bucketStatus int

const (
	avl bucketStatus = iota
	full
)

type bucket struct {
	frames   []*sparse.Frame
	earliest int64 // Time(Evf_1)
	meanDen  float64
	status   bucketStatus
	// mode is the combine mode the bucket was opened under; a live
	// Retune must not re-merge frames admitted under different rules.
	mode CMode
}

// add admits f.
func (b *bucket) add(f *sparse.Frame) {
	if len(b.frames) == 0 {
		b.earliest = f.T0
	}
	n := float64(len(b.frames))
	b.meanDen = (b.meanDen*n + f.Density()) / (n + 1)
	b.frames = append(b.frames, f)
}

// Merged is one closed bucket in the inference queue: its members and,
// once dispatched, the density of the one model input they make.
type Merged struct {
	// Frames holds the bucket's members in admission order. A cBatch
	// bucket has exactly one, as every cBatch frame opens its own.
	Frames []*sparse.Frame
	// NumMerged is how many raw sparse frames went in.
	NumMerged int
	// Density is the spatial density of the bucket's model input, set
	// at dispatch: the fraction of pixels the members' union occupies,
	// which is the density of their pixel sum, or the member's own when
	// the bucket has one.
	Density float64
	// T1 is the end of the bucket's last member.
	T1 int64

	// mode is the combine mode the bucket was closed under: how sum
	// scales the members.
	mode CMode
}

// Batch is a dispatch unit: the concatenation of queued merged buckets
// presented to the network as one batched input. A Batch and its
// slices are recycled by the next dispatch; consume them before it.
type Batch struct {
	Merged []Merged
	// Shed holds the members of the buckets the inference queue shed
	// since the previous dispatch. They are no model input; they leave
	// the aggregator here so that their owner can release them.
	// Shedding leaves at least one bucket queued, so the next dispatch
	// always returns a batch to carry them.
	Shed []*sparse.Frame
}

// Stats tracks aggregator behaviour for the experiments.
type Stats struct {
	FramesDispatch int // raw frames inside dispatched batches
	MergedDispatch int // merged buckets dispatched
	DroppedFrames  int // raw frames inside buckets discarded on queue overflow
}

// MergeRatio returns mean raw frames per dispatched merged bucket.
func (s Stats) MergeRatio() float64 {
	if s.MergedDispatch == 0 {
		return 0
	}
	return float64(s.FramesDispatch) / float64(s.MergedDispatch)
}

// Aggregator is the DSFA runtime state.
type Aggregator struct {
	cfg     Config
	buckets []*bucket
	queue   []Merged
	stats   Stats

	// pool lends the grids dispatch prices on and the frames sum makes:
	// the one SetPool shared, else one of the aggregator's own, made at
	// first use (see frames).
	pool *mem.FramePool
	// Bucket structs, queue and shed storage and the one Batch are
	// recycled: spare and the batch's slices swap with queue and shed
	// at every dispatch.
	freeBuckets []*bucket
	spare       []Merged
	shed        []*sparse.Frame
	batch       Batch
}

// New validates cfg and returns an empty aggregator lending grids from
// a frame pool of its own, unless SetPool shares one first.
func New(cfg Config) (*Aggregator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Aggregator{cfg: cfg}, nil
}

// Config returns the aggregator's configuration.
func (a *Aggregator) Config() Config { return a.cfg }

// SetPool replaces the aggregator's own frame pool with p, which then
// lends the grids dispatch prices on and the frames sum makes, so a
// server's sessions share one set of grids. It only lends: the
// aggregator returns no pushed frame to p. Set it before the first
// dispatch.
func (a *Aggregator) SetPool(p *mem.FramePool) { a.pool = p }

// frames is the pool the aggregator lends from, its own made now when
// SetPool shared none: every product caller shares one, so the private
// pool is only ever built for an aggregator used alone.
func (a *Aggregator) frames() *mem.FramePool {
	if a.pool == nil {
		a.pool = mem.NewFramePool()
	}
	return a.pool
}

// newBucket takes a bucket from the freelist or allocates one.
func (a *Aggregator) newBucket(mode CMode) *bucket {
	if n := len(a.freeBuckets); n > 0 {
		b := a.freeBuckets[n-1]
		a.freeBuckets[n-1] = nil
		a.freeBuckets = a.freeBuckets[:n-1]
		for i := range b.frames {
			b.frames[i] = nil
		}
		b.frames = b.frames[:0]
		b.earliest, b.meanDen, b.status, b.mode = 0, 0, avl, mode
		return b
	}
	return &bucket{mode: mode}
}

// recycleBucket returns a closed bucket's struct to the freelist.
func (a *Aggregator) recycleBucket(b *bucket) {
	a.freeBuckets = append(a.freeBuckets, b)
}

// enqueue appends one zeroed Merged slot to the inference queue,
// reusing spare capacity (and the slot's Frames storage) when present.
func (a *Aggregator) enqueue() *Merged {
	if len(a.queue) < cap(a.queue) {
		a.queue = a.queue[:len(a.queue)+1]
		m := &a.queue[len(a.queue)-1]
		m.Frames = m.Frames[:0]
		m.NumMerged, m.Density, m.T1 = 0, 0, 0
		return m
	}
	a.queue = append(a.queue, Merged{})
	return &a.queue[len(a.queue)-1]
}

// dropEarliest sheds the head of the inference queue, moving its
// members to the shed list the next dispatch hands out, and counts the
// drop. The queue shifts down in place and the shed slot, with its
// Frames storage, moves to the tail for the next enqueue, so shedding
// allocates nothing once the shed list has grown.
func (a *Aggregator) dropEarliest() {
	drop := a.queue[0]
	a.shed = append(a.shed, drop.Frames...)
	clear(drop.Frames)
	a.stats.DroppedFrames += drop.NumMerged
	n := len(a.queue) - 1
	copy(a.queue, a.queue[1:])
	a.queue[n] = drop
	a.queue = a.queue[:n]
}

// takeBatch prices the queued buckets and hands them out, with the
// frames shed since the last dispatch, as one dispatch unit, and counts
// them. The returned Batch, the queue storage and the shed list are
// recycled on the next dispatch.
func (a *Aggregator) takeBatch() *Batch {
	if len(a.queue) == 0 {
		return nil
	}
	a.batch.Merged = a.queue
	a.queue = a.spare[:0]
	a.spare = a.batch.Merged
	clear(a.batch.Shed)
	a.batch.Shed, a.shed = a.shed, a.batch.Shed[:0]
	for i := range a.batch.Merged {
		m := &a.batch.Merged[i]
		a.price(m)
		a.stats.MergedDispatch++
		a.stats.FramesDispatch += m.NumMerged
	}
	return &a.batch
}

// Stats returns a snapshot of the counters.
func (a *Aggregator) Stats() Stats { return a.stats }

// Retune swaps the aggregator's configuration while the stream is live
// — the control plane's hook for tracking scene dynamics and hardware
// backlog after session creation. The swap applies at bucket
// boundaries and conserves frame accounting (raw frames in == merged +
// dropped + pending always holds):
//
//   - Open buckets keep the frames they already admitted; none are
//     re-split or re-placed. A bucket at or over the new MBSize is
//     marked FULL so it dispatches on the next opportunity.
//   - A combine-mode change closes every open bucket (they were formed
//     under the old mode's admission rules) rather than re-merging
//     them; new frames bucket under the new mode.
//   - A tightened QueueCap sheds the earliest queued merged buckets
//     immediately, counted as drops exactly like an overflow.
//
// The new thresholds (MtThUS, MdTh) govern all subsequent placements
// and staleness checks, including for buckets still open.
func (a *Aggregator) Retune(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg == a.cfg {
		return nil
	}
	if cfg.Mode != a.cfg.Mode {
		for _, b := range a.buckets {
			b.status = full
		}
	} else {
		for _, b := range a.buckets {
			if len(b.frames) >= cfg.MBSize {
				b.status = full
			}
		}
	}
	a.cfg = cfg
	for len(a.queue) > a.cfg.QueueCap {
		a.dropEarliest()
	}
	return nil
}

// occupancy is the number of frames currently buffered in buckets.
func (a *Aggregator) occupancy() int {
	n := 0
	for _, b := range a.buckets {
		n += len(b.frames)
	}
	return n
}

// QueueLen returns the number of merged buckets awaiting dispatch.
func (a *Aggregator) QueueLen() int { return len(a.queue) }

// Push inserts a sparse frame produced by E2SF. If the event buffer
// exceeds EBufSize the buckets are flushed to the inference queue.
func (a *Aggregator) Push(f *sparse.Frame) {
	a.place(f)
	if a.occupancy() >= a.cfg.EBufSize {
		a.flushBuckets()
	}
}

// place implements the greedy earliest-available-bucket policy with
// the MtTh and MdTh admission conditions.
func (a *Aggregator) place(f *sparse.Frame) {
	if a.cfg.Mode == CBatch {
		// cBatch: every frame opens a fresh bucket.
		b := a.newBucket(CBatch)
		b.add(f)
		b.status = full
		a.buckets = append(a.buckets, b)
		return
	}
	for _, b := range a.buckets {
		if b.status != avl {
			continue
		}
		if len(b.frames) >= a.cfg.MBSize {
			b.status = full
			continue
		}
		// Condition (i): delay between the new frame and the bucket's
		// earliest entry within MtTh.
		if f.T0-b.earliest > a.cfg.MtThUS {
			b.status = full
			continue
		}
		// Condition (ii): relative density change within MdTh.
		ref := b.meanDen
		if ref <= 0 {
			ref = 1e-9
		}
		change := (f.Density() - ref) / ref
		if change < 0 {
			change = -change
		}
		if change > a.cfg.MdTh {
			b.status = full
			continue
		}
		b.add(f)
		return
	}
	nb := a.newBucket(a.cfg.Mode)
	nb.add(f)
	a.buckets = append(a.buckets, nb)
}

// flushBuckets closes every bucket into the inference queue,
// discarding the earliest queued entries on overflow.
func (a *Aggregator) flushBuckets() {
	for _, b := range a.buckets {
		if len(b.frames) > 0 {
			a.closeInto(b, a.enqueue())
		}
		a.recycleBucket(b)
	}
	a.buckets = a.buckets[:0]
	for len(a.queue) > a.cfg.QueueCap {
		a.dropEarliest()
	}
}

// closeInto moves a closed bucket into a queue slot: its members, in
// admission order, its end and combine mode. The slot is priced when it
// is dispatched.
func (a *Aggregator) closeInto(b *bucket, m *Merged) {
	m.NumMerged = len(b.frames)
	m.T1 = b.frames[len(b.frames)-1].T1
	m.mode = b.mode
	m.Frames = append(m.Frames, b.frames...)
}

// price sets a dispatched slot's input density. A slot of several
// members — a cAdd/cAverage bucket — is counted on a grid borrowed for
// this one slot: the union of the members' cells, the NNZ their sum
// would have, over H·W. A one-member slot is its member, so its
// density is the member's.
func (a *Aggregator) price(m *Merged) {
	f := m.Frames[0]
	if len(m.Frames) == 1 {
		m.Density = f.Density()
		return
	}
	pool := a.frames()
	acc := pool.GetAccum(f.H, f.W)
	m.Density = float64(acc.UnionCount(m.Frames)) / float64(f.H*f.W)
	pool.PutAccum(acc)
}

// sum returns the pixels of a dispatched slot's model input, bit for
// bit what merging it at dispatch gave: a one-member slot's member
// itself; otherwise a new frame holding the members' per-pixel sums,
// scattered in admission order into a borrowed grid and emitted once —
// scaled by 1/n for cAverage — with the union of their time bounds.
// That frame comes from the aggregator's pool, and the caller puts it
// back there; the members stay their owner's. A one-member slot is
// its own merge because members are sorted when they are admitted and
// 0 + x and x·1 are exact for every x but −0, which DSFA's input — E2SF
// output, integer event counts — never holds.
//
// The analytic pipeline and the server read only the slot's density,
// so no path calls this yet: it is the entry a numeric executor
// (ROADMAP item 2) calls for the pixels, and the tests pin it.
func (a *Aggregator) sum(m *Merged) *sparse.Frame {
	n := len(m.Frames)
	if n == 1 {
		return m.Frames[0]
	}
	scale := float32(1)
	if m.mode == CAverage {
		scale = 1 / float32(n)
	}
	h, w := m.Frames[0].H, m.Frames[0].W
	// The members' entries bound the merged frame's.
	entries := 0
	for _, f := range m.Frames {
		entries += len(f.Cells)
	}
	pool := a.frames()
	merged := pool.Get(h, w, 0, 0, entries)
	acc := pool.GetAccum(h, w)
	acc.Merge(merged, m.Frames, scale)
	pool.PutAccum(acc)
	return merged
}

// MarkStale flips buckets whose earliest member is older than MtTh to
// FULL, so they dispatch on the next opportunity instead of waiting
// for more frames that may never come.
func (a *Aggregator) MarkStale(nowUS int64) {
	for _, b := range a.buckets {
		if b.status == avl && len(b.frames) > 0 && nowUS-b.earliest > a.cfg.MtThUS {
			b.status = full
		}
	}
}

// DispatchReady is the hardware-became-available path ("if the
// hardware platform becomes available before the event buffer reaches
// full capacity, we dispatch the available merge buckets"): buckets
// that are FULL — at capacity, threshold-closed, or stale per MtTh —
// are priced and drained along with anything already queued. Open
// buckets keep filling, preserving the merge opportunity. Returns nil
// when nothing is ready.
func (a *Aggregator) DispatchReady(nowUS int64) *Batch {
	a.MarkStale(nowUS)
	kept := a.buckets[:0]
	for _, b := range a.buckets {
		if b.status == full || len(b.frames) >= a.cfg.MBSize {
			a.closeInto(b, a.enqueue())
			a.recycleBucket(b)
			continue
		}
		kept = append(kept, b)
	}
	a.buckets = kept
	for len(a.queue) > a.cfg.QueueCap {
		a.dropEarliest()
	}
	return a.takeBatch()
}

// Dispatch flushes everything — open buckets included — and drains the
// inference queue into one batched input. It returns nil when nothing
// is pending. Use at end of stream or when temporal granularity must
// be preserved at any cost.
func (a *Aggregator) Dispatch() *Batch {
	if a.occupancy() > 0 {
		a.flushBuckets()
	}
	return a.takeBatch()
}

// PendingFrames returns buffered-but-undispatched raw frames (buckets
// plus queue) — used by conservation checks.
func (a *Aggregator) PendingFrames() int {
	n := a.occupancy()
	for _, m := range a.queue {
		n += m.NumMerged
	}
	return n
}
