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
// A cAdd/cAverage bucket is combined when it closes: its members are
// scattered, in admission order, into a dense accumulation grid
// (sparse.Accum) that is emitted once in (y, x) order, scaled by 1 or
// 1/n. The grid is borrowed from the frame pool for that one bucket
// close and returned all-zero (an unpooled aggregator keeps its own);
// the aggregator holds no W x H state between closes, and a bucket
// carries its running event sum so nothing re-walks member frames.
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
	events   float64 // raw events across frames, in admission order
	earliest int64   // Time(Evf_1)
	meanDen  float64
	status   bucketStatus
	// mode is the combine mode the bucket was opened under; a live
	// Retune must not re-merge frames admitted under different rules.
	mode CMode
}

// add admits f, whose raw event count the caller has already taken.
func (b *bucket) add(f *sparse.Frame, events float64) {
	if len(b.frames) == 0 {
		b.earliest = f.T0
	}
	n := float64(len(b.frames))
	b.meanDen = (b.meanDen*n + f.Density()) / (n + 1)
	b.frames = append(b.frames, f)
	b.events += events
}

// Merged is one combined bucket forwarded to an inference queue.
type Merged struct {
	// Frames holds one merged frame for cAdd/cAverage, or the member
	// frames for cBatch.
	Frames []*sparse.Frame
	// NumMerged is how many raw sparse frames went in.
	NumMerged int
	// Events is the raw event count that entered the bucket.
	Events float64
	T0, T1 int64
}

// Batch is a dispatch unit: the concatenation of queued merged buckets
// presented to the network as one batched input.
type Batch struct {
	Merged []Merged
}

// FrameCount returns the number of model invocations the batch
// represents (merged frames across buckets).
func (b *Batch) FrameCount() int {
	n := 0
	for _, m := range b.Merged {
		n += len(m.Frames)
	}
	return n
}

// RawFrames returns the number of raw sparse frames that were
// aggregated into the batch.
func (b *Batch) RawFrames() int {
	n := 0
	for _, m := range b.Merged {
		n += m.NumMerged
	}
	return n
}

// Stats tracks aggregator behaviour for the experiments.
type Stats struct {
	FramesIn        int
	EventsIn        float64
	BucketsClosed   int
	FramesDispatch  int     // raw frames inside dispatched batches
	EventsDispatch  float64 // raw events inside dispatched batches
	MergedDispatch  int     // merged buckets dispatched
	DroppedBuckets  int     // buckets discarded on queue overflow
	DroppedFrames   int
	DroppedEvents   float64
	FlushesOnFull   int // flushes triggered by buffer occupancy
	EarlyDispatches int // dispatches triggered by hardware availability
	Retunes         int // live configuration swaps applied
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

	// pool, when set (SetPool), switches the aggregator to pooled
	// operation: member frames entering cAdd/cAverage buckets are
	// released back to the pool after merging, dropped queue entries
	// release their frames instead of leaking them, bucket structs and
	// queue storage are recycled, and dispatches reuse one Batch whose
	// contents are only valid until the next dispatch. The serving hot
	// path runs pooled; offline callers leave pool nil and keep the
	// allocate-per-dispatch semantics.
	pool        *mem.FramePool
	own         *sparse.Accum // the unpooled aggregator's grid, nil until first merge
	freeBuckets []*bucket
	spare       []Merged
	batch       Batch
}

// New validates cfg and returns an empty aggregator.
func New(cfg Config) (*Aggregator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Aggregator{cfg: cfg}, nil
}

// Config returns the aggregator's configuration.
func (a *Aggregator) Config() Config { return a.cfg }

// SetPool enables pooled operation: frames the aggregator consumes
// (members merged under cAdd/cAverage, dropped queue entries) are
// returned to p, merged output frames are borrowed from p, and
// internal bucket/queue/batch storage is recycled. In pooled mode a
// dispatched Batch and its Merged entries are valid only until the
// next dispatch — consume them immediately (the pipeline Stepper
// does). Set it before the first Push; frames pushed afterwards must
// be owned by the same pool.
func (a *Aggregator) SetPool(p *mem.FramePool) { a.pool = p }

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
		b.events, b.earliest, b.meanDen, b.status, b.mode = 0, 0, 0, avl, mode
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
		m.NumMerged, m.Events, m.T0, m.T1 = 0, 0, 0, 0
		return m
	}
	a.queue = append(a.queue, Merged{})
	return &a.queue[len(a.queue)-1]
}

// dropEarliest sheds the head of the inference queue, releasing its
// frames in pooled mode, and counts the drop.
func (a *Aggregator) dropEarliest() {
	drop := &a.queue[0]
	if a.pool != nil {
		for _, f := range drop.Frames {
			a.pool.Put(f)
		}
	}
	a.stats.DroppedBuckets++
	a.stats.DroppedFrames += drop.NumMerged
	a.stats.DroppedEvents += drop.Events
	a.queue = a.queue[1:]
}

// takeBatch hands the queued merged buckets out as one dispatch unit
// and counts them. In pooled mode the returned Batch and the queue
// storage are recycled on the next dispatch.
func (a *Aggregator) takeBatch() *Batch {
	if len(a.queue) == 0 {
		return nil
	}
	var batch *Batch
	if a.pool != nil {
		a.batch.Merged = a.queue
		a.queue = a.spare[:0]
		a.spare = a.batch.Merged
		batch = &a.batch
	} else {
		batch = &Batch{Merged: a.queue}
		a.queue = nil
	}
	for _, m := range batch.Merged {
		a.stats.MergedDispatch++
		a.stats.FramesDispatch += m.NumMerged
		a.stats.EventsDispatch += m.Events
	}
	return batch
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
	a.stats.Retunes++
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
	events := f.EventCount()
	a.stats.FramesIn++
	a.stats.EventsIn += events
	a.place(f, events)
	if a.occupancy() >= a.cfg.EBufSize {
		a.stats.FlushesOnFull++
		a.flushBuckets()
	}
}

// place implements the greedy earliest-available-bucket policy with
// the MtTh and MdTh admission conditions.
func (a *Aggregator) place(f *sparse.Frame, events float64) {
	if a.cfg.Mode == CBatch {
		// cBatch: every frame opens a fresh bucket.
		b := a.newBucket(CBatch)
		b.add(f, events)
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
		b.add(f, events)
		return
	}
	nb := a.newBucket(a.cfg.Mode)
	nb.add(f, events)
	a.buckets = append(a.buckets, nb)
}

// flushBuckets combines every bucket per the merge mode and forwards
// the results to the inference queue, discarding the earliest queued
// entries on overflow.
func (a *Aggregator) flushBuckets() {
	for _, b := range a.buckets {
		if len(b.frames) > 0 {
			a.combineInto(b, a.enqueue())
			a.stats.BucketsClosed++
		}
		a.recycleBucket(b)
	}
	a.buckets = a.buckets[:0]
	for len(a.queue) > a.cfg.QueueCap {
		a.dropEarliest()
	}
}

// combineInto merges one bucket into a queue slot: the members are
// scattered, in admission order, into an accumulation grid that is
// then emitted once — scaled by 1/n for cAverage — into the merged
// frame. The grid is borrowed for this one bucket close. In pooled
// mode it and the merged frame come from the pool and the member
// frames (now dead for cAdd/cAverage) are released back to it.
func (a *Aggregator) combineInto(b *bucket, m *Merged) {
	m.NumMerged = len(b.frames)
	m.T0 = b.frames[0].T0
	m.T1 = b.frames[len(b.frames)-1].T1
	m.Events = b.events
	if b.mode == CBatch {
		m.Frames = append(m.Frames, b.frames...)
		return
	}
	scale := float32(1)
	if b.mode == CAverage {
		scale = 1 / float32(len(b.frames))
	}
	h, w := b.frames[0].H, b.frames[0].W
	var acc *sparse.Accum
	var merged *sparse.Frame
	if a.pool != nil {
		// The members' entries bound the merged frame's.
		entries := 0
		for _, f := range b.frames {
			entries += len(f.Ys)
		}
		acc, merged = a.pool.GetAccum(h, w), a.pool.Get(h, w, 0, 0, entries)
	} else {
		if a.own == nil || a.own.H() != h || a.own.W() != w {
			a.own = sparse.NewAccum(h, w)
		}
		acc, merged = a.own, &sparse.Frame{}
	}
	acc.Merge(merged, b.frames, scale)
	m.Frames = append(m.Frames, merged)
	if a.pool != nil {
		a.pool.PutAccum(acc)
		for _, f := range b.frames {
			a.pool.Put(f)
		}
	}
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
// are combined and drained along with anything already queued. Open
// buckets keep filling, preserving the merge opportunity. Returns nil
// when nothing is ready.
func (a *Aggregator) DispatchReady(nowUS int64) *Batch {
	a.MarkStale(nowUS)
	kept := a.buckets[:0]
	for _, b := range a.buckets {
		if b.status == full || len(b.frames) >= a.cfg.MBSize {
			a.stats.BucketsClosed++
			a.combineInto(b, a.enqueue())
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
		a.stats.EarlyDispatches++
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
