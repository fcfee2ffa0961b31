package dsfa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"evedge/internal/mem"
	"evedge/internal/sparse"
)

// closeAgg is the aggregator as it was before buckets were combined at
// dispatch: a cAdd/cAverage bucket is merged the moment it closes, and
// a shed queue entry releases its merged frame. Placement, staleness
// and bucket bookkeeping are the embedded Aggregator's; the methods
// below are the close-time ones, kept as the reference that a
// dispatched bucket's on-demand sum and density must match bit for
// bit.
type closeAgg struct{ *Aggregator }

func (a closeAgg) dropEarliest() {
	drop := &a.queue[0]
	if a.pool != nil {
		for _, f := range drop.Frames {
			a.pool.Put(f)
		}
	}
	a.stats.DroppedFrames += drop.NumMerged
	a.queue = a.queue[1:]
}

func (a closeAgg) takeBatch() *Batch {
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
	}
	return batch
}

func (a closeAgg) Retune(cfg Config) error {
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

func (a closeAgg) Push(f *sparse.Frame) {
	a.place(f)
	if a.occupancy() >= a.cfg.EBufSize {
		a.flushBuckets()
	}
}

func (a closeAgg) flushBuckets() {
	for _, b := range a.buckets {
		if len(b.frames) > 0 {
			a.combineInto(b, a.enqueue())
		}
		a.recycleBucket(b)
	}
	a.buckets = a.buckets[:0]
	for len(a.queue) > a.cfg.QueueCap {
		a.dropEarliest()
	}
}

func (a closeAgg) combineInto(b *bucket, m *Merged) {
	m.NumMerged = len(b.frames)
	m.T1 = b.frames[len(b.frames)-1].T1
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

func (a closeAgg) DispatchReady(nowUS int64) *Batch {
	a.MarkStale(nowUS)
	kept := a.buckets[:0]
	for _, b := range a.buckets {
		if b.status == full || len(b.frames) >= a.cfg.MBSize {
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

func (a closeAgg) Dispatch() *Batch {
	if a.occupancy() > 0 {
		a.flushBuckets()
	}
	return a.takeBatch()
}

// sameFrame requires two frames to be bit-identical: geometry, bounds
// and every entry, the channel values compared as bits.
func sameFrame(got, want *sparse.Frame) error {
	if got.H != want.H || got.W != want.W || got.T0 != want.T0 || got.T1 != want.T1 {
		return fmt.Errorf("frame %dx%d [%d,%d), want %dx%d [%d,%d)",
			got.H, got.W, got.T0, got.T1, want.H, want.W, want.T0, want.T1)
	}
	if len(got.Ys) != len(want.Ys) {
		return fmt.Errorf("%d entries, want %d", len(got.Ys), len(want.Ys))
	}
	for i := range want.Ys {
		if got.Ys[i] != want.Ys[i] || got.Xs[i] != want.Xs[i] ||
			math.Float32bits(got.Pos[i]) != math.Float32bits(want.Pos[i]) ||
			math.Float32bits(got.Neg[i]) != math.Float32bits(want.Neg[i]) {
			return fmt.Errorf("entry %d = (%d,%d,%v,%v), want (%d,%d,%v,%v)", i,
				got.Ys[i], got.Xs[i], got.Pos[i], got.Neg[i], want.Ys[i], want.Xs[i], want.Pos[i], want.Neg[i])
		}
	}
	return nil
}

// sameBatch requires a dispatch of a to carry exactly the reference's
// buckets: bounds, raw frame counts, every member, one model input
// each, whose density and on-demand sum match the reference's merged
// frame bit for bit. A sum a pooled a made goes back to its pool.
func sameBatch(a *Aggregator, got, want *Batch) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("batch %v, want %v", got != nil, want != nil)
	}
	if got == nil {
		return nil
	}
	if len(got.Merged) != len(want.Merged) || got.FrameCount() != want.FrameCount() {
		return fmt.Errorf("%d buckets, %d inputs; want %d, %d", len(got.Merged), got.FrameCount(), len(want.Merged), want.FrameCount())
	}
	for i := range got.Merged {
		m, w := &got.Merged[i], want.Merged[i]
		if m.T1 != w.T1 || m.NumMerged != w.NumMerged || len(m.Frames) != m.NumMerged || len(w.Frames) != 1 {
			return fmt.Errorf("bucket %d: ends %d, %d raw, %d members; want %d, %d, one merged frame (%d)", i,
				m.T1, m.NumMerged, len(m.Frames), w.T1, w.NumMerged, len(w.Frames))
		}
		if math.Float64bits(m.Density) != math.Float64bits(w.Frames[0].Density()) {
			return fmt.Errorf("bucket %d: density %v, want %v", i, m.Density, w.Frames[0].Density())
		}
		sum := a.sum(m)
		err := sameFrame(sum, w.Frames[0])
		if a.pool != nil && len(m.Frames) > 1 {
			a.pool.Put(sum)
		}
		if err != nil {
			return fmt.Errorf("bucket %d sum: %v", i, err)
		}
	}
	return nil
}

// TestDispatchCombineMatchesCloseCombine drives seeded random
// sequences of Push, MarkStale, DispatchReady, Dispatch and Retune
// (mode switches and tightened queue caps included) through an
// aggregator and, with its own copies of the same frames, through the
// close-time reference. Every dispatch must carry the reference's
// buckets — the on-demand sum and the density bit for bit — and the
// counters must agree after every step, in all three modes, pooled and
// unpooled. A pooled run must end with every frame and grid back in
// the pool.
func TestDispatchCombineMatchesCloseCombine(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		for seed := int64(0); seed < 24; seed++ {
			r := rand.New(rand.NewSource(seed))
			cfg := randConfig(r)
			cfg.Mode = CMode(seed % 3)
			agg, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			refAgg, _ := New(cfg)
			ref := closeAgg{refAgg}
			var pool *mem.FramePool
			if pooled {
				pool = mem.NewFramePool()
				agg.SetPool(pool)
			}
			consume := func(b *Batch) {
				if b == nil || pool == nil {
					return
				}
				for _, m := range b.Merged {
					for _, f := range m.Frames {
						pool.Put(f)
					}
				}
			}
			const h, w = 10, 12
			now := int64(0)
			for step := 0; step <= 300; step++ {
				ctx := fmt.Sprintf("pooled %v seed %d step %d", pooled, seed, step)
				var got, want *Batch
				op := r.Intn(10)
				switch {
				case step == 300:
					got, want = agg.Dispatch(), ref.Dispatch()
				case op < 6:
					now += int64(r.Intn(3000))
					f := sparse.NewFrame(h, w, now, now+1000)
					if pool != nil {
						f = pool.Get(h, w, now, now+1000, 0)
					}
					for k, n := 0, 1+r.Intn(30); k < n; k++ {
						if pos, neg := float32(r.Intn(4)), float32(r.Intn(3)); pos+neg > 0 {
							f.Set(int32(r.Intn(h)), int32(r.Intn(w)), pos, neg)
						}
					}
					f.NNZ() // both copies start sorted
					ref.Push(f.Clone())
					agg.Push(f)
				case op < 7:
					agg.MarkStale(now)
					ref.MarkStale(now)
				case op < 8:
					got, want = agg.DispatchReady(now), ref.DispatchReady(now)
				case op < 9:
					got, want = agg.Dispatch(), ref.Dispatch()
				default:
					next := randConfig(r)
					if err, rerr := agg.Retune(next), ref.Retune(next); err != nil || rerr != nil {
						t.Fatalf("%s: Retune: %v, reference %v", ctx, err, rerr)
					}
				}
				if err := sameBatch(agg, got, want); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				consume(got)
				if agg.Stats() != ref.Stats() {
					t.Fatalf("%s: stats %+v, reference %+v", ctx, agg.Stats(), ref.Stats())
				}
				if agg.QueueLen() != ref.QueueLen() || agg.PendingFrames() != ref.PendingFrames() {
					t.Fatalf("%s: queue %d pending %d, reference %d / %d", ctx,
						agg.QueueLen(), agg.PendingFrames(), ref.QueueLen(), ref.PendingFrames())
				}
			}
			if pool != nil {
				if fs, as := pool.Stats(), pool.AccumStats(); fs.Live() != 0 || as.Live() != 0 {
					t.Fatalf("seed %d: %d frames and %d grids still borrowed", seed, fs.Live(), as.Live())
				}
			}
		}
	}
}

// TestShedBucketTakesNothingFromPool: a bucket shed on queue overflow
// is never merged, so the overflow borrows no frame and no grid from
// the pool and returns the shed bucket's members to it.
func TestShedBucketTakesNothingFromPool(t *testing.T) {
	for _, mode := range []CMode{CAdd, CAverage} {
		pool := mem.NewFramePool()
		agg, err := New(Config{EBufSize: 2, MBSize: 2, MtThUS: 1 << 40, MdTh: 100, Mode: mode, QueueCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		agg.SetPool(pool)
		frame := func(t0 int64) *sparse.Frame {
			f := pool.Get(16, 16, t0, t0+1000, 1)
			f.Set(1, 1, 1, 0)
			return f
		}
		agg.Push(frame(0))
		agg.Push(frame(1000)) // the first two-frame bucket closes into the queue
		agg.Push(frame(2000))
		last := frame(3000)
		frames, grids := pool.Stats(), pool.AccumStats()
		agg.Push(last) // the second closes and the queue sheds the first
		if got := agg.Stats().DroppedFrames; got != 2 {
			t.Fatalf("%v: %d frames shed, want the first bucket's 2", mode, got)
		}
		after := pool.Stats()
		if after.Gets != frames.Gets || pool.AccumStats() != grids {
			t.Fatalf("%v: the overflow borrowed %d frames and %d grids, want none",
				mode, after.Gets-frames.Gets, pool.AccumStats().Gets-grids.Gets)
		}
		if after.Puts != frames.Puts+2 {
			t.Fatalf("%v: the overflow released %d frames, want the shed bucket's 2", mode, after.Puts-frames.Puts)
		}
	}
}

// TestOneMemberBucketDispatchesItsMember: a one-frame cAdd/cAverage
// bucket is its own merge, so the dispatch carries the member itself
// at its own density, its sum is the member, and neither the dispatch
// nor the sum borrows a grid.
func TestOneMemberBucketDispatchesItsMember(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		for _, mode := range []CMode{CAdd, CAverage} {
			agg, err := New(Config{EBufSize: 1, MBSize: 1, MtThUS: 1000, MdTh: 1, Mode: mode, QueueCap: 4})
			if err != nil {
				t.Fatal(err)
			}
			pool := mem.NewFramePool()
			f := sparse.NewFrame(20, 20, 0, 1000)
			if pooled {
				agg.SetPool(pool)
				f = pool.Get(20, 20, 0, 1000, 2)
			}
			f.Set(3, 4, 2, 1)
			f.Set(1, 9, 0, 5)
			agg.Push(f)
			b := agg.Dispatch()
			if b == nil || len(b.Merged) != 1 || len(b.Merged[0].Frames) != 1 || b.Merged[0].Frames[0] != f {
				t.Fatalf("pooled %v, %v: one-member bucket did not dispatch its member", pooled, mode)
			}
			if m := &b.Merged[0]; m.Density != f.Density() || agg.sum(m) != f {
				t.Fatalf("pooled %v, %v: one-member bucket priced at %v (member %v) or summed to a copy", pooled, mode, m.Density, f.Density())
			}
			if st := pool.AccumStats(); st.Gets != 0 {
				t.Fatalf("pooled %v, %v: one-member dispatch borrowed %d grids", pooled, mode, st.Gets)
			}
		}
	}
}

// TestQueueOverflowZeroAlloc: a pooled aggregator whose every push
// sheds a queued bucket allocates nothing once warm — the queue shifts
// in place and keeps the shed slot's storage.
func TestQueueOverflowZeroAlloc(t *testing.T) {
	pool := mem.NewFramePool()
	agg, err := New(Config{EBufSize: 1, MBSize: 1, MtThUS: 1 << 40, MdTh: 100, Mode: CAdd, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	agg.SetPool(pool)
	now := int64(0)
	push := func() {
		f := pool.Get(16, 16, now, now+1000, 1)
		f.Set(int32(now/1000%16), 2, 1, 0)
		agg.Push(f)
		now += 1000
	}
	for i := 0; i < 8; i++ {
		push()
	}
	shed := agg.Stats().DroppedFrames
	if avg := testing.AllocsPerRun(100, push); avg != 0 {
		t.Fatalf("a shedding push allocates %.3f times, want 0", avg)
	}
	if got := agg.Stats().DroppedFrames - shed; got != 101 {
		t.Fatalf("%d pushes shed %d frames, want every one", 101, got)
	}
}
