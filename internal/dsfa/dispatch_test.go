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
// dispatch: a cAdd/cAverage bucket is merged the moment it closes into
// a frame of its own, and a shed queue entry is dropped. Placement,
// staleness and bucket bookkeeping are the embedded Aggregator's; the
// methods below are the close-time ones, kept as the reference that a
// dispatched bucket's on-demand sum and density must match bit for
// bit. It releases nothing: its members are copies the test drops.
type closeAgg struct{ *Aggregator }

func (a closeAgg) dropEarliest() {
	drop := &a.queue[0]
	a.stats.DroppedFrames += drop.NumMerged
	a.queue = a.queue[1:]
}

func (a closeAgg) takeBatch() *Batch {
	if len(a.queue) == 0 {
		return nil
	}
	batch := &Batch{Merged: a.queue}
	a.queue = nil
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
	acc, merged := a.frames().GetAccum(b.frames[0].H, b.frames[0].W), &sparse.Frame{}
	acc.Merge(merged, b.frames, scale)
	m.Frames = append(m.Frames, merged)
	a.frames().PutAccum(acc)
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
	if len(got.Cells) != len(want.Cells) {
		return fmt.Errorf("%d entries, want %d", len(got.Cells), len(want.Cells))
	}
	for i := range want.Cells {
		gy, gx := got.YX(i)
		wy, wx := want.YX(i)
		if gy != wy || gx != wx ||
			math.Float32bits(got.Pos[i]) != math.Float32bits(want.Pos[i]) ||
			math.Float32bits(got.Neg[i]) != math.Float32bits(want.Neg[i]) {
			return fmt.Errorf("entry %d = (%d,%d,%v,%v), want (%d,%d,%v,%v)", i,
				gy, gx, got.Pos[i], got.Neg[i], wy, wx, want.Pos[i], want.Neg[i])
		}
	}
	return nil
}

// sameBatch requires a dispatch of a to carry exactly the reference's
// buckets: bounds, raw frame counts, every member, one model input
// each, whose density and on-demand sum match the reference's merged
// frame bit for bit. A sum a made goes back to a's pool.
func sameBatch(a *Aggregator, got, want *Batch) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("batch %v, want %v", got != nil, want != nil)
	}
	if got == nil {
		return nil
	}
	if len(got.Merged) != len(want.Merged) {
		return fmt.Errorf("%d buckets, want %d", len(got.Merged), len(want.Merged))
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
		if len(m.Frames) > 1 {
			a.frames().Put(sum)
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
// buckets — the on-demand sum and the density bit for bit — and every
// frame shed since the previous dispatch, and the counters must agree
// after every step, in all three modes. The test releases what each
// dispatch hands out, so once the last Dispatch has run every frame and
// grid must be back in the pool, each returned once.
func TestDispatchCombineMatchesCloseCombine(t *testing.T) {
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
		pool := mem.NewFramePool()
		agg.SetPool(pool)
		shedBefore := 0 // frames shed before the last dispatch
		const h, w = 10, 12
		now := int64(0)
		for step := 0; step <= 300; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			var got, want *Batch
			op := r.Intn(10)
			switch {
			case step == 300:
				got, want = agg.Dispatch(), ref.Dispatch()
			case op < 6:
				now += int64(r.Intn(3000))
				f := pool.Get(h, w, now, now+1000, 0)
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
			if got != nil {
				shed := agg.Stats().DroppedFrames
				if len(got.Shed) != shed-shedBefore {
					t.Fatalf("%s: dispatch hands out %d shed frames, %d were shed since the last", ctx, len(got.Shed), shed-shedBefore)
				}
				shedBefore = shed
				for _, m := range got.Merged {
					for _, f := range m.Frames {
						pool.Put(f)
					}
				}
				for _, f := range got.Shed {
					pool.Put(f)
				}
			}
			if agg.Stats() != ref.Stats() {
				t.Fatalf("%s: stats %+v, reference %+v", ctx, agg.Stats(), ref.Stats())
			}
			if agg.QueueLen() != ref.QueueLen() || agg.PendingFrames() != ref.PendingFrames() {
				t.Fatalf("%s: queue %d pending %d, reference %d / %d", ctx,
					agg.QueueLen(), agg.PendingFrames(), ref.QueueLen(), ref.PendingFrames())
			}
		}
		if fs, as := pool.Stats(), pool.AccumStats(); fs.Live() != 0 || as.Live() != 0 {
			t.Fatalf("seed %d: %d frames and %d grids still borrowed", seed, fs.Live(), as.Live())
		}
	}
}

// TestShedBucketTakesNothingFromPool: a bucket shed on queue overflow
// is never merged and never released, so the overflow neither borrows
// a frame or a grid from the pool nor returns one to it. The shed
// members come out in the next dispatch's Shed list, beside the bucket
// still queued, and the dispatch after that has nothing left.
func TestShedBucketTakesNothingFromPool(t *testing.T) {
	for _, mode := range []CMode{CAdd, CAverage} {
		pool := mem.NewFramePool()
		agg, err := New(Config{EBufSize: 2, MBSize: 2, MtThUS: 1 << 40, MdTh: 100, Mode: mode, QueueCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		agg.SetPool(pool)
		var pushed []*sparse.Frame
		frame := func(t0 int64) *sparse.Frame {
			f := pool.Get(16, 16, t0, t0+1000, 1)
			f.Set(1, 1, 1, 0)
			pushed = append(pushed, f)
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
		if pool.Stats() != frames || pool.AccumStats() != grids {
			t.Fatalf("%v: the overflow moved frames %+v -> %+v, grids %+v -> %+v; want no traffic",
				mode, frames, pool.Stats(), grids, pool.AccumStats())
		}
		b := agg.Dispatch()
		if b == nil || len(b.Merged) != 1 || len(b.Shed) != 2 {
			t.Fatalf("%v: dispatch after the shed: %+v, want one bucket and two shed frames", mode, b)
		}
		if m := b.Merged[0]; len(m.Frames) != 2 || m.Frames[0] != pushed[2] || m.Frames[1] != pushed[3] {
			t.Fatalf("%v: the queued bucket holds %v, want the last two frames", mode, m.Frames)
		}
		if b.Shed[0] != pushed[0] || b.Shed[1] != pushed[1] {
			t.Fatalf("%v: shed %v, want the first two frames", mode, b.Shed)
		}
		if pool.Stats().Puts != frames.Puts {
			t.Fatalf("%v: dispatch released %d frames", mode, pool.Stats().Puts-frames.Puts)
		}
		if b := agg.Dispatch(); b != nil {
			t.Fatalf("%v: a second dispatch returned %+v", mode, b)
		}
	}
}

// TestOneMemberBucketDispatchesItsMember: a one-frame cAdd/cAverage
// bucket is its own merge, so the dispatch carries the member itself
// at its own density, its sum is the member, and neither the dispatch
// nor the sum borrows a grid.
func TestOneMemberBucketDispatchesItsMember(t *testing.T) {
	for _, mode := range []CMode{CAdd, CAverage} {
		agg, err := New(Config{EBufSize: 1, MBSize: 1, MtThUS: 1000, MdTh: 1, Mode: mode, QueueCap: 4})
		if err != nil {
			t.Fatal(err)
		}
		pool := mem.NewFramePool()
		agg.SetPool(pool)
		f := pool.Get(20, 20, 0, 1000, 2)
		f.Set(3, 4, 2, 1)
		f.Set(1, 9, 0, 5)
		agg.Push(f)
		b := agg.Dispatch()
		if b == nil || len(b.Merged) != 1 || len(b.Merged[0].Frames) != 1 || b.Merged[0].Frames[0] != f {
			t.Fatalf("%v: one-member bucket did not dispatch its member", mode)
		}
		if m := &b.Merged[0]; m.Density != f.Density() || agg.sum(m) != f {
			t.Fatalf("%v: one-member bucket priced at %v (member %v) or summed to a copy", mode, m.Density, f.Density())
		}
		if st := pool.AccumStats(); st.Gets != 0 {
			t.Fatalf("%v: one-member dispatch borrowed %d grids", mode, st.Gets)
		}
	}
}

// TestQueueOverflowZeroAlloc: a cycle that pushes four one-frame
// buckets into a queue of two, so the queue sheds two, then dispatches
// and releases the dispatched members and the shed frames, allocates
// nothing once warm: the queue shifts in place and keeps the shed
// slot's storage, and the shed list and the batch swap storage at
// every dispatch.
func TestQueueOverflowZeroAlloc(t *testing.T) {
	pool := mem.NewFramePool()
	agg, err := New(Config{EBufSize: 1, MBSize: 1, MtThUS: 1 << 40, MdTh: 100, Mode: CAdd, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	agg.SetPool(pool)
	now := int64(0)
	released := 0
	cycle := func() {
		for range 4 {
			f := pool.Get(16, 16, now, now+1000, 1)
			f.Set(int32(now/1000%16), 2, 1, 0)
			agg.Push(f)
			now += 1000
		}
		b := agg.Dispatch()
		for _, m := range b.Merged {
			for _, f := range m.Frames {
				pool.Put(f)
			}
		}
		for _, f := range b.Shed {
			pool.Put(f)
		}
		released += len(b.Shed)
	}
	for range 8 {
		cycle()
	}
	shed, released0 := agg.Stats().DroppedFrames, released
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("a shedding cycle allocates %.3f times, want 0", avg)
	}
	if got, out := agg.Stats().DroppedFrames-shed, released-released0; got != 202 || out != 202 {
		t.Fatalf("101 cycles shed %d frames and handed out %d, want 2 per cycle", got, out)
	}
	if live := pool.Stats().Live(); live != 0 {
		t.Fatalf("%d frames still borrowed", live)
	}
}
