package dsfa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"evedge/internal/mem"
	"evedge/internal/sparse"
)

// frame builds a sparse frame with the given density and time bounds
// on a 20x20 sensor.
func frame(t0, t1 int64, density float64, seed int64) *sparse.Frame {
	r := rand.New(rand.NewSource(seed))
	f := sparse.NewFrame(20, 20, t0, t1)
	n := int(density * 400)
	for i := 0; i < n; i++ {
		y, x := int32(r.Intn(20)), int32(r.Intn(20))
		if p, ng := f.Get(y, x); p == 0 && ng == 0 {
			f.Set(y, x, 1, 0)
		}
	}
	return f
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{EBufSize: 0, MBSize: 1, MtThUS: 1, MdTh: 1, QueueCap: 1},
		{EBufSize: 4, MBSize: 0, MtThUS: 1, MdTh: 1, QueueCap: 1},
		{EBufSize: 4, MBSize: 8, MtThUS: 1, MdTh: 1, QueueCap: 1}, // MBSize > EBufSize
		{EBufSize: 4, MBSize: 2, MtThUS: 0, MdTh: 1, QueueCap: 1},
		{EBufSize: 4, MBSize: 2, MtThUS: 1, MdTh: 0, QueueCap: 1},
		{EBufSize: 4, MBSize: 2, MtThUS: 1, MdTh: 1, QueueCap: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(bad[0]); err == nil {
		t.Fatal("New accepted bad config")
	}
}

func TestCModeStrings(t *testing.T) {
	if CAdd.String() != "cAdd" || CAverage.String() != "cAverage" || CBatch.String() != "cBatch" {
		t.Fatal("mode strings wrong")
	}
	if CMode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

func TestCAddMergesWithinThresholds(t *testing.T) {
	cfg := Config{EBufSize: 4, MBSize: 4, MtThUS: 100_000, MdTh: 10, Mode: CAdd, QueueCap: 8}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Four similar frames arrive within the delay threshold: they all
	// join one bucket; the fourth fills the buffer and flushes.
	for i := int64(0); i < 4; i++ {
		a.Push(frame(i*1000, (i+1)*1000, 0.10, i))
	}
	b := a.Dispatch()
	if b == nil {
		t.Fatal("nothing dispatched")
	}
	if len(b.Merged) != 1 {
		t.Fatalf("buckets=%d want 1", len(b.Merged))
	}
	m := &b.Merged[0]
	if m.NumMerged != 4 || len(m.Frames) != 4 || len(b.Merged) != 1 {
		t.Fatalf("merged=%d members=%d inputs=%d", m.NumMerged, len(m.Frames), len(b.Merged))
	}
	// cAdd conserves events.
	var want float64
	for i := int64(0); i < 4; i++ {
		want += frame(i*1000, (i+1)*1000, 0.10, i).EventCount()
	}
	if got := a.sum(m).EventCount(); got != want {
		t.Fatalf("events=%f want %f", got, want)
	}
	st := a.Stats()
	if st.MergeRatio() != 4 {
		t.Fatalf("merge ratio=%f", st.MergeRatio())
	}
}

func TestMtThSplitsBuckets(t *testing.T) {
	cfg := Config{EBufSize: 8, MBSize: 8, MtThUS: 5_000, MdTh: 10, Mode: CAdd, QueueCap: 8}
	a, _ := New(cfg)
	a.Push(frame(0, 1000, 0.10, 1))
	a.Push(frame(1000, 2000, 0.10, 2))
	// 50 ms later: violates MtTh, must open a new bucket.
	a.Push(frame(50_000, 51_000, 0.10, 3))
	b := a.Dispatch()
	if len(b.Merged) != 2 {
		t.Fatalf("buckets=%d want 2 (MtTh split)", len(b.Merged))
	}
	if b.Merged[0].NumMerged != 2 || b.Merged[1].NumMerged != 1 {
		t.Fatalf("split wrong: %d/%d", b.Merged[0].NumMerged, b.Merged[1].NumMerged)
	}
}

func TestMdThSplitsBuckets(t *testing.T) {
	cfg := Config{EBufSize: 8, MBSize: 8, MtThUS: 1_000_000, MdTh: 0.3, Mode: CAdd, QueueCap: 8}
	a, _ := New(cfg)
	a.Push(frame(0, 1000, 0.10, 1))
	// Density jumps 3x: relative change 2.0 > 0.3 -> new bucket.
	a.Push(frame(1000, 2000, 0.30, 2))
	b := a.Dispatch()
	if len(b.Merged) != 2 {
		t.Fatalf("buckets=%d want 2 (MdTh split)", len(b.Merged))
	}
}

func TestMBSizeCapsBucket(t *testing.T) {
	cfg := Config{EBufSize: 8, MBSize: 2, MtThUS: 1_000_000, MdTh: 10, Mode: CAdd, QueueCap: 8}
	a, _ := New(cfg)
	for i := int64(0); i < 6; i++ {
		a.Push(frame(i*1000, (i+1)*1000, 0.10, i))
	}
	// 6 frames / bucket cap 2 -> 3 buckets.
	b := a.Dispatch()
	if len(b.Merged) != 3 {
		t.Fatalf("buckets=%d want 3", len(b.Merged))
	}
	for _, m := range b.Merged {
		if m.NumMerged != 2 {
			t.Fatalf("bucket size %d want 2", m.NumMerged)
		}
	}
}

func TestCAverage(t *testing.T) {
	cfg := Config{EBufSize: 2, MBSize: 2, MtThUS: 1_000_000, MdTh: 10, Mode: CAverage, QueueCap: 4}
	a, _ := New(cfg)
	f1 := sparse.NewFrame(20, 20, 0, 10)
	f1.Set(1, 1, 4, 0)
	f2 := sparse.NewFrame(20, 20, 10, 20)
	f2.Set(1, 1, 2, 0)
	a.Push(f1)
	a.Push(f2)
	b := a.Dispatch()
	if b == nil || len(b.Merged) != 1 {
		t.Fatal("expected one merged bucket")
	}
	p, _ := a.sum(&b.Merged[0]).Get(1, 1)
	if p != 3 {
		t.Fatalf("average=%f want 3", p)
	}
}

func TestCBatchKeepsFramesSeparate(t *testing.T) {
	cfg := Config{EBufSize: 4, MBSize: 4, MtThUS: 1_000_000, MdTh: 10, Mode: CBatch, QueueCap: 8}
	a, _ := New(cfg)
	for i := int64(0); i < 4; i++ {
		a.Push(frame(i*1000, (i+1)*1000, 0.05, i))
	}
	b := a.Dispatch()
	// Every frame in its own bucket, frames not combined.
	if len(b.Merged) != 4 {
		t.Fatalf("buckets=%d want 4", len(b.Merged))
	}
	if len(b.Merged) != 4 || rawFrames(b) != 4 {
		t.Fatalf("frame counts %d/%d", len(b.Merged), rawFrames(b))
	}
}

func TestQueueOverflowDropsEarliest(t *testing.T) {
	cfg := Config{EBufSize: 1, MBSize: 1, MtThUS: 1_000_000, MdTh: 10, Mode: CAdd, QueueCap: 2}
	a, _ := New(cfg)
	// Every push flushes one bucket into the queue (EBufSize 1); cap 2
	// means the 5 pushes drop 3 earliest buckets.
	for i := int64(0); i < 5; i++ {
		a.Push(frame(i*1000, (i+1)*1000, 0.10, i))
	}
	// Each one-frame bucket dropped is one raw frame dropped.
	if st := a.Stats(); st.DroppedFrames != 3 {
		t.Fatalf("dropped=%d want 3", st.DroppedFrames)
	}
	b := a.Dispatch()
	if len(b.Merged) != 2 {
		t.Fatalf("queued=%d want 2", len(b.Merged))
	}
	// The survivors are the latest frames.
	if b.Merged[0].T1 != 4000 || b.Merged[1].T1 != 5000 {
		t.Fatalf("kept wrong buckets: %d, %d", b.Merged[0].T1, b.Merged[1].T1)
	}
}

func TestEarlyDispatchOnHardwareAvailable(t *testing.T) {
	cfg := Config{EBufSize: 8, MBSize: 4, MtThUS: 1_000_000, MdTh: 10, Mode: CAdd, QueueCap: 8}
	a, _ := New(cfg)
	a.Push(frame(0, 1000, 0.10, 1))
	a.Push(frame(1000, 2000, 0.10, 2))
	// Buffer not full, but hardware is free: dispatch what exists.
	b := a.Dispatch()
	if b == nil || rawFrames(b) != 2 {
		t.Fatal("early dispatch failed")
	}
	// Nothing left.
	if a.Dispatch() != nil {
		t.Fatal("dispatch of empty aggregator returned a batch")
	}
}

// Property: no silent loss — every pushed frame is either dispatched,
// dropped (counted), or still pending.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			EBufSize: 1 + r.Intn(8),
			MtThUS:   int64(1 + r.Intn(20_000)),
			MdTh:     0.1 + r.Float64(),
			Mode:     CMode(r.Intn(3)),
			QueueCap: 1 + r.Intn(4),
		}
		cfg.MBSize = 1 + r.Intn(cfg.EBufSize)
		a, err := New(cfg)
		if err != nil {
			return false
		}
		n := 5 + r.Intn(40)
		dispatched := 0
		for i := 0; i < n; i++ {
			t0 := int64(i) * int64(1+r.Intn(10_000))
			a.Push(frame(t0, t0+1000, 0.02+r.Float64()*0.3, r.Int63()))
			if r.Intn(4) == 0 {
				if b := a.Dispatch(); b != nil {
					dispatched += rawFrames(b)
				}
			}
		}
		if b := a.Dispatch(); b != nil {
			dispatched += rawFrames(b)
		}
		st := a.Stats()
		return n == dispatched+st.DroppedFrames+a.PendingFrames()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: bucket members respect MBSize, every model input has
// pixels, and every pushed frame leaves the aggregator exactly once —
// as a dispatched member or in a dispatch's Shed list — while the
// aggregator returns no frame to its pool.
func TestBucketInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{EBufSize: 8, MBSize: 1 + r.Intn(8), MtThUS: 10_000, MdTh: 0.5, Mode: CAdd, QueueCap: 1 + r.Intn(16)}
		a, err := New(cfg)
		if err != nil {
			return false
		}
		pool := mem.NewFramePool()
		a.SetPool(pool)
		left := map[*sparse.Frame]int{}
		pushed := make([]*sparse.Frame, 30)
		take := func(b *Batch) bool {
			if b == nil {
				return true
			}
			for _, m := range b.Merged {
				if m.NumMerged > cfg.MBSize || m.Density <= 0 {
					return false
				}
				for _, f := range m.Frames {
					left[f]++
				}
			}
			for _, f := range b.Shed {
				left[f]++
			}
			return true
		}
		for i := range pushed {
			t0 := int64(i * 3000)
			pushed[i] = frame(t0, t0+3000, 0.05+r.Float64()*0.1, r.Int63())
			a.Push(pushed[i])
			if r.Intn(3) == 0 && !take(a.DispatchReady(t0+3000)) {
				return false
			}
		}
		if !take(a.Dispatch()) || a.PendingFrames() != 0 || len(left) != len(pushed) {
			return false
		}
		for _, f := range pushed {
			if left[f] != 1 {
				return false
			}
		}
		return pool.Stats().Puts == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHighActivityMergesMore(t *testing.T) {
	// During a burst (frames arriving densely in time), cAdd with a
	// generous MtTh merges many frames per bucket; in quiet periods
	// buckets stay small. This is the mechanism that clears backlog.
	cfg := Config{EBufSize: 16, MBSize: 8, MtThUS: 8_000, MdTh: 5, Mode: CAdd, QueueCap: 32}
	a, _ := New(cfg)
	// Burst: 8 frames 1 ms apart.
	for i := int64(0); i < 8; i++ {
		a.Push(frame(i*1000, (i+1)*1000, 0.2, i))
	}
	burst := a.Dispatch()
	a2, _ := New(cfg)
	// Quiet: 8 frames 20 ms apart (each exceeds MtTh of the last).
	for i := int64(0); i < 8; i++ {
		a2.Push(frame(i*20_000, i*20_000+1000, 0.2, i))
	}
	quiet := a2.Dispatch()
	if len(burst.Merged) >= len(quiet.Merged) {
		t.Fatalf("burst buckets=%d should be fewer than quiet buckets=%d",
			len(burst.Merged), len(quiet.Merged))
	}
}

// BenchmarkAggregatorPushDispatch is the aggregator as the serving
// path drives it: on a shared pool, every frame pushed and followed by
// DispatchReady, buckets of four priced at dispatch on a borrowed grid,
// the consumer handing the dispatched and shed frames back to the pool.
func BenchmarkAggregatorPushDispatch(b *testing.B) {
	const h, w = 128, 128
	rng := rand.New(rand.NewSource(6))
	templates := make([]*sparse.Frame, 16)
	for i := range templates {
		f := sparse.NewFrame(h, w, int64(i)*1000, int64(i+1)*1000)
		for n := 0; n < 600; n++ {
			f.Set(int32(rng.Intn(h)), int32(rng.Intn(w)), float32(1+rng.Intn(3)), float32(rng.Intn(3)))
		}
		f.NNZ() // compact Set's unsorted tail outside the timed region
		templates[i] = f
	}
	for _, mode := range []CMode{CAdd, CAverage} {
		b.Run(mode.String(), func(b *testing.B) {
			pool := mem.NewFramePool()
			agg, err := New(Config{EBufSize: 8, MBSize: 4, MtThUS: 1 << 40, MdTh: 100, Mode: mode, QueueCap: 4})
			if err != nil {
				b.Fatal(err)
			}
			agg.SetPool(pool)
			consume := func(batch *Batch) {
				if batch == nil {
					return
				}
				for _, m := range batch.Merged {
					for _, f := range m.Frames {
						pool.Put(f)
					}
				}
				for _, f := range batch.Shed {
					pool.Put(f)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, t := range templates {
					f := pool.Get(h, w, t.T0, t.T1, len(t.Cells))
					f.Cells = append(f.Cells, t.Cells...)
					f.Pos = append(f.Pos, t.Pos...)
					f.Neg = append(f.Neg, t.Neg...)
					agg.Push(f)
					consume(agg.DispatchReady(f.T1))
				}
				consume(agg.Dispatch())
			}
		})
	}
}

// rawFrames returns the number of raw sparse frames that were
// aggregated into b.
func rawFrames(b *Batch) int {
	n := 0
	for _, m := range b.Merged {
		n += m.NumMerged
	}
	return n
}
