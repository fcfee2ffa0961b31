package dsfa

import (
	"math/rand"
	"testing"

	"evedge/internal/sparse"
)

// randConfig draws a valid aggregator tuning.
func randConfig(r *rand.Rand) Config {
	ebuf := 2 + r.Intn(14)
	return Config{
		EBufSize: ebuf,
		MBSize:   1 + r.Intn(ebuf),
		MtThUS:   int64(1+r.Intn(50)) * 1000,
		MdTh:     0.05 + r.Float64(),
		Mode:     CMode(r.Intn(3)),
		QueueCap: 1 + r.Intn(6),
	}
}

// randFrame draws a frame with a few random events so densities vary.
func randFrame(r *rand.Rand, t int64) *sparse.Frame {
	f := sparse.NewFrame(16, 16, t, t+1000)
	for k, n := 0, 1+r.Intn(24); k < n; k++ {
		f.Set(int32(r.Intn(16)), int32(r.Intn(16)), 1, 0)
	}
	return f
}

// checkConservation asserts the aggregator's core accounting
// invariant: every one of the pushed raw frames is either inside a
// dispatched batch, counted dropped, or still pending.
func checkConservation(t *testing.T, a *Aggregator, step, pushed int) {
	t.Helper()
	s := a.Stats()
	got := s.FramesDispatch + s.DroppedFrames + a.PendingFrames()
	if got != pushed {
		t.Fatalf("step %d: dispatched %d + dropped %d + pending %d = %d, want %d pushed",
			step, s.FramesDispatch, s.DroppedFrames, a.PendingFrames(), got, pushed)
	}
}

// TestRetuneConservesAccounting drives randomized interleavings of
// Push, Retune, DispatchReady and Dispatch and checks after every
// operation that raw frames in == merged-dispatched + dropped +
// pending. This is the safety contract Retune must uphold for the
// online controller to be allowed to fire mid-stream.
func TestRetuneConservesAccounting(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		agg, err := New(randConfig(r))
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		now := int64(0)
		var dispatched, pushed int
		for step := 0; step < 400; step++ {
			switch op := r.Intn(10); {
			case op < 6: // push: the common case
				now += int64(r.Intn(3000))
				agg.Push(randFrame(r, now))
				pushed++
			case op < 8: // retune to a fresh random tuning
				if err := agg.Retune(randConfig(r)); err != nil {
					t.Fatalf("seed %d step %d: Retune: %v", seed, step, err)
				}
			case op < 9: // hardware became available
				if b := agg.DispatchReady(now); b != nil {
					dispatched += rawFrames(b)
				}
			default: // full flush
				if b := agg.Dispatch(); b != nil {
					dispatched += rawFrames(b)
				}
			}
			checkConservation(t, agg, step, pushed)
		}
		// Final flush: everything unaccounted must drain.
		if b := agg.Dispatch(); b != nil {
			dispatched += rawFrames(b)
		}
		checkConservation(t, agg, 400, pushed)
		if agg.PendingFrames() != 0 {
			t.Fatalf("seed %d: %d frames pending after final flush", seed, agg.PendingFrames())
		}
		s := agg.Stats()
		if dispatched != s.FramesDispatch {
			t.Fatalf("seed %d: batches carried %d raw frames, stats say %d", seed, dispatched, s.FramesDispatch)
		}
	}
}

// TestRetuneValidates rejects invalid tunings and leaves state intact.
func TestRetuneValidates(t *testing.T) {
	agg, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	agg.Push(randFrame(rand.New(rand.NewSource(1)), 0))
	bad := DefaultConfig()
	bad.MBSize = bad.EBufSize + 1
	if err := agg.Retune(bad); err == nil {
		t.Fatal("Retune accepted MBSize > EBufSize")
	}
	if agg.Config() != DefaultConfig() || agg.PendingFrames() != 1 {
		t.Fatalf("failed Retune mutated state: %+v, %d frames pending", agg.Config(), agg.PendingFrames())
	}
}

// TestRetuneQueueCapSheds tightens QueueCap mid-stream and checks the
// shed buckets are counted as drops.
func TestRetuneQueueCapSheds(t *testing.T) {
	cfg := Config{EBufSize: 2, MBSize: 1, MtThUS: 1000, MdTh: 0.5, Mode: CAdd, QueueCap: 8}
	agg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for i := int64(0); i < 6; i++ {
		agg.Push(randFrame(r, i*10_000)) // each flushes straight to the queue
	}
	if agg.QueueLen() < 4 {
		t.Fatalf("setup queued %d buckets, want >= 4", agg.QueueLen())
	}
	tight := cfg
	tight.QueueCap = 2
	if err := agg.Retune(tight); err != nil {
		t.Fatalf("Retune: %v", err)
	}
	if agg.QueueLen() != 2 {
		t.Fatalf("queue len %d after tightening, want 2", agg.QueueLen())
	}
	s := agg.Stats()
	if s.DroppedFrames == 0 {
		t.Fatalf("tightened QueueCap shed nothing: %+v", s)
	}
	if s.FramesDispatch+s.DroppedFrames+agg.PendingFrames() != 6 {
		t.Fatal("conservation violated after QueueCap tightening")
	}
}

// TestRetuneModeChangeClosesBuckets verifies a combine-mode swap closes
// open buckets instead of re-merging them under the new mode.
func TestRetuneModeChangeClosesBuckets(t *testing.T) {
	cfg := DefaultConfig() // cAdd, MBSize 4
	agg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	agg.Push(randFrame(r, 0))
	agg.Push(randFrame(r, 100)) // same bucket, still open
	next := cfg
	next.Mode = CBatch
	if err := agg.Retune(next); err != nil {
		t.Fatalf("Retune: %v", err)
	}
	// The closed bucket dispatches immediately even though it is not
	// stale and not at capacity.
	b := agg.DispatchReady(200)
	if b == nil || rawFrames(b) != 2 {
		t.Fatalf("mode change did not close the open bucket: %+v", b)
	}
	// The old-mode bucket still merged under cAdd (one model input).
	if got := len(b.Merged); got != 1 {
		t.Fatalf("pre-swap bucket produced %d inputs, want 1 merged", got)
	}
}
