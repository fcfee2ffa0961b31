package serve

import (
	"math/rand"
	"testing"

	"evedge/internal/dsfa"
	"evedge/internal/nn"
	"evedge/internal/pipeline"
	"evedge/internal/sparse"
)

// drain sheds and returns up to max held frames, oldest first (all
// when max <= 0): the tests' view of what a queue holds.
func (q *frameQueue) drain(max int) []*sparse.Frame {
	var out []*sparse.Frame
	for max <= 0 || len(out) < max {
		f := q.st.Shed()
		if f == nil {
			break
		}
		out = append(out, f)
	}
	return out
}

// newTestQueue bounds the hold of a fresh stepper at level: baseline
// (one frame per invocation) unless the level aggregates.
func newTestQueue(t *testing.T, level pipeline.Level, capacity int, policy DropPolicy) *frameQueue {
	t.Helper()
	var cfg dsfa.Config
	if level >= pipeline.LevelDSFA {
		cfg = pipeline.TunedDSFA(nn.MustByName(nn.DOTIE))
	}
	st, err := pipeline.NewStepper(level, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return newFrameQueue(st, capacity, policy)
}

// TestFrameQueueProperty drives the bounded ingest queue through
// random interleavings of pushes, test drains and the stepper's own
// Release/Done steps, below DSFA and at the DSFA level, under both
// drop policies, then checks the queue's contracts:
//
//   - capacity is never exceeded (observed after every operation);
//   - accounting conserves: pushed == dropped + drained + served, once
//     the stepper is flushed;
//   - no frame is duplicated or invented: every frame that comes out —
//     shed, drained or in an invocation — went in exactly once (frames
//     carry unique T0 stamps).
func TestFrameQueueProperty(t *testing.T) {
	for _, policy := range []DropPolicy{DropOldest, DropNewest} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, level := range []pipeline.Level{pipeline.LevelBaseline, pipeline.LevelDSFA} {
				const (
					pushes   = 2000
					capacity = 17
				)
				rng := rand.New(rand.NewSource(42 + int64(level)))
				q := newTestQueue(t, level, capacity, policy)
				seen := make(map[int64]int) // T0 -> times seen out
				out := func(f *sparse.Frame) { seen[f.T0]++ }
				q.recycle = out
				var drained, served uint64
				serve := func(inv *pipeline.Invocation) {
					for _, f := range inv.Frames {
						out(f)
					}
					served += uint64(len(inv.Frames))
					q.st.Done(inv.ReadyUS + float64(rng.Intn(3000)))
				}
				for id := int64(0); id < pushes; {
					switch op := rng.Intn(10); {
					case op < 7:
						// Frames form 1 ms apart, in push order.
						q.push(sparse.NewFrame(2, 2, id, 1000*(id+1)))
						id++
					case op < 8:
						for _, f := range q.drain(rng.Intn(5)) { // 0 = drain all
							out(f)
							drained++
						}
					default:
						if inv := q.st.Release(false); inv != nil {
							serve(inv)
						}
					}
					if n := q.len(); n > capacity {
						t.Fatalf("level %v: queue holds %d frames, capacity %d", level, n, capacity)
					}
				}
				for inv := q.st.Release(true); inv != nil; inv = q.st.Release(true) {
					serve(inv)
				}
				dropped := q.stats()
				if q.st.Pending() != 0 {
					t.Fatalf("level %v: %d frames still pending", level, q.st.Pending())
				}
				// Frames the aggregator sheds come out in an invocation's
				// Frames too, so served counts them.
				if dropped+drained+served != pushes {
					t.Errorf("level %v: conservation: dropped %d + drained %d + served %d != pushed %d",
						level, dropped, drained, served, pushes)
				}
				if len(seen) != pushes {
					t.Errorf("level %v: %d distinct frames came out of %d pushed", level, len(seen), pushes)
				}
				for t0, n := range seen {
					if n != 1 {
						t.Errorf("level %v: frame T0=%d came out %d times", level, t0, n)
					}
				}
			}
		})
	}
}
