package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// node is one request of a random submission transcript; its Done
// callback submits children.
type node struct {
	req      Request
	children []*node
}

// transcript is a seeded random workload: n requests over a few devices
// and keys, about a quarter of them submitted from an earlier request's
// Done callback, the rest up front.
type transcript struct {
	maxBatch int
	nodes    []*node
	roots    []*node
}

func randomTranscript(seed int64) *transcript {
	rng := rand.New(rand.NewSource(seed))
	devs := 1 + rng.Intn(4)
	keys := make([]Key, 1+rng.Intn(5))
	for i := range keys {
		keys[i] = key(rng.Intn(devs), fmt.Sprintf("k%d", i))
	}
	tr := &transcript{maxBatch: 1 + rng.Intn(8)}
	for i, n := 0, rng.Intn(201); i < n; i++ {
		nd := &node{req: Request{Session: "s", Key: keys[rng.Intn(len(keys))], Units: 1 + rng.Intn(3), Payload: i}}
		if i > 0 && rng.Intn(4) == 0 {
			parent := tr.nodes[rng.Intn(i)]
			parent.children = append(parent.children, nd)
		} else {
			tr.roots = append(tr.roots, nd)
		}
		tr.nodes = append(tr.nodes, nd)
	}
	return tr
}

// run plays the transcript through a scheduler built from cfg on one
// goroutine — submit every root, then Drain — and returns the batches
// in dispatch order.
func (tr *transcript) run(t *testing.T, cfg Config) [][]*Request {
	var batches [][]*Request
	cfg.MaxBatch = tr.maxBatch
	cfg.Dispatch = func(batch []*Request) float64 {
		batches = append(batches, append([]*Request(nil), batch...))
		return float64(len(batches))
	}
	s := tr.newScheduler(t, cfg)
	for _, nd := range tr.roots {
		s.Submit(&nd.req)
	}
	s.Drain()
	return batches
}

// newScheduler builds a scheduler from cfg and binds every node's Done
// to submit its children there.
func (tr *transcript) newScheduler(t *testing.T, cfg Config) *Scheduler {
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range tr.nodes {
		nd.req.Done = func(float64) {
			for _, c := range nd.children {
				s.Submit(&c.req)
			}
		}
	}
	return s
}

// runConcurrent plays the transcript from g goroutines at once, the way
// serving workers drive the scheduler: goroutine i submits roots i,
// i+g, ... and pumps after each submit, then waits for the work to
// settle (even goroutines by Wait, odd ones by Drain). Dispatch counts
// the batches of each device in flight and fails the test when two
// overlap. It returns the scheduler and the batches in the order they
// entered Dispatch.
func (tr *transcript) runConcurrent(t *testing.T, g int) (*Scheduler, [][]*Request) {
	var mu sync.Mutex
	var batches [][]*Request
	var inFlight [4]atomic.Int32 // randomTranscript draws at most 4 devices
	s := tr.newScheduler(t, Config{
		MaxBatch: tr.maxBatch,
		Dispatch: func(batch []*Request) float64 {
			dev := batch[0].Key.Device
			if n := inFlight[dev].Add(1); n != 1 {
				t.Errorf("%d batches of device %d in Dispatch at once", n, dev)
			}
			mu.Lock()
			batches = append(batches, append([]*Request(nil), batch...))
			mu.Unlock()
			runtime.Gosched() // leave room for another pumper to overlap
			inFlight[dev].Add(-1)
			return 0
		},
	})
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := i; j < len(tr.roots); j += g {
				s.Submit(&tr.roots[j].req)
				s.Pump()
			}
			if i%2 == 0 {
				s.Wait("s")
			} else {
				s.Drain()
			}
		}()
	}
	wg.Wait()
	return s, batches
}

// referenceBatches is the walk the shared core replaced, written out:
// a pass covers the requests submitted before it began; over them, in
// submission order, each request not yet taken opens a batch and pulls
// later ones with its key forward, up to maxBatch. Children submitted
// by the pass's Done callbacks are the next pass.
func (tr *transcript) referenceBatches() [][]*Request {
	var out [][]*Request
	for pending := tr.roots; len(pending) > 0; {
		var next []*node
		taken := make([]bool, len(pending))
		for i, nd := range pending {
			if taken[i] {
				continue
			}
			batch := []*node{nd}
			for j := i + 1; j < len(pending) && len(batch) < tr.maxBatch; j++ {
				if !taken[j] && pending[j].req.Key == nd.req.Key {
					batch, taken[j] = append(batch, pending[j]), true
				}
			}
			var reqs []*Request
			for _, m := range batch {
				reqs = append(reqs, &m.req)
				next = append(next, m.children...)
			}
			out = append(out, reqs)
		}
		pending = next
	}
	return out
}

func ids(batches [][]*Request) [][]int {
	out := make([][]int, len(batches))
	for i, b := range batches {
		for _, r := range b {
			out[i] = append(out[i], r.Payload.(int))
		}
	}
	return out
}

// TestCoreMatchesReference holds the take step and its one driver
// against random transcripts. Pumped from one goroutine, it must
// reproduce the reference walk batch for batch. Pumped from 2 to 8
// goroutines that submit concurrently, it must keep what does not
// depend on timing: one key per batch, at most MaxBatch members,
// submission order within a key, every request dispatched exactly
// once, never two batches of one device in Dispatch at once, and Stats
// that add up.
func TestCoreMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		tr := randomTranscript(seed)
		got := tr.run(t, Config{})
		if want := tr.referenceBatches(); !reflect.DeepEqual(ids(got), ids(want)) {
			t.Fatalf("seed %d (MaxBatch %d): Pump dispatched\n%v\nreference walk\n%v", seed, tr.maxBatch, ids(got), ids(want))
		}

		tr = randomTranscript(seed)
		g := 2 + int(seed%7)
		s, batches := tr.runConcurrent(t, g)
		want := Stats{Submitted: uint64(len(tr.nodes)), Dispatched: uint64(len(tr.nodes)), Dispatches: uint64(len(batches))}
		seen := map[int]bool{}
		lastSeq := map[Key]uint64{}
		for _, b := range batches {
			if len(b) == 0 || len(b) > tr.maxBatch {
				t.Fatalf("seed %d, %d goroutines: batch of %d, MaxBatch %d", seed, g, len(b), tr.maxBatch)
			}
			if len(b) > want.MaxBatchLen {
				want.MaxBatchLen = len(b)
			}
			if len(b) > 1 {
				want.Coalesced += uint64(len(b))
			}
			for _, r := range b {
				if r.Key != b[0].Key {
					t.Fatalf("seed %d, %d goroutines: keys %v and %v share a batch", seed, g, b[0].Key, r.Key)
				}
				if id := r.Payload.(int); seen[id] {
					t.Fatalf("seed %d, %d goroutines: request %d dispatched twice", seed, g, id)
				} else {
					seen[id] = true
				}
				// A key lives on one device, whose batches enter Dispatch
				// one at a time, so the recorded order is the dispatch
				// order and seq must only grow along it.
				if last, ok := lastSeq[r.Key]; ok && r.seq <= last {
					t.Fatalf("seed %d, %d goroutines: key %v dispatched seq %d after %d", seed, g, r.Key, r.seq, last)
				}
				lastSeq[r.Key] = r.seq
				want.Units += uint64(r.Units)
			}
		}
		if len(seen) != len(tr.nodes) {
			t.Fatalf("seed %d, %d goroutines: %d of %d requests dispatched", seed, g, len(seen), len(tr.nodes))
		}
		if st := s.Stats(); st != want {
			t.Fatalf("seed %d, %d goroutines: stats %+v, want %+v", seed, g, st, want)
		}
		if n := s.Pending(); n != 0 || len(s.QueueDepths()) != 0 {
			t.Fatalf("seed %d, %d goroutines: %d pending, depths %v after Drain", seed, g, n, s.QueueDepths())
		}
	}
}

// TestPumpNestedInDone pins a Pump nested in a completion callback: a
// Done that calls Wait for a session with queued requests gets them
// dispatched by the inner Pump, and the outer batch — which the inner
// one must not overwrite — still completes and releases its own
// members afterwards.
func TestPumpNestedInDone(t *testing.T) {
	var events []string
	log := func(what string, r *Request) { events = append(events, fmt.Sprintf("%s:%d", what, r.Payload.(int))) }
	s, err := New(Config{
		Virtual:  true,
		MaxBatch: 2,
		Dispatch: func(batch []*Request) float64 { return 0 },
		Release:  func(r *Request) { log("release", r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*Request, 5)
	for i := range reqs {
		r := &Request{Session: "outer", Key: key(0, "a"), Payload: i}
		if i >= 2 {
			r.Session, r.Key = "inner", key(1, "b")
		}
		r.Done = func(float64) { log("done", r) }
		reqs[i] = r
	}
	reqs[0].Done = func(float64) {
		s.Wait("inner")
		if n := s.Pending(); n != 0 {
			t.Errorf("Wait(inner) inside Done returned with %d requests still queued", n)
		}
		log("done", reqs[0])
	}
	for _, r := range reqs {
		s.Submit(r)
	}
	if !s.Pump() {
		t.Fatal("Pump dispatched nothing")
	}
	want := []string{
		"done:2", "done:3", "release:2", "release:3", // inner Pump, batch [2 3]
		"done:4", "release:4", // inner Pump, batch [4]
		"done:0", "done:1", "release:0", "release:1", // the outer batch [0 1], intact
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events %v\nwant   %v", events, want)
	}
	if st := s.Stats(); st.Dispatches != 3 || st.Dispatched != 5 {
		t.Fatalf("stats %+v", st)
	}
}

// Pending reports the total number of queued requests.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.queues {
		n += q.n
	}
	return n
}
