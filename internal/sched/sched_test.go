package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// recorder is a test Dispatch that logs batches deterministically.
type recorder struct {
	mu      sync.Mutex
	batches [][]string // member session IDs per dispatch
}

func (r *recorder) dispatch(batch []*Request) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, len(batch))
	for i, req := range batch {
		ids[i] = req.Session
	}
	r.batches = append(r.batches, ids)
	return float64(len(r.batches)) * 100
}

func key(dev int, net string) Key { return Key{Device: dev, Net: net, Sig: net} }

// TestVirtualCoalescing pumps a mixed pending set and checks
// compatible requests merge up to MaxBatch while incompatible ones
// dispatch alone, in deterministic submission order.
func TestVirtualCoalescing(t *testing.T) {
	rec := &recorder{}
	s, err := New(Config{MaxBatch: 3, Dispatch: rec.dispatch})
	if err != nil {
		t.Fatal(err)
	}
	// a a b a a c a: key A coalesces into [a a a] [a a], b and c alone.
	for i, k := range []string{"a", "a", "b", "a", "a", "c", "a"} {
		s.Submit(&Request{Session: fmt.Sprintf("%s%d", k, i), Key: key(0, k), Units: 1})
	}
	if !s.Pump() {
		t.Fatal("Pump dispatched nothing")
	}
	want := [][]string{{"a0", "a1", "a3"}, {"b2"}, {"a4", "a6"}, {"c5"}}
	if len(rec.batches) != len(want) {
		t.Fatalf("batches %v, want %v", rec.batches, want)
	}
	for i := range want {
		if fmt.Sprint(rec.batches[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("batch %d = %v, want %v", i, rec.batches[i], want[i])
		}
	}
	st := s.Stats()
	if st.Submitted != 7 || st.Dispatches != 4 || st.Coalesced != 5 || st.MaxBatchLen != 3 {
		t.Fatalf("stats %+v", st)
	}
	if occ := st.Occupancy(); occ != 7.0/4.0 {
		t.Fatalf("occupancy %f, want 1.75", occ)
	}
}

// TestVirtualDeterminism replays the same submission sequence twice
// and requires the identical dispatch transcript.
func TestVirtualDeterminism(t *testing.T) {
	run := func() [][]string {
		rec := &recorder{}
		s, _ := New(Config{MaxBatch: 4, Dispatch: rec.dispatch})
		for i := 0; i < 40; i++ {
			k := []string{"a", "b", "c"}[i%3]
			s.Submit(&Request{Session: fmt.Sprintf("s%d", i), Key: key(i%2, k)})
		}
		s.Drain()
		return rec.batches
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same submissions, different dispatch order:\n%v\nvs\n%v", a, b)
	}
}

// TestVirtualDoneResubmits checks Pump-to-quiescence: work submitted
// by a completion callback dispatches in the next pass.
func TestVirtualDoneResubmits(t *testing.T) {
	rec := &recorder{}
	var s *Scheduler
	s, _ = New(Config{MaxBatch: 2, Dispatch: rec.dispatch})
	resubmitted := false
	s.Submit(&Request{Session: "root", Key: key(0, "a"), Done: func(float64) {
		if !resubmitted {
			resubmitted = true
			s.Submit(&Request{Session: "child", Key: key(0, "a")})
		}
	}})
	s.Drain()
	if len(rec.batches) != 2 {
		t.Fatalf("expected 2 dispatches (root, then child), got %v", rec.batches)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending %d after Drain", s.Pending())
	}
}

// TestStarvationBound is the fairness contract: a single low-rate
// session's request queued behind a flash-crowd backlog on the same
// device must dispatch within the bounded number of batches —
// ceil(backlog/MaxBatch) — rather than waiting for the crowd to drain
// one by one, also while other goroutines keep submitting to the crowd
// and pumping.
func TestStarvationBound(t *testing.T) {
	const crowd = 40
	quietAt := func(rec *recorder) int {
		for i, b := range rec.batches {
			for _, id := range b {
				if id == "quiet" {
					return i
				}
			}
		}
		return -1
	}
	// One goroutine: exact bound on the dispatch position.
	rec := &recorder{}
	s, _ := New(Config{MaxBatch: 8, Dispatch: rec.dispatch})
	for i := 0; i < crowd; i++ {
		s.Submit(&Request{Session: "flood", Key: key(0, "crowd")})
	}
	s.Submit(&Request{Session: "quiet", Key: key(0, "trickle")})
	s.Drain()
	// The crowd collapses into ceil(40/8)=5 batches; the trickle must
	// dispatch no later than right after them.
	if pos := quietAt(rec); pos < 0 || pos > crowd/8 {
		t.Fatalf("low-rate request dispatched at batch %d, want 0..%d (crowd must coalesce, not starve)", pos, crowd/8)
	}

	// Four goroutines keep flooding and pumping while the quiet session
	// waits: only the crowd queued before it may go first.
	conc := &recorder{}
	w, _ := New(Config{MaxBatch: 8, Dispatch: conc.dispatch})
	for i := 0; i < crowd; i++ {
		w.Submit(&Request{Session: "flood", Key: key(0, "crowd")})
	}
	w.Submit(&Request{Session: "quiet", Key: key(0, "trickle")})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < crowd; i++ {
				w.Submit(&Request{Session: "flood", Key: key(0, "crowd")})
				w.Pump()
			}
		}()
	}
	w.Wait("quiet")
	wg.Wait()
	w.Drain()
	if pos := quietAt(conc); pos < 0 || pos > crowd/8 {
		t.Fatalf("low-rate request dispatched at batch %d under concurrent pumping, want 0..%d", pos, crowd/8)
	}
}

// TestWaitAndDrain covers the blocking primitives: Wait pumps the
// session's work through, and a Wait that finds the session's last
// request in another goroutine's Dispatch blocks until it completes.
func TestWaitAndDrain(t *testing.T) {
	rec := &recorder{}
	s, _ := New(Config{MaxBatch: 2, Dispatch: rec.dispatch})
	for i := 0; i < 10; i++ {
		s.Submit(&Request{Session: "w", Key: key(i%3, "a")})
	}
	s.Wait("w")
	if n := s.Pending(); n != 0 {
		t.Fatalf("Wait returned with %d pending", n)
	}
	s.Drain()
	if st := s.Stats(); st.Submitted != 10 || st.Dispatched != 10 {
		t.Fatalf("stats %+v", st)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	completed := false
	b, _ := New(Config{Dispatch: func([]*Request) float64 {
		close(entered)
		<-release
		return 0
	}})
	b.Submit(&Request{Session: "slow", Key: key(0, "a"), Done: func(float64) { completed = true }})
	pumped := make(chan struct{})
	go func() {
		b.Pump()
		close(pumped)
	}()
	<-entered
	waited := make(chan struct{})
	go func() {
		b.Wait("slow")
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("Wait returned while the session's batch was still in Dispatch")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-waited
	<-pumped
	if !completed {
		t.Fatal("Wait returned before the batch's Done ran")
	}
}

// TestSubmitAfterClose pins the shutdown path: Close drains, and a
// submit landing after it (a late HTTP handler on a stopping server)
// queues like any other and is dispatched by the next Wait — never
// stranded where Done would not fire and Wait would hang.
func TestSubmitAfterClose(t *testing.T) {
	rec := &recorder{}
	s, _ := New(Config{MaxBatch: 4, Dispatch: rec.dispatch})
	s.Submit(&Request{Session: "early", Key: key(0, "a")})
	s.Close()
	if st := s.Stats(); st.Dispatched != 1 {
		t.Fatalf("Close left work undispatched: %+v", st)
	}
	completed := false
	s.Submit(&Request{Session: "late", Key: key(0, "a"), Done: func(float64) { completed = true }})
	s.Wait("late")
	if !completed {
		t.Fatal("Wait returned before the post-Close submit completed")
	}
	if st := s.Stats(); st.Submitted != 2 || st.Dispatched != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestConfigErrors pins the constructor contract.
func TestConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil Dispatch")
	}
	s, err := New(Config{Dispatch: func([]*Request) float64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.MaxBatch != DefaultMaxBatch {
		t.Fatalf("MaxBatch default %d, want %d", s.cfg.MaxBatch, DefaultMaxBatch)
	}
	if s.Pump() {
		t.Fatal("Pump on an empty scheduler reported work")
	}
	s.Close()
}

// TestObserveHook pins the post-dispatch observer contract: called once
// per micro-batch with the batch and the dispatch end time, after
// Dispatch returns and before any Done callback fires.
func TestObserveHook(t *testing.T) {
	rec := &recorder{}
	type obsCall struct {
		ids []string
		end float64
	}
	var observed []obsCall
	var doneOrder []string
	cfg := Config{MaxBatch: 3, Dispatch: rec.dispatch}
	cfg.Observe = func(batch []*Request, endUS float64) {
		ids := make([]string, len(batch))
		for i, r := range batch {
			ids[i] = r.Session
		}
		observed = append(observed, obsCall{ids, endUS})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("s%d", i)
		s.Submit(&Request{Session: id, Key: key(0, "a"), Done: func(float64) {
			doneOrder = append(doneOrder, id)
			if got := len(observed); got == 0 {
				t.Errorf("Done for %s fired before Observe", id)
			}
		}})
	}
	s.Drain()
	if len(observed) != len(rec.batches) {
		t.Fatalf("observed %d batches, dispatched %d", len(observed), len(rec.batches))
	}
	for i, o := range observed {
		if fmt.Sprint(o.ids) != fmt.Sprint(rec.batches[i]) {
			t.Fatalf("observe %d saw %v, dispatch saw %v", i, o.ids, rec.batches[i])
		}
		// recorder.dispatch returns 100*dispatchNumber as the end time.
		if want := float64(i+1) * 100; o.end != want {
			t.Fatalf("observe %d end %g, want %g", i, o.end, want)
		}
	}
	if len(doneOrder) != 5 {
		t.Fatalf("done callbacks %v, want all 5", doneOrder)
	}
}
