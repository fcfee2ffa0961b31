package sched

import (
	"strconv"
	"sync/atomic"
	"testing"
)

// BenchmarkSubmitPump is Pump's single-goroutine steady state: one
// scheduler, 4 096 requests over two devices and three keys submitted
// and pumped per op, the request structs reused as serve's pool does.
func BenchmarkSubmitPump(b *testing.B) {
	const n = 4096
	s, err := New(Config{MaxBatch: 8, Dispatch: func([]*Request) float64 { return 0 }})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Session: "s", Key: key(i%2, []string{"a", "b", "c"}[i%3]), Units: 1}
	}
	cycle := func() {
		for i := range reqs {
			s.Submit(&reqs[i])
		}
		s.Pump()
	}
	cycle() // queues and the batch buffer reach capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkWallSubmitWait is the serving shape: GOMAXPROCS goroutines,
// each its own session, submit 512 requests over two devices and three
// keys and Wait for them, so every Wait pumps its own and the others'
// work concurrently.
func BenchmarkWallSubmitWait(b *testing.B) {
	const n = 512
	s, err := New(Config{MaxBatch: 8, Dispatch: func([]*Request) float64 { return 0 }})
	if err != nil {
		b.Fatal(err)
	}
	var sessions atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		session := strconv.FormatInt(sessions.Add(1), 10)
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Session: session, Key: key(i%2, []string{"a", "b", "c"}[i%3]), Units: 1}
		}
		for pb.Next() {
			for i := range reqs {
				s.Submit(&reqs[i])
			}
			s.Wait(session)
		}
	})
}
