package sched

import "testing"

// BenchmarkSubmitPump is the virtual driver's steady state: one
// scheduler, 4 096 requests over two devices and three keys submitted
// and pumped per op, the request structs reused as serve's pool does.
func BenchmarkSubmitPump(b *testing.B) {
	const n = 4096
	s, err := New(Config{Virtual: true, MaxBatch: 8, Dispatch: func([]*Request) float64 { return 0 }})
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

// BenchmarkWallSubmitWait is the same for the wall-clock driver: 512
// requests on one device queue per op, then Wait for the session.
func BenchmarkWallSubmitWait(b *testing.B) {
	const n = 512
	s, err := New(Config{MaxBatch: 8, Dispatch: func([]*Request) float64 { return 0 }})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Session: "s", Key: key(0, []string{"a", "b", "c"}[i%3]), Units: 1}
	}
	cycle := func() {
		for i := range reqs {
			s.Submit(&reqs[i])
		}
		s.Wait("s")
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
