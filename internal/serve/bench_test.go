package serve

import (
	"testing"

	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/obs"
	"evedge/internal/scene"
)

// benchWorkload is the fixed multi-session shape both sides of the
// serialized-vs-batched comparison run: N same-network sessions (their
// round-robin plans collide pairwise on the platform's devices, so
// compatible invocations exist every drain round) streaming
// deterministic synthetic event chunks through a ManualDrain server.
// Each session keeps one invocation in flight, so the scheduler can
// coalesce only across sessions: the default shape runs enough of them
// to keep the engine saturated (TestBatchedBeatsSerialized logs a
// 9-session shape that does not).
type benchWorkload struct {
	Sessions int
	DurUS    int64
	ChunkUS  int64
	Network  string
}

func defaultBenchWorkload() benchWorkload {
	return benchWorkload{Sessions: 16, DurUS: 400_000, ChunkUS: 20_000, Network: nn.SpikeFlowNet}
}

// benchOutcome is one side of the comparison. The headline metric is
// virtual throughput — raw frames completed per second of simulated
// hardware time: micro-batching pays the per-launch overhead once per
// batch and fills narrow kernels, so the same workload occupies the
// accelerators for less virtual time. Every field is deterministic;
// host-time numbers for this path are bench/'s (pump.*, sched.*).
type benchOutcome struct {
	RawFramesDone uint64
	MakespanUS    float64
	VirtualFPS    float64
	P99US         float64
	Occupancy     float64
}

// runBenchWorkload streams the workload through a fresh ManualDrain
// (deterministic, single-threaded) server with the given micro-batch
// cap and returns the outcome.
func runBenchWorkload(tb testing.TB, w benchWorkload, batchMax int) benchOutcome {
	tb.Helper()
	return runBenchWorkloadTraced(tb, w, batchMax, false)
}

// benchStreams generates the workload's per-session chunked event
// streams; a test comparing two servers generates them once, because
// scene generation costs ~1000x the serving path it feeds.
func benchStreams(tb testing.TB, w benchWorkload) [][]*events.Stream {
	tb.Helper()
	net := nn.MustByName(w.Network)
	var all [][]*events.Stream
	for i := 0; i < w.Sessions; i++ {
		seq, err := scene.NewSequence(net.Input.Preset, scene.Half, int64(100+i))
		if err != nil {
			tb.Fatalf("NewSequence: %v", err)
		}
		stream, err := seq.Generate(w.DurUS)
		if err != nil {
			tb.Fatalf("Generate: %v", err)
		}
		all = append(all, chunks(stream, w.DurUS, w.ChunkUS))
	}
	return all
}

// runBenchWorkloadTraced is runBenchWorkload with the frame-lifecycle
// tracer optionally enabled — the two sides of the behavior-neutrality
// check (TestTraceBehaviorNeutral).
func runBenchWorkloadTraced(tb testing.TB, w benchWorkload, batchMax int, trace bool) benchOutcome {
	tb.Helper()
	return runBenchStreams(tb, w, batchMax, trace, benchStreams(tb, w))
}

// runBenchStreams streams pre-generated chunks through a fresh server.
func runBenchStreams(tb testing.TB, w benchWorkload, batchMax int, trace bool, all [][]*events.Stream) benchOutcome {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.ManualDrain = true
	cfg.BatchMax = batchMax
	if trace {
		// The default trace config — exactly what `evserve -trace` users
		// get, including the default 1-in-4 per-frame span sampling.
		cfg.Trace = obs.Config{Enabled: true, Node: "bench"}
	}
	srv, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	defer srv.Close()

	ids := make([]string, w.Sessions)
	for i := 0; i < w.Sessions; i++ {
		sess, err := srv.CreateSession(SessionConfig{Network: w.Network, Level: 2})
		if err != nil {
			tb.Fatalf("CreateSession: %v", err)
		}
		ids[i] = sess.ID
	}

	for r := range all[0] {
		for i, id := range ids {
			if all[i][r].Len() == 0 {
				continue
			}
			if _, err := srv.Ingest(id, all[i][r]); err != nil {
				tb.Fatalf("Ingest: %v", err)
			}
		}
		srv.Pump()
	}
	var out benchOutcome
	for _, id := range ids {
		fin, err := srv.CloseSession(id)
		if err != nil {
			tb.Fatalf("CloseSession: %v", err)
		}
		out.RawFramesDone += fin.RawFramesDone
		out.P99US = max(out.P99US, fin.Latency.P99US)
	}
	out.MakespanUS = srv.engine.Makespan()
	out.Occupancy = srv.SchedStats().Occupancy()
	if out.MakespanUS > 0 {
		out.VirtualFPS = float64(out.RawFramesDone) / (out.MakespanUS * 1e-6)
	}
	return out
}

// BenchmarkMultiSessionSerialized is the BatchMax=1 baseline: every
// invocation dispatches alone (the old lock-the-engine behaviour,
// minus the lock).
func BenchmarkMultiSessionSerialized(b *testing.B) {
	w := defaultBenchWorkload()
	for i := 0; i < b.N; i++ {
		out := runBenchWorkload(b, w, 1)
		b.ReportMetric(out.VirtualFPS, "vframes/s")
	}
}

// BenchmarkMultiSessionBatched coalesces compatible cross-session
// invocations into micro-batches (BatchMax=8).
func BenchmarkMultiSessionBatched(b *testing.B) {
	w := defaultBenchWorkload()
	for i := 0; i < b.N; i++ {
		out := runBenchWorkload(b, w, 8)
		b.ReportMetric(out.VirtualFPS, "vframes/s")
		b.ReportMetric(out.Occupancy, "occupancy")
	}
}

// TestBatchedBeatsSerialized pins what micro-batching is for, on
// deterministic quantities only: the serialized side dispatches every
// invocation alone, the batched side coalesces, occupies the
// accelerators for less virtual time and never completes less work.
// It also logs the first 9 sessions of the workload run alone: with one
// invocation in flight per session they do not saturate the engine, so
// coalescing their invocations delays more than it saves.
func TestBatchedBeatsSerialized(t *testing.T) {
	w := defaultBenchWorkload()
	all := benchStreams(t, w)
	w9 := w
	w9.Sessions = 9
	serialized9, batched9 := runBenchStreams(t, w9, 1, false, all[:9]), runBenchStreams(t, w9, 8, false, all[:9])
	serialized := runBenchStreams(t, w, 1, false, all)
	batched := runBenchStreams(t, w, 8, false, all)
	for _, row := range []struct {
		n    int
		s, b benchOutcome
	}{{9, serialized9, batched9}, {w.Sessions, serialized, batched}} {
		t.Logf("%d sessions: serialized %.0f fps, p99 %.1f ms, %d frames; batched %.0f fps, p99 %.1f ms, %d frames, occupancy %.2f",
			row.n, row.s.VirtualFPS, row.s.P99US/1e3, row.s.RawFramesDone,
			row.b.VirtualFPS, row.b.P99US/1e3, row.b.RawFramesDone, row.b.Occupancy)
	}
	if serialized.Occupancy != 1 {
		t.Errorf("serialized occupancy %f, want exactly 1", serialized.Occupancy)
	}
	if batched.Occupancy <= 1 {
		t.Errorf("batched occupancy %f, want > 1 (no coalescing happened)", batched.Occupancy)
	}
	if batched.VirtualFPS <= serialized.VirtualFPS {
		t.Errorf("batched virtual throughput %.0f <= serialized %.0f: micro-batching must amortize launch overhead",
			batched.VirtualFPS, serialized.VirtualFPS)
	}
	// Under saturation the serialized side backs up more and its DSFA
	// queues shed more; batching must never complete *less* work.
	if batched.RawFramesDone < serialized.RawFramesDone {
		t.Errorf("batched completed %d raw frames, serialized %d — batching must not lose work",
			batched.RawFramesDone, serialized.RawFramesDone)
	}
}
