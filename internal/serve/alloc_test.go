package serve

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"evedge/internal/dsfa"
	"evedge/internal/e2sf"
	"evedge/internal/events"
	"evedge/internal/mem"
	"evedge/internal/nn"
	"evedge/internal/par"
	"evedge/internal/scene"
	"evedge/internal/sched"
	"evedge/internal/sparse"
)

// allocHarness is the steady-state serving loop the zero-alloc gate
// measures: one DSFA-level session on a ManualDrain server, fed the
// same pre-generated event chunk over and over with its timestamps
// shifted forward in place each cycle. After warm-up every buffer in
// the chain — fused E2SF grids, pooled frames, invocation structs,
// sched request scratch, dispatch merge scratch — has reached its
// steady capacity, so one more cycle should allocate nothing.
type allocHarness struct {
	srv   *Server
	id    string
	chunk *events.Stream
	// span is the chunk's duration; each cycle advances every event
	// timestamp by span so stream time stays monotonic.
	span int64
}

func newAllocHarness(tb testing.TB) *allocHarness {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.ManualDrain = true
	srv, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	sess, err := srv.CreateSession(SessionConfig{Network: nn.SpikeFlowNet, Level: 2})
	if err != nil {
		tb.Fatalf("CreateSession: %v", err)
	}
	net := nn.MustByName(nn.SpikeFlowNet)
	seq, err := scene.NewSequence(net.Input.Preset, scene.Half, 11)
	if err != nil {
		tb.Fatalf("NewSequence: %v", err)
	}
	const span = 20_000
	chunk, err := seq.Generate(span)
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	if chunk.Len() == 0 {
		tb.Fatal("empty template chunk")
	}
	return &allocHarness{srv: srv, id: sess.ID, chunk: chunk, span: span}
}

// cycle is one steady-state serving iteration: advance the template
// chunk one span and run it through ingest → convert → schedule →
// dispatch → complete → release.
func (h *allocHarness) cycle(tb testing.TB) {
	for i := range h.chunk.Events {
		h.chunk.Events[i].TS += h.span
	}
	if _, err := h.srv.Ingest(h.id, h.chunk); err != nil {
		tb.Fatalf("Ingest: %v", err)
	}
	h.srv.Pump()
}

// TestAllocRegression is the CI gate for hot-path allocation creep:
// after warm-up, a full ingest→execute→dispatch→release cycle must
// not allocate at all. Anything nonzero means a pooled buffer leaked
// back to the garbage collector — find it with
// `go test -run '^$' -bench BenchmarkServeCycle -benchmem ./internal/serve`
// and a memory profile before loosening this bound.
func TestAllocRegression(t *testing.T) {
	h := newAllocHarness(t)
	defer h.srv.Close()
	for i := 0; i < 12; i++ {
		h.cycle(t)
	}
	avg := testing.AllocsPerRun(50, func() { h.cycle(t) })
	if raceEnabled {
		// The race detector's instrumentation allocates on its own;
		// under -race this test still drives the full pooled cycle (so
		// the detector sees every arena handoff) but the zero bound is
		// only meaningful in a plain build.
		t.Logf("race build: measured %.2f allocs/op (bound not enforced)", avg)
		return
	}
	if avg != 0 {
		t.Fatalf("steady-state serve cycle allocates: got %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkServeCycle is the -benchmem view of the same loop, for
// debugging when TestAllocRegression trips.
func BenchmarkServeCycle(b *testing.B) {
	h := newAllocHarness(b)
	defer h.srv.Close()
	for i := 0; i < 12; i++ {
		h.cycle(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.cycle(b)
	}
}

// allocDenseInput mirrors the sparse package's benchmark input: a
// tensor with ~density fraction of active sites.
func allocDenseInput(c, h, w int, density float64) *sparse.Tensor {
	rng := rand.New(rand.NewSource(42))
	in := sparse.NewTensor(c, h, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if rng.Float64() < density {
				for ch := 0; ch < c; ch++ {
					in.Set(ch, y, x, rng.Float32())
				}
			}
		}
	}
	return in
}

func allocFilter(outC, inC, k int) *sparse.Filter {
	rng := rand.New(rand.NewSource(7))
	f := sparse.NewFilter(outC, inC, k, 1, k/2)
	for i := range f.Weights {
		f.Weights[i] = rng.Float32() - 0.5
	}
	return f
}

// TestAllocSmoke is the per-stage allocation gate (`make bench-smoke`
// runs it with TestAllocRegression*, which pin the whole serving
// cycle): every hot-path stage below the serving loop — the wire
// codec and binary ingest, the E2SF converter, frame reuse by size,
// the pooled DSFA merge, the conv kernels serial and tiled,
// rulebook upkeep — allocates nothing per call once warm. It also pins
// the 16-byte event, which sets what a buffered event costs a session.
func TestAllocSmoke(t *testing.T) {
	fail := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := unsafe.Sizeof(events.Event{}); n != 16 {
		t.Fatalf("events.Event is %d bytes, want 16", n)
	}

	// E2SF conversion of one synthetic chunk into pooled frames.
	const span = 100_000
	seq, err := scene.NewSequence(scene.IndoorFlying2, scene.Half, 3)
	fail(err)
	stream, err := seq.Generate(span)
	fail(err)
	framePool := mem.NewFramePool()
	fz, err := e2sf.NewFused(e2sf.Config{Width: stream.Width, Height: stream.Height, NumBins: 5}, framePool)
	fail(err)
	var frames []*sparse.Frame

	// DSFA on the shared frame pool, one aggregator per merging combine
	// mode: buckets of two are priced at dispatch on a grid borrowed
	// from framePool, and the consumer hands the dispatched and shed
	// frames back, as the server does for the stepper's invocations.
	var aggs []*dsfa.Aggregator
	for _, mode := range []dsfa.CMode{dsfa.CAdd, dsfa.CAverage} {
		agg, err := dsfa.New(dsfa.Config{EBufSize: 4, MBSize: 2, MtThUS: span, MdTh: 100, Mode: mode, QueueCap: 4})
		fail(err)
		agg.SetPool(framePool)
		aggs = append(aggs, agg)
	}
	consume := func(b *dsfa.Batch) {
		if b == nil {
			return
		}
		for _, m := range b.Merged {
			for _, fr := range m.Frames {
				framePool.Put(fr)
			}
		}
		for _, fr := range b.Shed {
			framePool.Put(fr)
		}
	}

	// Conv kernels over a 5% dense input; the tiled variants run on a
	// warm worker pool, whose free-listed dispatch records and
	// sync.Pool'd task structs are at steady capacity after the first
	// dispatch, so sharded runs must allocate as little as serial ones.
	in := allocDenseInput(2, 64, 64, 0.05)
	f := allocFilter(8, 2, 3)
	oh, ow := f.OutShape(in.H, in.W)
	convOut := sparse.NewTensor(f.OutC, oh, ow)
	subOut := sparse.NewTensor(f.OutC, in.H, in.W)
	pool := par.New(4)
	defer pool.Close()
	as := sparse.NewActiveSet(in.H, in.W, f.K)
	as.BuildFromTensor(in, f.K)

	// Two drifted frames alternating: every Observe after warm-up takes
	// the delta path with buffers at steady capacity.
	fa, fb := sparse.NewFrame(64, 64, 0, 1), sparse.NewFrame(64, 64, 0, 1)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		y, x := int32(rng.Intn(64)), int32(rng.Intn(63))
		fa.Set(y, x, 1, 0)
		fb.Set(y, x+1, 0, 1)
	}
	rulebook := sparse.NewRulebookCache(3, 0)

	// The EVAR wire codec on the same chunk, encoded into a buffer that
	// already has the room, as a warm client does per request.
	var wire bytes.Buffer
	fail(events.WriteBinary(&wire, stream))

	// A warm session taking EVAR bodies the way IngestHandler does: the
	// body read into a pooled buffer, its framing parsed, its records
	// checked and converted a decode segment at a time, then a Pump.
	// The harness chunk's timestamps move on one span per call and it is
	// encoded afresh, into a buffer with the room.
	evar := newAllocHarness(t)
	defer evar.srv.Close()
	var evarWire bytes.Buffer
	evarBody := bytes.NewReader(nil)
	ingestEVAR := func() error {
		for i := range evar.chunk.Events {
			evar.chunk.Events[i].TS += evar.span
		}
		evarWire.Reset()
		if err := events.WriteBinary(&evarWire, evar.chunk); err != nil {
			return err
		}
		evarBody.Reset(evarWire.Bytes())
		buf := bodies.Get().(*bytes.Buffer)
		defer releaseBody(buf)
		ch, err := readChunk(false, evarBody, buf)
		if err == nil {
			_, err = evar.srv.IngestChunk(evar.id, ch)
		}
		evar.srv.Pump()
		return err
	}

	// Reuse by size: one pool lends, op after op, a frame for a
	// one-event emission and one for a ringFrames-event emission, while
	// ringFrames small frames stay borrowed and the oldest comes back
	// each op — frames a quiet session holds queued while a busy one
	// emits. Lent last-in first-out, the large emission would get the
	// small frame returned just before it and regrow it, once per op
	// until every frame in the ring had been regrown.
	const ringFrames = 512
	sizePool := mem.NewFramePool()
	sizeConv, err := e2sf.NewFused(e2sf.Config{Width: 64, Height: 64, NumBins: 1}, sizePool)
	fail(err)
	oneEvent, manyEvents := events.NewStream(64, 64), events.NewStream(64, 64)
	oneEvent.Append(events.Event{X: 1, Y: 1, Pol: events.On, TS: 0})
	for i := 0; i < ringFrames; i++ {
		manyEvents.Append(events.Event{X: uint16(i % 64), Y: uint16(i / 64), Pol: events.Off, TS: int64(i)})
	}
	var ring [ringFrames]*sparse.Frame
	var sized []*sparse.Frame
	emit := func(s *events.Stream) (*sparse.Frame, error) {
		var err error
		sized, _, err = sizeConv.ConvertByCountAppend(sized[:0], s, 0, s.TEnd()+1, s.Len())
		if err != nil {
			return nil, err
		}
		return sized[0], nil
	}
	for i := range ring {
		if ring[i], err = emit(oneEvent); err != nil {
			t.Fatal(err)
		}
	}
	spare, err := emit(oneEvent)
	fail(err)
	large, err := emit(manyEvents)
	fail(err)
	sizePool.Put(spare)
	sizePool.Put(large)
	oldest := 0
	mixedSizes := func() error {
		small, err := emit(oneEvent)
		if err != nil {
			return err
		}
		sizePool.Put(ring[oldest])
		ring[oldest], oldest = small, (oldest+1)%ringFrames
		large, err := emit(manyEvents)
		if err != nil {
			return err
		}
		sizePool.Put(large)
		return nil
	}

	// The scheduler's Pump on its own: requests reused as the
	// server's pool reuses them, three keys over two device queues.
	runner, err := sched.New(sched.Config{Dispatch: func([]*sched.Request) float64 { return 0 }})
	fail(err)
	schedReqs := make([]sched.Request, 256)
	for i := range schedReqs {
		schedReqs[i] = sched.Request{Session: "s", Key: sched.Key{Device: i % 2, Net: []string{"a", "b", "c"}[i%3]}}
	}

	for _, st := range []struct {
		name string
		run  func() error
	}{
		{"evar_encode", func() error { wire.Reset(); return events.WriteBinary(&wire, stream) }},
		{"evar_ingest_warm", ingestEVAR},
		{"frame_pool_mixed_sizes", mixedSizes},
		{"e2sf_convert_fused_pooled", func() (err error) {
			frames, _, err = fz.ConvertGroupedAppend(frames[:0], stream, 0, span, 1)
			for _, fr := range frames {
				framePool.Put(fr)
			}
			return err
		}},
		{"dsfa_push_dispatch_pooled", func() (err error) {
			for _, agg := range aggs {
				frames, _, err = fz.ConvertGroupedAppend(frames[:0], stream, 0, span, 1)
				if err != nil {
					return err
				}
				for _, fr := range frames {
					agg.Push(fr)
					consume(agg.DispatchReady(fr.T1))
				}
				consume(agg.Dispatch())
			}
			return nil
		}},
		{"sparse_conv2d_into", func() error { return sparse.SparseConv2DInto(convOut, in, f) }},
		{"submanifold_conv2d_into", func() error { return sparse.SubmanifoldConv2DInto(subOut, in, f) }},
		{"sparse_conv2d_tiled", func() error { return sparse.SparseConv2DTiledInto(convOut, in, f, pool, 8) }},
		{"submanifold_sites", func() error { return sparse.SubmanifoldConv2DSites(subOut, in, f, as) }},
		{"rulebook_observe", func() error { rulebook.Observe(fa); rulebook.Observe(fb); return nil }},
		{"sched_submit_pump", func() error {
			for i := range schedReqs {
				runner.Submit(&schedReqs[i])
			}
			runner.Pump()
			return nil
		}},
	} {
		t.Run(st.name, func(t *testing.T) {
			run := func() {
				if err := st.run(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm scratch, pools and output capacities
			// The worker pool allocates a dispatch record whenever a worker
			// still holds the last ones; it owns at most 4*width+1, so a
			// stage that allocates nothing itself reads zero within that
			// many measurements, and one that does never will.
			avg := testing.AllocsPerRun(20, run)
			for try := 0; avg != 0 && try < 4*pool.Size()+1; try++ {
				avg = testing.AllocsPerRun(20, run)
			}
			if raceEnabled {
				t.Logf("race build: measured %.2f allocs/op (bound not enforced)", avg)
				return
			}
			if avg != 0 {
				t.Fatalf("got %.2f allocs/op, want 0", avg)
			}
		})
	}
	for _, agg := range aggs {
		if r := agg.Stats().MergeRatio(); r <= 1 {
			t.Fatalf("dsfa stage under %v never merged (ratio %.2f): the gate measured no merge", agg.Config().Mode, r)
		}
	}
}

// TestSessionHoldsNoGridState pins where the W x H accumulation grid
// lives: in the server's pool, borrowed per conversion call and per
// dispatch — not in the session. Creating a session and running
// its first chunk through ingest, pump and close therefore allocates
// the same whatever geometry the chunk declares (same events, warm
// pool), and a thousand steady-state rounds never make the pool build
// another grid.
func TestSessionHoldsNoGridState(t *testing.T) {
	h := newAllocHarness(t)
	defer h.srv.Close()
	w, ht := h.chunk.Width, h.chunk.Height
	quad := &events.Stream{Width: 2 * w, Height: 2 * ht, Events: h.chunk.Events}
	firstIngest := func(chunk *events.Stream) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sess, err := h.srv.CreateSession(SessionConfig{Network: nn.SpikeFlowNet, Level: 2})
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		if _, err := h.srv.Ingest(sess.ID, chunk); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		h.srv.Pump()
		if _, err := h.srv.CloseSession(sess.ID); err != nil {
			t.Fatalf("CloseSession: %v", err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for i := 0; i < 3; i++ { // warm the pool at both geometries
		firstIngest(h.chunk)
		firstIngest(quad)
	}
	small, big := firstIngest(h.chunk), firstIngest(quad)
	// One float32 plane of the *smaller* geometry is the slack; a
	// session owning even a single W x H array would add four of them.
	if slack := uint64(4 * w * ht); big > small+slack {
		t.Fatalf("session create + first ingest allocates %d B at %dx%d but %d B at %dx%d: per-session state scales with geometry",
			small, w, ht, big, 2*w, 2*ht)
	}

	for i := 0; i < 12; i++ {
		h.cycle(t)
	}
	warm := h.srv.ArenaStats().Accums
	for i := 0; i < 1000; i++ {
		h.cycle(t)
	}
	if st := h.srv.ArenaStats().Accums; st.News != warm.News || st.Gets < warm.Gets+1000 || st.Live() != 0 {
		t.Fatalf("grid pool after 1000 rounds: %+v (warm %+v): want no new grids, >= 1000 more borrows, none outstanding", st, warm)
	}
}

// TestServerReturnsEveryFrame: on a pooled server every raw frame goes
// back to the arena exactly once. DSFA hands a dispatched bucket's
// members to the invocation, the scheduler's release hook returns
// them, a shed bucket's members go back from the aggregator, and a
// coalesced micro-batch carries no frames of its own. So once every
// session is closed and the scheduler is idle, the arena has taken back
// as many frames as it lent and no grid is out; a second release of any
// frame would have tripped the pool's double-release panic. Five
// SpikeFlowNet sessions (cAdd; round-robin placement puts two on one
// plan, so they share micro-batches), one HALSIE (cAdd, buckets of two)
// and one DOTIE (cBatch), all at the DSFA level.
func TestServerReturnsEveryFrame(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ManualDrain = true
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	const span, chunks = 20_000, 10
	type feed struct {
		id     string
		stream *events.Stream
	}
	var feeds []feed
	for i, name := range []string{nn.SpikeFlowNet, nn.SpikeFlowNet, nn.SpikeFlowNet, nn.SpikeFlowNet, nn.SpikeFlowNet, nn.HALSIE, nn.DOTIE} {
		sess, err := srv.CreateSession(SessionConfig{Network: name, Level: 2})
		if err != nil {
			t.Fatalf("CreateSession %s: %v", name, err)
		}
		seq, err := scene.NewSequence(nn.MustByName(name).Input.Preset, scene.Half, int64(7+i))
		if err != nil {
			t.Fatalf("NewSequence: %v", err)
		}
		stream, err := seq.Generate(span * chunks)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		feeds = append(feeds, feed{sess.ID, stream})
	}
	for c := int64(0); c < chunks; c++ {
		for _, f := range feeds {
			chunk := &events.Stream{Width: f.stream.Width, Height: f.stream.Height,
				Events: f.stream.Window(c*span, (c+1)*span)}
			if _, err := srv.Ingest(f.id, chunk); err != nil {
				t.Fatalf("Ingest %s: %v", f.id, err)
			}
		}
		srv.Pump()
	}
	merged := false
	for _, f := range feeds {
		snap, err := srv.CloseSession(f.id)
		if err != nil {
			t.Fatalf("CloseSession %s: %v", f.id, err)
		}
		if snap.RawFramesDone == 0 {
			t.Fatalf("session %s (%s) served no frames", f.id, snap.Network)
		}
		merged = merged || snap.BatchedUnits < snap.RawFramesDone
	}
	if !merged {
		t.Fatal("no session merged a bucket: the test exercised no multi-member dispatch")
	}
	if occ := srv.SchedStats().Occupancy(); occ <= 1 {
		t.Fatalf("scheduler occupancy %.2f: no micro-batch coalesced two invocations", occ)
	}
	st := srv.ArenaStats()
	if st.Frames.Gets == 0 || st.Frames.Gets != st.Frames.Puts || st.Accums.Live() != 0 {
		t.Fatalf("arena at quiescence: frames %+v, grids %+v; want every lent frame and grid back", st.Frames, st.Accums)
	}
}

// lifecycleSessions and lifecycleChunkUS shape the session-lifecycle
// gates: the serve_pump_batch pass in small — eight SpikeFlowNet
// sessions at the DSFA level (count framing) on one fresh server, fed
// one second of stream each in 20 ms chunks, a Pump after every round.
const (
	lifecycleSessions = 8
	lifecycleDurUS    = 1_000_000
	lifecycleChunkUS  = 20_000
)

var lifecycleFeed struct {
	once   sync.Once
	chunks [][]*events.Stream // [session][round]
	err    error
}

// lifecycleChunks renders the sessions' streams once per test binary.
func lifecycleChunks(t *testing.T) [][]*events.Stream {
	t.Helper()
	lifecycleFeed.once.Do(func() {
		p := nn.MustByName(nn.SpikeFlowNet).Input.Preset
		for i := range lifecycleSessions {
			seq, err := scene.NewSequence(p, scene.Half, int64(107+i))
			if err != nil {
				lifecycleFeed.err = err
				return
			}
			s, err := seq.Generate(lifecycleDurUS)
			if err != nil {
				lifecycleFeed.err = err
				return
			}
			lifecycleFeed.chunks = append(lifecycleFeed.chunks, chunks(s, lifecycleDurUS, lifecycleChunkUS))
		}
	})
	if lifecycleFeed.err != nil {
		t.Fatalf("generate streams: %v", lifecycleFeed.err)
	}
	return lifecycleFeed.chunks
}

// runLifecycle creates the sessions on srv, feeds every round and
// closes them, returning their final snapshots. onIngest, when set,
// sees each session's emitted frames right after the chunk that
// produced them.
func runLifecycle(t *testing.T, srv *Server, feed [][]*events.Stream, onIngest func([]*sparse.Frame)) []SessionSnapshot {
	t.Helper()
	sessions := make([]*Session, len(feed))
	for i := range sessions {
		sess, err := srv.CreateSession(SessionConfig{Network: nn.SpikeFlowNet, Level: 2})
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		sessions[i] = sess
	}
	for r := range feed[0] {
		for i, sess := range sessions {
			if _, err := srv.Ingest(sess.ID, feed[i][r]); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
			if onIngest != nil {
				onIngest(sess.conv.frames)
			}
		}
		srv.Pump()
	}
	finals := make([]SessionSnapshot, len(sessions))
	for i, sess := range sessions {
		fin, err := srv.CloseSession(sess.ID)
		if err != nil {
			t.Fatalf("CloseSession: %v", err)
		}
		finals[i] = *fin
	}
	return finals
}

// lifecycleConfig is the lifecycle run's server: the serve_pump_batch
// pass's settings.
func lifecycleConfig() Config {
	cfg := DefaultConfig()
	cfg.Mapper = MapperRR
	cfg.BatchMax = 8
	cfg.ManualDrain = true
	return cfg
}

// lifecycleServer is New(lifecycleConfig()), on fresh pools instead of
// any an earlier server handed on: the cold start the first server of
// a process makes, whatever tests ran before.
func lifecycleServer(t *testing.T) *Server {
	t.Helper()
	srv, err := newServer(lifecycleConfig(), idleServerPools.New())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

// lifecycleBudget bounds the heap bytes of one lifecycle run. The run
// measured ≈ 521 KB on linux/amd64, Go 1.24; it measured ≈ 950 KB
// while each session allocated its whole latency window at create and
// pooled frames and count-framing tails grew by doubling. The budget
// is the measured figure plus a fifth: the eight eager windows alone
// (256 KiB) would trip it.
const lifecycleBudget = 640 << 10

// TestSessionLifecycleAllocBudget is the per-session fixed-cost gate:
// everything a fresh server on cold pools allocates from the first CreateSession to
// the last CloseSession of the lifecycle run — the one accumulation
// grid, each session's state, the frames the pool lends, the
// latency windows, the closes' snapshots and rebalances — stays under
// lifecycleBudget bytes.
func TestSessionLifecycleAllocBudget(t *testing.T) {
	feed := lifecycleChunks(t)
	srv := lifecycleServer(t)
	defer srv.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runLifecycle(t, srv, feed, nil)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("lifecycle run allocated %d B (budget %d B)", got, lifecycleBudget)
	if raceEnabled {
		return // the detector's instrumentation allocates on its own
	}
	if got > lifecycleBudget {
		t.Fatalf("lifecycle run allocated %d B, over the %d B budget", got, lifecycleBudget)
	}
}

// TestCountFramedFramesSizedOnce: a count-framed session's pooled
// frames are sized once, at the bound of a run, and never regrow, from
// a cold pool on. Each
// frame's three arrays are allocated by its first emission and keep
// their capacities through every later one, so the pool allocates
// one array set per frame it makes.
func TestCountFramedFramesSizedOnce(t *testing.T) {
	feed := lifecycleChunks(t)
	srv := lifecycleServer(t)
	defer srv.Close()
	caps := map[*sparse.Frame][3]int{}
	emissions := 0
	runLifecycle(t, srv, feed, func(frames []*sparse.Frame) {
		for _, f := range frames {
			emissions++
			c := [3]int{cap(f.Cells), cap(f.Pos), cap(f.Neg)}
			if was, ok := caps[f]; ok && was != c {
				t.Fatalf("pooled frame regrew from capacities %v to %v", was, c)
			}
			caps[f] = c
		}
	})
	t.Logf("%d emissions into %d pooled frames", emissions, len(caps))
	if made := srv.ArenaStats().Frames.News; made != uint64(len(caps)) || emissions <= 2*len(caps) {
		t.Fatalf("%d emissions into %d distinct frames, pool made %d: want every frame made by the pool seen and reused", emissions, len(caps), made)
	}
}

// warmLifecycleBudget bounds the heap bytes of the lifecycle run on a
// server that starts on the pools the same run handed on: no frame, no
// grid, only the sessions' own state. The run measured ≈ 141 KB on
// linux/amd64, Go 1.24, against ≈ 521 KB cold; the budget is the
// measured figure plus a fifth, and the grid alone (≈ 185 KB) would
// trip it.
const warmLifecycleBudget = 168 << 10

// TestServerStartsOnHandedOnPools: a server closed with every session
// closed and everything it lent back hands its pools on, and the next
// New starts on them. The second lifecycle run makes no frame and no
// grid, allocates under warmLifecycleBudget, serves what the first did
// to the last latency, and counts only its own pool traffic, while the
// first server keeps reporting the counters it closed with.
func TestServerStartsOnHandedOnPools(t *testing.T) {
	feed := lifecycleChunks(t)
	first := lifecycleServer(t)
	want := runLifecycle(t, first, feed, nil)
	firstStats := first.ArenaStats()
	first.Close()
	if first.handedOn.Load() == nil {
		t.Fatal("a server closed with every session closed kept its pools")
	}

	srv, err := New(lifecycleConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	if st := srv.ArenaStats(); st.Total != (mem.PoolStats{}) {
		t.Fatalf("a new server's pool counters start at %+v, want zero", st.Total)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := runLifecycle(t, srv, feed, nil)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm lifecycle run allocated %d B (budget %d B)", bytes, warmLifecycleBudget)

	st := srv.ArenaStats()
	if st.Frames.News != 0 || st.Accums.News != 0 {
		t.Fatalf("warm run made %d frames and %d grids, want none", st.Frames.News, st.Accums.News)
	}
	if st.Frames.Gets != firstStats.Frames.Gets || st.Accums.Gets != firstStats.Accums.Gets {
		t.Fatalf("warm run counted %d frame and %d grid borrows, the first run %d and %d: want only its own traffic",
			st.Frames.Gets, st.Accums.Gets, firstStats.Frames.Gets, firstStats.Accums.Gets)
	}
	// Nothing reaches the handed-on pools through the first server: a
	// create is refused and a repeated close only reads its final.
	if _, err := first.CreateSession(SessionConfig{Network: nn.SpikeFlowNet, Level: 2}); err != ErrServerClosed {
		t.Fatalf("CreateSession after Close: %v, want ErrServerClosed", err)
	}
	if fin, err := first.CloseSession(want[0].ID); err != nil || fin.RawFramesDone != want[0].RawFramesDone {
		t.Fatalf("CloseSession after Close: %v, %v", fin, err)
	}
	if now := srv.ArenaStats(); now != st {
		t.Fatalf("the first server's calls moved the second's pools: %+v, were %+v", now, st)
	}
	if was := first.ArenaStats(); was != firstStats {
		t.Fatalf("the first server's counters moved after the hand-on: %+v, closed with %+v", was, firstStats)
	}
	for i := range want {
		want[i].CreatedAt, got[i].CreatedAt = time.Time{}, time.Time{}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("session %d on handed-on pools: %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if !raceEnabled && bytes > warmLifecycleBudget {
		t.Fatalf("warm lifecycle run allocated %d B, over the %d B budget", bytes, warmLifecycleBudget)
	}
}

// TestServerKeepsLentPools: a server closed while something can still
// borrow from its pools or has not returned to them keeps them — with a
// session open (a killed node, whose frames stay frozen in its queues),
// or with a frame lent — and reports live counters; the next New starts
// on other pools.
func TestServerKeepsLentPools(t *testing.T) {
	for _, c := range []struct {
		name string
		hold func(t *testing.T, srv *Server)
	}{
		{"open session", func(t *testing.T, srv *Server) {
			sess, err := srv.CreateSession(SessionConfig{Network: nn.SpikeFlowNet, Level: 2})
			if err != nil {
				t.Fatalf("CreateSession: %v", err)
			}
			if _, err := srv.Ingest(sess.ID, lifecycleChunks(t)[0][0]); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
		}},
		{"frame lent", func(t *testing.T, srv *Server) {
			srv.arena.Frames.Get(4, 4, 0, 1, 0)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := lifecycleServer(t)
			c.hold(t, srv)
			srv.Close()
			if srv.handedOn.Load() != nil {
				t.Fatal("pools handed on")
			}
			next, err := New(lifecycleConfig())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer next.Close()
			if next.arena == srv.arena || next.invPool == srv.invPool || next.pendPool == srv.pendPool {
				t.Fatal("the next server took the closed one's pools")
			}
			if srv.ArenaStats().Frames.Live() == 0 {
				t.Fatal("the kept arena lends nothing")
			}
		})
	}
}
