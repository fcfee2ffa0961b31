package serve

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
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
// the pooled DSFA merge, the conv and SpMM kernels serial and tiled,
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

	// DSFA in pooled mode, one aggregator per merging combine mode:
	// buckets of two close through a grid borrowed from framePool, and
	// the consumer hands dispatched frames back, as the stepper does.
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

	// CSR SpMM over a synthetic 5% dense 512x256 matrix.
	var entries []sparse.COOEntry
	const rows, cols, dcols = 512, 256, 16
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.05 {
				entries = append(entries, sparse.COOEntry{Row: int32(r), Col: int32(c), Val: rng.Float32()})
			}
		}
	}
	csr, err := sparse.NewCSR(rows, cols, entries)
	fail(err)
	dmat := sparse.NewMat(cols, dcols)
	for i := range dmat.Data {
		dmat.Data[i] = rng.Float32()
	}
	spmmOut := sparse.NewMat(rows, dcols)

	// The EVAR wire codec on the same chunk, encoded into a buffer that
	// already has the room, as a warm client does per request.
	var wire bytes.Buffer
	fail(events.WriteBinary(&wire, stream))

	// A warm session taking EVAR bodies the way handleIngest does: the
	// body read into a pooled buffer, its framing parsed, its records
	// decoded straight into the session's event buffer, then a Pump.
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
		ch, err := readBody(evarBody, buf)
		if err == nil {
			_, err = evar.srv.ingest(evar.id, ch)
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

	// The scheduler's virtual driver on its own: requests reused as the
	// server's pool reuses them, three keys over two device queues.
	runner, err := sched.New(sched.Config{Virtual: true, Dispatch: func([]*sched.Request) float64 { return 0 }})
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
		{"submanifold_conv2d_tiled", func() error { return sparse.SubmanifoldConv2DTiledInto(subOut, in, f, pool, 8) }},
		{"submanifold_sites", func() error { return sparse.SubmanifoldConv2DSites(subOut, in, f, as) }},
		{"rulebook_observe", func() error { rulebook.Observe(fa); rulebook.Observe(fb); return nil }},
		{"csr_spmm_into", func() error { return csr.SpMMInto(spmmOut, dmat) }},
		{"csr_spmm_tiled", func() error { return csr.SpMMTiledInto(spmmOut, dmat, pool, 8) }},
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
			t.Fatalf("dsfa stage under %v never merged (ratio %.2f): the gate measured no bucket close", agg.Config().Mode, r)
		}
	}
}

// TestSessionHoldsNoGridState pins where the W x H accumulation grid
// lives: in the server's pool, borrowed per conversion call and per
// bucket close — not in the session. Creating a session and running
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
