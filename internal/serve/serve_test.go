package serve

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/pipeline"
	"evedge/internal/scene"
	"evedge/internal/sparse"
)

// genStream renders a preset sequence at half scale.
func genStream(t *testing.T, p scene.Preset, seed, durUS int64) *events.Stream {
	t.Helper()
	seq, err := scene.NewSequence(p, scene.Half, seed)
	if err != nil {
		t.Fatalf("NewSequence: %v", err)
	}
	s, err := seq.Generate(durUS)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return s
}

// chunks splits a stream into consecutive chunkUS-long pieces.
func chunks(s *events.Stream, durUS, chunkUS int64) []*events.Stream {
	var out []*events.Stream
	for t0 := int64(0); t0 < durUS; t0 += chunkUS {
		out = append(out, s.Slice(t0, t0+chunkUS))
	}
	return out
}

// sameFrame reports whether two frames carry the same time bounds and
// entries.
func sameFrame(a, b *sparse.Frame) bool {
	return a.T0 == b.T0 && a.T1 == b.T1 &&
		slices.Equal(a.Cells, b.Cells) &&
		slices.Equal(a.Pos, b.Pos) && slices.Equal(a.Neg, b.Neg)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	cl := NewClient(hs.URL, hs.Client())
	return srv, cl, func() {
		hs.Close()
		srv.Close()
	}
}

func TestFrameQueueDropOldest(t *testing.T) {
	q := newTestQueue(t, pipeline.LevelBaseline, 2, DropOldest)
	f := func(id int64) *sparse.Frame { return sparse.NewFrame(4, 4, id, id+1) }
	if d := q.push(f(0)); d != 0 {
		t.Fatalf("push 0 dropped %d", d)
	}
	q.push(f(1))
	if d := q.push(f(2)); d != 1 {
		t.Fatalf("overflow push dropped %d, want 1", d)
	}
	got := q.drain(0)
	if len(got) != 2 || got[0].T0 != 1 || got[1].T0 != 2 {
		t.Fatalf("drop-oldest kept %v, want frames 1,2", []int64{got[0].T0, got[1].T0})
	}
	if dropped := q.stats(); dropped != 1 {
		t.Fatalf("stats = %d dropped, want 1", dropped)
	}
}

func TestFrameQueueDropNewest(t *testing.T) {
	q := newTestQueue(t, pipeline.LevelBaseline, 2, DropNewest)
	f := func(id int64) *sparse.Frame { return sparse.NewFrame(4, 4, id, id+1) }
	q.push(f(0))
	q.push(f(1))
	if d := q.push(f(2)); d != 1 {
		t.Fatalf("overflow push dropped %d, want 1", d)
	}
	got := q.drain(0)
	if len(got) != 2 || got[0].T0 != 0 || got[1].T0 != 1 {
		t.Fatalf("drop-newest kept wrong frames")
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty after drain")
	}
}

// TestFrameQueueConcurrent hammers one session's ingest queue from
// concurrent pushers while concurrent workers step the session, under
// both drop policies and at levels 0 and 2 (run with -race): pushes
// and execute passes meet only under the session lock, and no frame
// may be both served and counted dropped, nor vanish — the arena
// panics on a frame released twice.
func TestFrameQueueConcurrent(t *testing.T) {
	for _, policy := range []DropPolicy{DropOldest, DropNewest} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, level := range []int{0, 2} {
				const (
					pushers   = 4
					perPusher = 500
				)
				srv, err := New(Config{ManualDrain: true})
				if err != nil {
					t.Fatal(err)
				}
				sess, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: level, QueueCap: 8, DropPolicy: policy.String()})
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				stopDrain := make(chan struct{})
				var drainWG sync.WaitGroup
				for d := 0; d < 2; d++ {
					drainWG.Add(1)
					go func() {
						defer drainWG.Done()
						for {
							select {
							case <-stopDrain:
								return
							default:
							}
							srv.execute(sess, false)
							srv.sched.Pump()
						}
					}()
				}
				var next int64 // guarded by sess.mu: frames form in push order
				for p := 0; p < pushers; p++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < perPusher; i++ {
							sess.mu.Lock()
							next++
							f := srv.arena.Frames.Get(4, 4, 100*(next-1), 100*next, 0)
							sess.framesIn++
							sess.queue.push(f)
							sess.mu.Unlock()
						}
					}()
				}
				wg.Wait()
				close(stopDrain)
				drainWG.Wait()
				fin, err := srv.CloseSession(sess.ID)
				srv.Close()
				if err != nil {
					t.Fatal(err)
				}
				const pushed = pushers * perPusher
				if dropped := sess.queue.stats(); fin.FramesIn != pushed || fin.FramesDropped != dropped {
					t.Fatalf("level %d: snapshot %d in, want %d; %d dropped, queue %d dropped",
						level, fin.FramesIn, pushed, fin.FramesDropped, dropped)
				}
				if got := fin.RawFramesDone + fin.FramesDropped + fin.FramesDroppedDSFA; got != pushed || fin.QueueLen+fin.AggPending != 0 {
					t.Fatalf("level %d: done %d + dropped %d + DSFA-dropped %d != pushed %d (%d still held)",
						level, fin.RawFramesDone, fin.FramesDropped, fin.FramesDroppedDSFA, pushed, fin.QueueLen+fin.AggPending)
				}
			}
		})
	}
}

// TestParseDropPolicyErrors covers the parser's error and alias paths.
func TestParseDropPolicyErrors(t *testing.T) {
	for in, want := range map[string]DropPolicy{
		"": DropOldest, "oldest": DropOldest, "drop-oldest": DropOldest,
		"newest": DropNewest, "drop-newest": DropNewest,
	} {
		got, err := ParseDropPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseDropPolicy(%q) = %v, %v", in, got, err)
		}
	}
	for _, bad := range []string{"drop", "latest", "DROP-OLDEST", "drop-oldest "} {
		if _, err := ParseDropPolicy(bad); err == nil {
			t.Fatalf("ParseDropPolicy(%q) accepted", bad)
		}
	}
	// A bad per-session policy is rejected at session create.
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	if _, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, DropPolicy: "sideways"}); err == nil {
		t.Fatal("bad session drop policy accepted")
	}
}

// TestMapperPolicyErrors covers server-config mapper parsing.
func TestMapperPolicyErrors(t *testing.T) {
	for _, bad := range []string{"evolutionary", "RR", "nm p"} {
		if _, err := New(Config{Mapper: MapperPolicy(bad)}); err == nil {
			t.Fatalf("New accepted mapper %q", bad)
		}
	}
	for _, good := range []MapperPolicy{"", MapperRR, MapperNMP} {
		srv, err := New(Config{Workers: 1, Mapper: good})
		if err != nil {
			t.Fatalf("New(%q): %v", good, err)
		}
		srv.Close()
	}
}

// TestIngestConverterMatchesOffline feeds a stream chunk by chunk and
// closes the session: its frames must be the offline ConvertStream's
// of the stream ended at the last event + 1 µs, entry for entry and
// bound for bound, for a time-framed network (DOTIE) and a count-framed
// one (SpikeFlowNet). One difference is left, the seed: the offline
// conversion starts its first run at 0, a session at its first event,
// so the first count-framed frame's T0 differs and nothing else does.
func TestIngestConverterMatchesOffline(t *testing.T) {
	const dur = 200_000
	for _, name := range []string{nn.DOTIE, nn.SpikeFlowNet} {
		net := nn.MustByName(name)
		stream := genStream(t, net.Input.Preset, 3, dur)
		offline, _, err := pipeline.ConvertStream(net, stream, stream.TEnd()+1)
		if err != nil {
			t.Fatalf("%s: ConvertStream: %v", name, err)
		}
		conv := &ingestConverter{spec: net.Input}
		var inc []*sparse.Frame
		for _, c := range chunks(stream, dur, 17_000) {
			fs, err := conv.ingest(StreamChunk(c))
			if err != nil {
				t.Fatalf("%s: ingest: %v", name, err)
			}
			inc = append(inc, fs...)
		}
		inc = append(inc, conv.close()...)
		if len(inc) == 0 || len(inc) != len(offline) {
			t.Fatalf("%s: incremental produced %d frames, offline %d", name, len(inc), len(offline))
		}
		if net.Input.Framing == nn.FrameByCount {
			if inc[0].T0 != stream.TStart() || offline[0].T0 != 0 {
				t.Fatalf("%s: first frame starts at %dus served, %dus offline; want the first event's %dus and 0",
					name, inc[0].T0, offline[0].T0, stream.TStart())
			}
			first := *inc[0]
			first.T0 = 0
			inc[0] = &first
		}
		for i, f := range inc {
			if o := offline[i]; !sameFrame(f, o) {
				t.Fatalf("%s: frame %d: incremental {%d,%d,nnz=%d} != offline {%d,%d,nnz=%d}",
					name, i, f.T0, f.T1, f.NNZ(), o.T0, o.T1, o.NNZ())
			}
		}
	}
}

// TestIngestRejectsOutOfGeometry: an event outside the declared sensor
// would alias another pixel of the converter's grid or index past it.
// Both wire formats answer 400, the session is left untouched, and the
// next valid chunk converts exactly as if the bad one never arrived.
func TestIngestRejectsOutOfGeometry(t *testing.T) {
	mk := func(t0 int64, xy ...uint16) *events.Stream {
		s := events.NewStream(8, 8)
		for i := 0; i < len(xy); i += 2 {
			s.Append(events.Event{X: xy[i], Y: xy[i+1], TS: t0 + int64(i)*500, Pol: events.On})
		}
		return s
	}
	first := mk(0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7) // 6 ms: one DOTIE window
	next := mk(7_000, 1, 4, 2, 5, 3, 6, 4, 7, 5, 0, 6, 1, 7, 2)
	alias := mk(6_500, 9, 3) // flat index 33 = pixel (1,4)
	past := mk(6_500, 9, 7)  // flat index 65 of 64

	_, cl, stop := newTestServer(t, Config{ManualDrain: true})
	defer stop()
	snap, err := cl.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 2})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := cl.SendEvents(snap.ID, first); err != nil {
		t.Fatalf("SendEvents: %v", err)
	}
	before, err := cl.Session(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	for name, send := range map[string]func(string, *events.Stream) (*IngestResult, error){
		"JSON": cl.SendEventsJSON, "EVAR": cl.SendEvents,
	} {
		for _, bad := range []*events.Stream{alias, past} {
			if _, err := send(snap.ID, bad); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
				t.Fatalf("%s chunk with event (%d,%d) on 8x8: err = %v, want HTTP 400",
					name, bad.Events[0].X, bad.Events[0].Y, err)
			}
		}
	}
	after, err := cl.Session(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.EventsIn != before.EventsIn || after.FramesIn != before.FramesIn || after.StreamTimeUS != before.StreamTimeUS {
		t.Fatalf("rejected chunks moved the session: events %d->%d frames %d->%d watermark %d->%d",
			before.EventsIn, after.EventsIn, before.FramesIn, after.FramesIn, before.StreamTimeUS, after.StreamTimeUS)
	}

	// Frame for frame: a converter that saw the bad chunks against one
	// that did not.
	spec := nn.MustByName(nn.DOTIE).Input
	hit, clean := &ingestConverter{spec: spec}, &ingestConverter{spec: spec}
	for _, c := range []*events.Stream{first, alias, past, next} {
		got, err := hit.ingest(StreamChunk(c))
		if c == alias || c == past {
			if !errors.Is(err, events.ErrGeometry) {
				t.Fatalf("ingest of out-of-geometry chunk: err = %v, want ErrGeometry", err)
			}
			continue
		}
		want, werr := clean.ingest(StreamChunk(c))
		if err != nil || werr != nil {
			t.Fatalf("ingest: %v / %v", err, werr)
		}
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("chunk at %dus: %d frames, want %d (> 0)", c.TStart(), len(got), len(want))
		}
		for i := range want {
			if !sameFrame(got[i], want[i]) {
				t.Fatalf("chunk at %dus frame %d differs after a rejected chunk", c.TStart(), i)
			}
		}
	}
}

// TestIngestRejectsUnboundedWork: a well-formed chunk must not be able
// to buy unbounded work. A first chunk declaring a sensor over
// maxSessionPixels (it would size the session's grids) and a chunk
// whose last timestamp lies more than maxFramesPerIngest frames of
// time framing ahead (every window in between is emitted, empty or
// not) are answered 400 on both wire formats, leave the session
// untouched — its geometry still undeclared, its watermark unmoved —
// and the next valid chunk converts as if they never arrived.
func TestIngestRejectsUnboundedWork(t *testing.T) {
	mk := func(w, h int, ts ...int64) *events.Stream {
		s := events.NewStream(w, h)
		for i, t := range ts {
			s.Append(events.Event{X: uint16(i % 8), Y: uint16(i % 8), TS: t, Pol: events.On})
		}
		return s
	}
	spec := nn.MustByName(nn.DOTIE).Input // 5 ms windows, 5 frames each
	windows := int64(maxFramesPerIngest/5 + 1)
	huge := mk(2049, 2048, 0, 6_000) // 2049 * 2048 = maxSessionPixels + 2048
	first := mk(8, 8, 0, 1_000, 2_000, 3_000, 4_000, 5_000, 6_000)
	gap := mk(8, 8, 6_500, 5_000+windows*spec.WindowUS) // the session's next window starts at 5 ms
	next := mk(8, 8, 7_000, 8_000, 9_000, 10_000, 11_000)

	_, cl, stop := newTestServer(t, Config{ManualDrain: true})
	defer stop()
	snap, err := cl.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 2})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	rejected := func(what string, bad *events.Stream) {
		t.Helper()
		before, err := cl.Session(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		for name, send := range map[string]func(string, *events.Stream) (*IngestResult, error){
			"JSON": cl.SendEventsJSON, "EVAR": cl.SendEvents,
		} {
			if _, err := send(snap.ID, bad); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
				t.Fatalf("%s chunk with %s: err = %v, want HTTP 400", name, what, err)
			}
		}
		after, err := cl.Session(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if after.EventsIn != before.EventsIn || after.FramesIn != before.FramesIn || after.StreamTimeUS != before.StreamTimeUS {
			t.Fatalf("rejected %s moved the session: events %d->%d frames %d->%d watermark %d->%d", what,
				before.EventsIn, after.EventsIn, before.FramesIn, after.FramesIn, before.StreamTimeUS, after.StreamTimeUS)
		}
	}
	rejected("a 2049x2048 sensor", huge)
	if res, err := cl.SendEvents(snap.ID, first); err != nil || res.Frames == 0 {
		t.Fatalf("8x8 chunk after the rejected geometry: %+v, %v", res, err)
	}
	rejected("a 65.5 s gap", gap)
	if res, err := cl.SendEvents(snap.ID, next); err != nil || res.Frames == 0 {
		t.Fatalf("chunk after the rejected gap: %+v, %v", res, err)
	}

	// Frame for frame: a converter that saw the bad chunks against one
	// that did not.
	hit, clean := &ingestConverter{spec: spec}, &ingestConverter{spec: spec}
	for _, c := range []*events.Stream{huge, first, gap, next} {
		got, err := hit.ingest(StreamChunk(c))
		if c == huge || c == gap {
			if !errors.Is(err, ErrChunkTooLarge) {
				t.Fatalf("ingest of an over-bounds chunk: err = %v, want ErrChunkTooLarge", err)
			}
			continue
		}
		want, werr := clean.ingest(StreamChunk(c))
		if err != nil || werr != nil {
			t.Fatalf("ingest: %v / %v", err, werr)
		}
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("chunk at %dus: %d frames, want %d (> 0)", c.TStart(), len(got), len(want))
		}
		for i := range want {
			if !sameFrame(got[i], want[i]) {
				t.Fatalf("chunk at %dus frame %d differs after a rejected chunk", c.TStart(), i)
			}
		}
	}
	// One window short of the bound is still served.
	if _, err := hit.ingest(StreamChunk(mk(8, 8, 12_000, 10_000+(windows-1)*spec.WindowUS))); err != nil {
		t.Fatalf("chunk of exactly maxFramesPerIngest/5 windows rejected: %v", err)
	}
}

// TestIngestConverterCountFraming checks count-based framing emits
// frames incrementally and the close flush emits the partial tail.
func TestIngestConverterCountFraming(t *testing.T) {
	net := nn.MustByName(nn.SpikeFlowNet) // FrameByCount
	const dur = 150_000
	stream := genStream(t, net.Input.Preset, 5, dur)

	conv := &ingestConverter{spec: net.Input}
	total := 0
	var frames []*sparse.Frame
	for _, c := range chunks(stream, dur, 25_000) {
		fs, err := conv.ingest(StreamChunk(c))
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		frames = append(frames, fs...)
		total += c.Len()
	}
	frames = append(frames, conv.close()...)
	if len(frames) < 2 {
		t.Fatalf("count framing produced %d frames", len(frames))
	}
	var evs float64
	for i, f := range frames {
		evs += f.EventCount()
		if i > 0 && f.T0 != frames[i-1].T1 {
			t.Fatalf("frame %d not contiguous: T0=%d, prev T1=%d", i, f.T0, frames[i-1].T1)
		}
	}
	if int(evs+0.5) != total {
		t.Fatalf("frames hold %.0f events, ingested %d", evs, total)
	}
}

// TestIngestConverterLargeEpoch feeds a stream whose timestamps start
// far from zero: windowing must anchor at the stream's own epoch
// instead of walking empty windows up from t=0.
func TestIngestConverterLargeEpoch(t *testing.T) {
	net := nn.MustByName(nn.DOTIE)
	const epoch = int64(1_700_000_000_000_000) // wall-clock-like microseconds
	conv := &ingestConverter{spec: net.Input}
	chunk := events.NewStream(64, 64)
	for i := int64(0); i < 200; i++ {
		chunk.Append(events.Event{X: uint16(i % 64), Y: uint16(i % 48), TS: epoch + i*60, Pol: events.On})
	}
	done := make(chan struct{})
	var frames []*sparse.Frame
	var err error
	go func() {
		frames, err = conv.ingest(StreamChunk(chunk))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ingest of large-epoch stream did not return (unbounded window walk)")
	}
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	// 200 events over ~12 ms cover two 5 ms windows -> 2*NumBins frames.
	if len(frames) != 2*net.Input.NumBins {
		t.Fatalf("got %d frames, want %d", len(frames), 2*net.Input.NumBins)
	}
	if frames[0].T0 < epoch-net.Input.WindowUS || frames[0].T0 > epoch {
		t.Fatalf("first frame T0=%d not anchored near epoch %d", frames[0].T0, epoch)
	}
	if got := conv.span(); got != 199*60 {
		t.Fatalf("span = %d, want %d", got, 199*60)
	}
}

// TestIngestConverterNegativeEpoch: Validate accepts negative
// timestamps, so a time-framed session whose stream starts below zero
// — just below, and more than a window below — must anchor its first
// window at or under the first event and frame every event it is
// given: none refused, none trimmed away ahead of the first window.
func TestIngestConverterNegativeEpoch(t *testing.T) {
	net := nn.MustByName(nn.DOTIE) // FrameByTime, 5 ms windows
	for _, first := range []int64{-5, -net.Input.WindowUS - 1} {
		conv := &ingestConverter{spec: net.Input}
		var eventsIn, framed int
		for c := 0; c < 3; c++ {
			chunk := events.NewStream(64, 64)
			for i := int64(0); i < 100; i++ {
				ts := first + (int64(c)*100+i)*60
				chunk.Append(events.Event{X: uint16(i % 64), Y: uint16(i % 48), TS: ts, Pol: events.On})
			}
			frames, err := conv.ingest(StreamChunk(chunk))
			if err != nil {
				t.Fatalf("first event at %dus, chunk %d: %v", first, c, err)
			}
			if c == 0 && (len(frames) == 0 || frames[0].T0 > first) {
				t.Fatalf("first event at %dus: chunk 0 gave %d frames, none starting at or before it", first, len(frames))
			}
			eventsIn += chunk.Len()
			for _, f := range frames {
				framed += int(f.EventCount())
			}
		}
		if framed == 0 || framed+len(tail(conv)) != eventsIn {
			t.Fatalf("first event at %dus: %d events framed + %d buffered, %d ingested", first, framed, len(tail(conv)), eventsIn)
		}
		if got := conv.span(); got != 299*60 {
			t.Fatalf("first event at %dus: span = %d, want %d", first, got, 299*60)
		}
	}
}

// TestClosedSessionEviction bounds the retained closed-session set.
func TestClosedSessionEviction(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	var ids []string
	for i := 0; i < MaxClosed+2; i++ {
		sess, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 1})
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		ids = append(ids, sess.ID)
		if _, err := srv.CloseSession(sess.ID); err != nil {
			t.Fatalf("CloseSession: %v", err)
		}
	}
	for _, id := range ids[:2] {
		if _, ok := srv.Session(id); ok {
			t.Fatalf("oldest closed session %s not evicted", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := srv.Session(id); !ok {
			t.Fatalf("recent closed session %s evicted", id)
		}
	}
	if _, err := srv.CloseSession(ids[0]); !errors.Is(err, ErrNoSession) {
		t.Fatalf("closing evicted session: got %v, want ErrNoSession", err)
	}
}

// TestSessionLifecycle covers create -> stream -> stats -> close over
// HTTP with the EVAR binary wire format.
func TestSessionLifecycle(t *testing.T) {
	_, cl, stop := newTestServer(t, Config{Workers: 2})
	defer stop()

	snap, err := cl.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 2})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if snap.ID == "" || snap.State != "active" || snap.Network != nn.DOTIE {
		t.Fatalf("bad create snapshot: %+v", snap)
	}

	const dur = 200_000
	net := nn.MustByName(nn.DOTIE)
	stream := genStream(t, net.Input.Preset, 11, dur)
	var sent int
	for _, c := range chunks(stream, dur, 20_000) {
		res, err := cl.SendEvents(snap.ID, c)
		if err != nil {
			t.Fatalf("SendEvents: %v", err)
		}
		if res.Events != c.Len() {
			t.Fatalf("ingest ack %d events, sent %d", res.Events, c.Len())
		}
		sent += res.Events
	}

	mid, err := cl.Session(snap.ID)
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if mid.EventsIn != uint64(sent) || mid.FramesIn == 0 {
		t.Fatalf("mid-stream snapshot: %+v", mid)
	}

	fin, err := cl.CloseSession(snap.ID)
	if err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if fin.State != "closed" {
		t.Fatalf("final state %q", fin.State)
	}
	if fin.Invocations == 0 || fin.RawFramesDone == 0 {
		t.Fatalf("nothing executed: %+v", fin)
	}
	if fin.ThroughputFPS <= 0 || fin.Latency.Count == 0 || fin.Latency.P99US <= 0 {
		t.Fatalf("no latency/throughput: %+v", fin)
	}

	// Streaming into a closed session must fail.
	if _, err := cl.SendEvents(snap.ID, stream.Slice(0, 1000)); err == nil {
		t.Fatal("ingest into closed session succeeded")
	}
	// Closing again is idempotent and still returns the snapshot.
	again, err := cl.CloseSession(snap.ID)
	if err != nil || again.State != "closed" {
		t.Fatalf("re-close: %v, %+v", err, again)
	}
}

// TestBackpressureDrops floods a tiny ingest queue without letting
// workers drain it and checks the shed counters.
func TestBackpressureDrops(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	sess, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 1, QueueCap: 4})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	// Direct ingest never schedules a worker, so the queue cannot
	// drain: every frame past the cap must be shed.
	const dur = 200_000
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 7, dur)
	res, err := sess.ingest(StreamChunk(stream))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if res.Frames <= 4 {
		t.Fatalf("test needs more frames than the queue cap, got %d", res.Frames)
	}
	if res.Dropped != res.Frames-4 {
		t.Fatalf("dropped %d of %d frames, want %d", res.Dropped, res.Frames, res.Frames-4)
	}
	if res.QueueLen != 4 {
		t.Fatalf("queue len %d, want 4", res.QueueLen)
	}
	snap := sess.snapshot()
	if snap.FramesDropped != uint64(res.Dropped) {
		t.Fatalf("snapshot drops %d, want %d", snap.FramesDropped, res.Dropped)
	}
	// Drop-oldest: the queue holds the newest frames.
	kept := sess.queue.drain(0)
	last := kept[len(kept)-1]
	if last.T1 < dur/2 {
		t.Fatalf("drop-oldest kept stale frames (last T1=%d)", last.T1)
	}
}

// TestConcurrentSessionsSharedPlatform streams four sessions in
// parallel onto one platform and checks they all make progress and
// collectively spread over more than one device (RR placement).
func TestConcurrentSessionsSharedPlatform(t *testing.T) {
	srv, cl, stop := newTestServer(t, Config{Workers: 4})
	defer stop()

	nets := []string{nn.DOTIE, nn.HALSIE, nn.DOTIE, nn.HidalgoDepth}
	const dur = 150_000
	ids := make([]string, len(nets))
	for i, name := range nets {
		snap, err := cl.CreateSession(SessionConfig{Network: name, Level: 2})
		if err != nil {
			t.Fatalf("CreateSession %s: %v", name, err)
		}
		ids[i] = snap.ID
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(nets))
	for i, name := range nets {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			stream := genStream(t, nn.MustByName(name).Input.Preset, int64(20+i), dur)
			for _, c := range chunks(stream, dur, 25_000) {
				if _, err := cl.SendEvents(ids[i], c); err != nil {
					errs <- err
					return
				}
			}
		}(i, name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("streaming: %v", err)
	}

	devices := map[string]bool{}
	for _, id := range ids {
		fin, err := cl.CloseSession(id)
		if err != nil {
			t.Fatalf("CloseSession %s: %v", id, err)
		}
		if fin.RawFramesDone == 0 || fin.ThroughputFPS <= 0 {
			t.Fatalf("session %s made no progress: %+v", id, fin)
		}
		for _, d := range fin.Devices {
			devices[d] = true
		}
	}
	if len(devices) < 2 {
		t.Fatalf("four RR sessions used %d device(s), want >= 2", len(devices))
	}

	// The shared engine saw cross-session work (the engine is
	// internally synchronized now — no server-side lock to take), and
	// every invocation went through the execution scheduler.
	busy := 0.0
	for _, d := range srv.cfg.Platform.Devices {
		busy += srv.engine.BusyTime(d)
	}
	if busy <= 0 {
		t.Fatal("shared engine recorded no busy time")
	}
	if st := srv.SchedStats(); st.Submitted == 0 || st.Dispatches == 0 {
		t.Fatalf("execution scheduler saw no work: %+v", st)
	}
}

// TestJSONIngestAndWireErrors covers the JSON wire format and the
// ingest error paths.
func TestJSONIngestAndWireErrors(t *testing.T) {
	_, cl, stop := newTestServer(t, Config{Workers: 1})
	defer stop()

	snap, err := cl.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 3})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	const dur = 60_000
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 9, dur)
	res, err := cl.SendEventsJSON(snap.ID, stream.Slice(0, 30_000))
	if err != nil {
		t.Fatalf("SendEventsJSON: %v", err)
	}
	if res.Events != stream.Slice(0, 30_000).Len() {
		t.Fatalf("JSON ingest ack %d events", res.Events)
	}

	// Out-of-order chunk (before the watermark) is rejected.
	if _, err := cl.SendEventsJSON(snap.ID, stream.Slice(0, 10_000)); err == nil {
		t.Fatal("out-of-order chunk accepted")
	}

	// Unknown session.
	if _, err := cl.SendEvents("nope", stream.Slice(30_000, 40_000)); err == nil {
		t.Fatal("ingest into unknown session succeeded")
	}

	// Garbage binary body.
	resp, err := http.Post(cl.base+"/v1/sessions/"+snap.ID+"/events",
		"application/octet-stream", bytes.NewReader([]byte("not EVAR at all")))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: HTTP %d, want 400", resp.StatusCode)
	}

	// Unknown network at create.
	if _, err := cl.CreateSession(SessionConfig{Network: "NoSuchNet"}); err == nil {
		t.Fatal("unknown network accepted")
	}
}

// TestHealthAndMetrics checks the operational endpoints.
func TestHealthAndMetrics(t *testing.T) {
	_, cl, stop := newTestServer(t, Config{Workers: 1})
	defer stop()

	h, err := cl.Health()
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" || h.Workers != 1 {
		t.Fatalf("health: %+v", h)
	}

	snap, err := cl.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 2})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 13, 60_000)
	if _, err := cl.SendEvents(snap.ID, stream); err != nil {
		t.Fatalf("SendEvents: %v", err)
	}
	if _, err := cl.CloseSession(snap.ID); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}

	text, err := cl.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		"evserve_sessions_total 1",
		"evserve_session_events_total",
		"evserve_session_frames_dropped_total",
		"evserve_device_busy_us",
		`session="` + snap.ID + `"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMapperNMPPolicy runs the server under the evolutionary placement
// policy and its reduced session-create search.
func TestMapperNMPPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("NMP search in -short mode")
	}
	cfg := Config{Workers: 1, Mapper: MapperNMP}
	_, cl, stop := newTestServer(t, cfg)
	defer stop()

	a, err := cl.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 3})
	if err != nil {
		t.Fatalf("CreateSession under NMP: %v", err)
	}
	b, err := cl.CreateSession(SessionConfig{Network: nn.HALSIE, Level: 3})
	if err != nil {
		t.Fatalf("second CreateSession under NMP: %v", err)
	}
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 17, 50_000)
	if _, err := cl.SendEvents(a.ID, stream); err != nil {
		t.Fatalf("SendEvents: %v", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		if _, err := cl.CloseSession(id); err != nil {
			t.Fatalf("CloseSession %s: %v", id, err)
		}
	}
}

// TestHTTPIngestPooledChunk (run it under -race): IngestHandler reads
// EVAR bodies into buffers borrowed from a pool — one above
// maxPooledBody is dropped instead of pooled — and converts their
// records out of the body, and the client encodes
// into pooled buffers, so requests in flight at once, and requests
// after a rejected one, must never see each other's events. Four
// sessions of different geometry and chunk size are fed 40 chunks each
// from four goroutines over HTTP — two of each session's chunks above
// maxPooledBody, and with chunks the server answers 400 mixed in: an
// event outside the geometry and a 65 s gap — against a second server
// fed the accepted chunks serially in-process.
// Per session the counters, every ingest result and the queued frames
// must agree entry for entry.
func TestHTTPIngestPooledChunk(t *testing.T) {
	const (
		perSession = 40
		chunkUS    = 2_500
	)
	type feed struct {
		net    string
		w, h   int
		chunks []*events.Stream
	}
	feeds := []*feed{
		{net: nn.DOTIE, w: 8, h: 8},
		{net: nn.SpikeFlowNet, w: 64, h: 48},
		{net: nn.HALSIE, w: 173, h: 130},
		{net: nn.HidalgoDepth, w: 346, h: 260},
	}
	mk := func(r *rand.Rand, w, h, n int, t0, span int64) *events.Stream {
		s := events.NewStream(w, h)
		for j := 0; j < n; j++ {
			pol := events.On
			if r.Intn(2) == 0 {
				pol = events.Off
			}
			s.Append(events.Event{X: uint16(r.Intn(w)), Y: uint16(r.Intn(h)), TS: t0 + int64(j)*span/int64(n), Pol: pol})
		}
		return s
	}
	for i, f := range feeds {
		r := rand.New(rand.NewSource(int64(19 + i)))
		for c := int64(0); c < perSession; c++ {
			n := 20 + r.Intn(1500*(i+1))
			if c%20 == 7 {
				n = maxPooledBody/13 + 500 // a body the pool does not keep
			}
			f.chunks = append(f.chunks, mk(r, f.w, f.h, n, c*chunkUS, chunkUS))
		}
	}

	cfg := Config{ManualDrain: true, QueueCap: 1 << 14}
	srv, cl, stop := newTestServer(t, cfg)
	defer stop()
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ids := make([]string, len(feeds))
	for i, f := range feeds {
		snap, err := cl.CreateSession(SessionConfig{Network: f.net, Level: 2})
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		sess, err := ref.CreateSession(SessionConfig{Network: f.net, Level: 2})
		if err != nil || sess.ID != snap.ID {
			t.Fatalf("reference CreateSession: %v (id %q vs %q)", err, sess.ID, snap.ID)
		}
		ids[i] = snap.ID
	}

	got := make([][]*IngestResult, len(feeds))
	var wg sync.WaitGroup
	for i, f := range feeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i)))
			rejected := func(what, wantMsg string, bad *events.Stream) {
				if _, err := cl.SendEvents(ids[i], bad); err == nil ||
					!strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), wantMsg) {
					t.Errorf("session %s: %s: err = %v, want HTTP 400 with %q", ids[i], what, err, wantMsg)
				}
			}
			for c, chunk := range f.chunks {
				t0 := int64(c) * chunkUS
				switch c % 10 {
				case 3:
					bad := mk(r, f.w, f.h, 900, t0, chunkUS)
					bad.Events[450].X = uint16(f.w)
					rejected("event outside the geometry", events.ErrGeometry.Error(), bad)
				case 6:
					if nn.MustByName(f.net).Input.Framing == nn.FrameByCount {
						break // count framing has no window to overrun
					}
					gap := mk(r, f.w, f.h, 2, t0, chunkUS)
					gap.Events[1].TS = t0 + 1e12
					rejected("a gap past the framing bound", ErrChunkTooLarge.Error(), gap)
				}
				res, err := cl.SendEvents(ids[i], chunk)
				if err != nil {
					t.Errorf("session %s chunk %d: %v", ids[i], c, err)
					return
				}
				got[i] = append(got[i], res)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i, f := range feeds {
		for c, chunk := range f.chunks {
			want, err := ref.Ingest(ids[i], chunk)
			if err != nil {
				t.Fatalf("reference ingest, session %s chunk %d: %v", ids[i], c, err)
			}
			if g := got[i][c]; g.Events != want.Events || g.Frames != want.Frames || g.QueueLen != want.QueueLen || g.Dropped != 0 {
				t.Fatalf("session %s chunk %d over HTTP: %+v, in-process: %+v", ids[i], c, *g, want)
			}
		}
		hs, _ := srv.Session(ids[i])
		rs, _ := ref.Session(ids[i])
		hsnap, rsnap := hs.snapshot(), rs.snapshot()
		if hsnap.EventsIn != rsnap.EventsIn || hsnap.FramesIn != rsnap.FramesIn || hsnap.FramesIn == 0 {
			t.Fatalf("session %s: %d events / %d frames over HTTP, %d / %d in-process",
				ids[i], hsnap.EventsIn, hsnap.FramesIn, rsnap.EventsIn, rsnap.FramesIn)
		}
		hf, rf := hs.queue.drain(0), rs.queue.drain(0)
		if len(hf) != len(rf) || uint64(len(hf)) != hsnap.FramesIn {
			t.Fatalf("session %s: %d frames queued over HTTP, %d in-process, %d counted", ids[i], len(hf), len(rf), hsnap.FramesIn)
		}
		for k := range rf {
			if !sameFrame(hf[k], rf[k]) {
				t.Fatalf("session %s frame %d over HTTP differs from in-process ingest", ids[i], k)
			}
		}
	}
}

// TestManualDrainManySessionsNoDeadlock: under ManualDrain nothing pops
// the run queue between two Pump calls, so it must hold every session
// with pending work — more than any fixed bound — without blocking
// Ingest (a bounded queue hangs this test until the suite timeout), and
// the one Pump that follows drains them in the order they were
// scheduled. A session keeps one invocation in flight and its
// completion re-schedules it, so the Pump serves every session's first
// frame in creation order, then every second one, once per frame of the
// window. Serialized dispatch (BatchMax 1) makes that order observable
// as the order in which sessions see their results.
func TestManualDrainManySessionsNoDeadlock(t *testing.T) {
	var order []string
	cfg := Config{ManualDrain: true, BatchMax: 1, Journal: true}
	cfg.OnResult = func(id string, _ ResultEvent, _ uint64) {
		if len(order) == 0 || order[len(order)-1] != id {
			order = append(order, id)
		}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	// Two events one DOTIE window apart: each chunk closes a window.
	chunk := events.NewStream(32, 32)
	chunk.Append(events.Event{X: 1, Y: 2, TS: 100, Pol: events.On})
	chunk.Append(events.Event{X: 3, Y: 4, TS: 6_000, Pol: events.Off})
	ids := make([]string, 1100)
	for i := range ids {
		sess, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 1})
		if err != nil {
			t.Fatalf("CreateSession %d: %v", i, err)
		}
		ids[i] = sess.ID
		if res, err := srv.Ingest(sess.ID, chunk); err != nil || res.Frames == 0 {
			t.Fatalf("Ingest %s: %d frames, err %v", sess.ID, res.Frames, err)
		}
	}
	srv.Pump()
	in := nn.MustByName(nn.DOTIE).Input
	var want []string
	for range (in.NumBins + in.GroupK - 1) / in.GroupK {
		want = append(want, ids...)
	}
	if !slices.Equal(order, want) {
		t.Fatalf("one Pump served %d results, want %d: all %d sessions in creation order once per frame of the window (first %v...)",
			len(order), len(want), len(ids), order[:min(len(order), 5)])
	}
}

// TestDrainHoldsNoUncountedFrames: whenever the session lock is free,
// every frame a session took in is queued, in its stepper, or counted
// done or dropped. A drain pass never holds frames it took off the
// ingest queue outside that lock, so CloseSession's final snapshot —
// read under it while a wall-clock worker may be mid-pass — cannot
// miss any. The test holds the lock while a drain pass starts, then
// reads the books.
func TestDrainHoldsNoUncountedFrames(t *testing.T) {
	srv, err := New(Config{ManualDrain: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	sess, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 1}) // FIFO stepper
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	chunk := events.NewStream(32, 32)
	for i := int64(0); i < 40; i++ {
		chunk.Append(events.Event{X: uint16(i % 32), Y: uint16(i % 17), TS: i * 500, Pol: events.On})
	}
	if res, err := srv.Ingest(sess.ID, chunk); err != nil || res.Frames == 0 {
		t.Fatalf("Ingest: %+v, %v", res, err)
	}
	balanced := func(snap SessionSnapshot) bool {
		where := uint64(snap.QueueLen+snap.AggPending) + snap.RawFramesDone + snap.FramesDropped + snap.FramesDroppedDSFA
		return snap.FramesIn == where
	}

	sess.mu.Lock()
	done := make(chan struct{})
	go func() {
		srv.Pump()
		close(done)
	}()
	// Give the pass time to empty the queue, which it can only do
	// without the session lock if it takes frames outside it.
	for deadline := time.Now().Add(200 * time.Millisecond); sess.queue.len() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	mid := sess.snapshotLocked()
	sess.mu.Unlock()
	<-done
	if !balanced(mid) {
		t.Fatalf("session lock held mid-drain: %d frames in, %d queued, %d in the stepper, %d done, %d dropped",
			mid.FramesIn, mid.QueueLen, mid.AggPending, mid.RawFramesDone, mid.FramesDropped+mid.FramesDroppedDSFA)
	}
	fin, err := srv.CloseSession(sess.ID)
	if err != nil || !balanced(*fin) || fin.RawFramesDone == 0 {
		t.Fatalf("CloseSession: %+v, %v", fin, err)
	}
}
