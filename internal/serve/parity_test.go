package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/pipeline"
	"evedge/internal/scene"
)

// parityNets are the networks the parity oracles run: every
// count-framed network of the zoo and DOTIE, time-framed.
var parityNets = []string{nn.SpikeFlowNet, nn.FusionFlowNet, nn.AdaptiveSpikeNet, nn.EVFlowNet, nn.DOTIE}

// period is one frame period of the network's input: the zoo's frame
// period under count framing, the window under time framing.
func period(in nn.InputSpec) int64 {
	if in.Framing == nn.FrameByCount {
		return in.FramePeriodUS
	}
	return in.WindowUS
}

// shortStreams caches each network's stream of shortDurUS at seed 7,
// half scale, across the targets and repeats that read it: generating
// it costs far more than serving it.
var shortStreams sync.Map // network name -> *events.Stream

const shortDurUS = 300_000

// shortStream returns name's cached short stream; callers only read it.
func shortStream(t testing.TB, name string) *events.Stream {
	if s, ok := shortStreams.Load(name); ok {
		return s.(*events.Stream)
	}
	seq, err := scene.NewSequence(nn.MustByName(name).Input.Preset, scene.Half, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := seq.Generate(shortDurUS)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := shortStreams.LoadOrStore(name, s)
	return got.(*events.Stream)
}

// servedRun feeds a fresh one-session ManualDrain server with
// BatchMax 1 the chunks, one per Ingest with a Pump after each, and
// returns the closed session's final snapshot.
func servedRun(t *testing.T, name string, level int, chunks []*events.Stream) *SessionSnapshot {
	t.Helper()
	srv, err := New(Config{ManualDrain: true, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sess, err := srv.CreateSession(SessionConfig{Network: name, Level: level})
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		if _, err := srv.Ingest(sess.ID, ch); err != nil {
			t.Fatal(err)
		}
		srv.Pump()
	}
	snap, err := srv.CloseSession(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// near reports whether two latencies agree to float rounding: the
// engine adds layer times onto its absolute clock, the paper run onto
// each invocation's start.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }

// paperEnded is the paper run of stream ended where a session ends it,
// at the last event + 1 µs: a session never learns where the stream
// ends, but once it closes no event at or past that instant can
// arrive, so it frames the trailing partial count run ending there, or
// the window ending there, and no later one.
func paperEnded(t *testing.T, net *nn.Network, level int, stream *events.Stream) *pipeline.Report {
	t.Helper()
	rep, err := pipeline.Run(pipeline.Config{Net: net, Level: pipeline.Level(level), DurUS: stream.TEnd() + 1, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// matchesPaper reports whether a served session's final snapshot is
// the paper run's: every frame served, the same invocations and merge
// ratio, and mean and p99 latency equal to float rounding.
func matchesPaper(served *SessionSnapshot, paper *pipeline.Report) bool {
	return int(served.FramesIn) == paper.RawFrames &&
		served.RawFramesDone+served.FramesDroppedDSFA == served.FramesIn &&
		served.Latency.Count == served.RawFramesDone &&
		int(served.FramesDroppedDSFA) == paper.DroppedFrames &&
		int(served.Invocations) == paper.Invocations &&
		served.MergeRatio == paper.MergeRatio &&
		near(served.Latency.MeanUS, paper.MeanLatencyUS) && near(served.Latency.P99US, paper.P99LatencyUS)
}

// TestServedSessionMatchesPaperRun is the parity oracle between the
// two callers of pipeline.Stepper: pipeline.Run (the paper run) and a
// served session fed the same stream, in chunks of one and of four
// frame periods (DOTIE, time-framed: windows), with a Pump after each
// Ingest. For every count-framed network and DOTIE, at levels 0, 1 and
// 2 and seeds 7 and 11, the session equals the paper run ended at the
// last event + 1 µs in frames, invocations, merge ratio, DSFA drops,
// and mean and p99 latency: a frame enters the step at its own T1
// whatever chunk carried it, one invocation is in flight at a time,
// and each starts no earlier than the clock that released it.
//
// Against the paper run ended at 1 s, a count-framed session frames
// exactly the paper run's RawFrames: both frame with the zoo's N, and
// the trailing partial run is closed at the last event either way.
// DOTIE serves 995 frames of 1 000: the paper run closes its last
// window [995 ms, 1 s) at durUS, but the stream's last event lies
// before 999 999 µs, so the session's close at the last event + 1 µs
// ends no window. The last row is a DOTIE stream whose last event lies
// at 99 999 µs, on a window's last microsecond: closed there, the
// session frames that window, all 100 frames of the paper run.
func TestServedSessionMatchesPaperRun(t *testing.T) {
	const durUS = 1_000_000
	for _, seed := range []int64{7, 11} {
		for _, name := range parityNets {
			net := nn.MustByName(name)
			in := net.Input
			stream := genStream(t, in.Preset, seed, durUS)
			for level := 0; level <= 2; level++ {
				paper := paperEnded(t, net, level, stream)
				full, err := pipeline.Run(pipeline.Config{Net: net, Level: pipeline.Level(level), DurUS: durUS, Stream: stream})
				if err != nil {
					t.Fatal(err)
				}
				lost := 0
				if in.Framing != nn.FrameByCount {
					lost = (in.NumBins + in.GroupK - 1) / in.GroupK
				}
				if paper.RawFrames != full.RawFrames-lost {
					t.Fatalf("%s seed %d level %d: the paper run frames %d ended at the last event, %d at 1 s; want %d less",
						name, seed, level, paper.RawFrames, full.RawFrames, lost)
				}
				checkParity(t, fmt.Sprintf("%s seed %d level %d", name, seed, level), net, level, stream, durUS, paper)
			}
		}
	}
	// The window-edge row: DOTIE at seed 7, cut to end at 99 999 µs.
	const edgeUS = 100_000
	net := nn.MustByName(nn.DOTIE)
	stream := genStream(t, net.Input.Preset, 7, edgeUS).Slice(0, edgeUS-1)
	last := stream.Events[stream.Len()-1]
	last.TS = edgeUS - 1
	stream.Append(last)
	for level := 0; level <= 2; level++ {
		paper := paperEnded(t, net, level, stream)
		if paper.RawFrames != 100 {
			t.Fatalf("DOTIE to 99 999 µs level %d: the paper run frames %d, want 100", level, paper.RawFrames)
		}
		checkParity(t, fmt.Sprintf("DOTIE to 99 999 µs level %d", level), net, level, stream, edgeUS, paper)
	}
}

// checkParity serves stream, durUS long, in chunks of one and of four
// frame periods, and requires each session to match the paper run.
func checkParity(t *testing.T, ctx string, net *nn.Network, level int, stream *events.Stream, durUS int64, paper *pipeline.Report) {
	t.Helper()
	for _, periods := range []int64{1, 4} {
		served := servedRun(t, net.Name, level, chunks(stream, durUS, periods*period(net.Input)))
		t.Logf("%s, %d-period chunks: frames %d / %d; invocations %d / %d; merge ratio %.4f / %.4f; mean latency %.3f / %.3f µs; p99 %.3f / %.3f µs (served / paper)",
			ctx, periods, served.FramesIn, paper.RawFrames, served.Invocations, paper.Invocations,
			served.MergeRatio, paper.MergeRatio, served.Latency.MeanUS, paper.MeanLatencyUS, served.Latency.P99US, paper.P99LatencyUS)
		if !matchesPaper(served, paper) {
			t.Errorf("%s, %d-period chunks: served %+v, paper run %+v", ctx, periods, *served, *paper)
		}
	}
}

// sameSnapshot reports whether two final snapshots of one stream agree
// in frames in, invocations, merge ratio, latency mean and p99 (to
// float rounding) and drops.
func sameSnapshot(a, b *SessionSnapshot) bool {
	return a.FramesIn == b.FramesIn && a.Invocations == b.Invocations && a.MergeRatio == b.MergeRatio &&
		near(a.Latency.MeanUS, b.Latency.MeanUS) && near(a.Latency.P99US, b.Latency.P99US) &&
		a.FramesDropped == b.FramesDropped && a.FramesDroppedDSFA == b.FramesDroppedDSFA
}

// oneChunkRefs caches each network and level's final snapshot of its
// short stream fed one frame period per Ingest.
var oneChunkRefs sync.Map // [2]int{net index, level} -> *SessionSnapshot

// FuzzChunking is the chunking oracle: virtual time must not see how
// the client cut its stream. It re-cuts one network's short stream at
// the boundaries the fuzzer picks — each byte of cuts is one chunk of
// 1/170 to 1.5 frame periods' worth of events, the bytes repeating
// until the stream is cut; a 0 byte is the rest of the stream — and
// serves it at level 0, 1 or 2 on a one-session ManualDrain server, a
// Pump after each Ingest. Whatever frames a chunk brings beyond the
// session's QueueCap are shed at ingest, exactly that overflow: the
// ingest queue is the host-side bound, outside the rule. When no chunk
// overflows, the final snapshot must be the one-period cut's.
func FuzzChunking(f *testing.F) {
	f.Add(uint8(0), uint8(2), []byte{128})
	f.Add(uint8(0), uint8(2), []byte{3, 250, 17, 90})
	f.Add(uint8(1), uint8(2), []byte{60, 200, 1})
	f.Add(uint8(2), uint8(2), []byte{255, 7})
	f.Add(uint8(3), uint8(1), []byte{40})
	f.Add(uint8(4), uint8(2), []byte{170, 33, 99})
	f.Add(uint8(4), uint8(0), []byte{250, 1})
	// DOTIE's whole short stream in one chunk: 295 frames (its last
	// window never closes) against a 64-frame queue, so 231 are shed at
	// ingest.
	f.Add(uint8(4), uint8(2), []byte{0})
	f.Fuzz(func(t *testing.T, netIdx, level uint8, cuts []byte) {
		if len(cuts) == 0 {
			return
		}
		ni, lv := int(netIdx)%len(parityNets), int(level)%3
		name := parityNets[ni]
		in := nn.MustByName(name).Input
		stream := shortStream(t, name)
		ref, ok := oneChunkRefs.Load([2]int{ni, lv})
		if !ok {
			ref, _ = oneChunkRefs.LoadOrStore([2]int{ni, lv}, servedRun(t, name, lv, chunks(stream, shortDurUS, period(in))))
		}
		perPeriod := stream.Len() * int(period(in)) / shortDurUS

		srv, err := New(Config{ManualDrain: true, BatchMax: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sess, err := srv.CreateSession(SessionConfig{Network: name, Level: lv})
		if err != nil {
			t.Fatal(err)
		}
		var overflow uint64
		for i, at := 0, 0; at < stream.Len(); i++ {
			n := stream.Len() - at
			if b := int(cuts[i%len(cuts)]); b > 0 {
				n = min(n, max(1, b*perPeriod*3/2/255))
			}
			res, err := srv.Ingest(sess.ID, evStream(stream.Width, stream.Height, stream.Events[at:at+n]...))
			if err != nil {
				t.Fatal(err)
			}
			at += n
			over := max(res.Frames-sess.queue.cap, 0)
			if res.Dropped != over {
				t.Fatalf("a chunk framing %d frames into a %d-frame queue shed %d, want %d", res.Frames, sess.queue.cap, res.Dropped, over)
			}
			overflow += uint64(over)
			srv.Pump()
		}
		got, err := srv.CloseSession(sess.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.(*SessionSnapshot)
		if got.FramesIn != want.FramesIn || got.FramesDropped != overflow ||
			got.RawFramesDone+got.FramesDropped+got.FramesDroppedDSFA != got.FramesIn {
			t.Fatalf("%s level %d: %d frames in (one-period cut: %d), %d done, %d shed at ingest (overflow %d), %d by DSFA",
				name, lv, got.FramesIn, want.FramesIn, got.RawFramesDone, got.FramesDropped, overflow, got.FramesDroppedDSFA)
		}
		if overflow > 0 {
			t.Logf("%s level %d: %d of %d frames shed at ingest", name, lv, overflow, got.FramesIn)
			return
		}
		if !sameSnapshot(got, want) {
			t.Fatalf("%s level %d: re-cut stream served %+v, one-period cut %+v", name, lv, *got, *want)
		}
	})
}

// TestServedWallClockMatchesPaperRun runs the parity oracle on a
// server with worker goroutines, where a session's chunks, its
// execute passes and its completions interleave as the host schedules
// them: one level-2 session per network, on a fresh server each, fed
// its short stream one frame period per Ingest with no Pump. The
// session's QueueCap is the stream's frame count, so no host lag can
// shed at ingest; its final snapshot must equal the paper run ended at
// the last event + 1 µs. make scenarios runs it under the race
// detector, repeated, at GOMAXPROCS 2 and 8.
func TestServedWallClockMatchesPaperRun(t *testing.T) {
	for _, name := range parityNets {
		net := nn.MustByName(name)
		stream := shortStream(t, name)
		paper := paperEnded(t, net, 2, stream)
		srv, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := srv.CreateSession(SessionConfig{Network: name, Level: 2, QueueCap: paper.RawFrames})
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range chunks(stream, shortDurUS, period(net.Input)) {
			if _, err := srv.Ingest(sess.ID, ch); err != nil {
				t.Fatal(err)
			}
		}
		served, err := srv.CloseSession(sess.ID)
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !matchesPaper(served, paper) {
			t.Errorf("%s: served %+v, paper run %+v", name, *served, *paper)
		}
	}
}
