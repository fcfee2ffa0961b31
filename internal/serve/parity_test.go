package serve

import (
	"math"
	"testing"

	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/pipeline"
)

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

// runs cuts a stream into chunks of n events: for count framing, each
// chunk's last event closes one frame, so a session gets every frame
// the moment it forms, as if fed one event per Ingest.
func runs(s *events.Stream, n int) []*events.Stream {
	var out []*events.Stream
	for i := 0; i < s.Len(); i += n {
		out = append(out, evStream(s.Width, s.Height, s.Events[i:min(i+n, s.Len())]...))
	}
	return out
}

// near reports whether two latencies agree to float rounding: the
// engine adds layer times onto its absolute clock, the paper run onto
// each invocation's start.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }

// TestServedSessionMatchesPaperRun is the parity oracle between the
// two spellings of E2SF -> DSFA -> engine: pipeline.Run (the paper run)
// and a served session fed the same stream, one frame period per
// Ingest (DOTIE, time-framed: one window), with a Pump after each. For
// every count-framed network and DOTIE, at levels 1 and 2 and seeds 7
// and 11:
//
//   - Frames. A count-framed session frames exactly the paper run's
//     RawFrames: both frame with the zoo's N. DOTIE serves 995 frames
//     against 1 000: one 5-frame window. The paper run closes its last
//     window [995 ms, 1 s) at durUS, but a session closes a window only
//     when an event at or past its end arrives, and the stream has no
//     event at or past 1 s.
//   - Level 1 latencies are equal to the paper run's (to float
//     rounding) once it ends where the session does, at the stream's
//     last event + 1 µs. That is the
//     one mechanism between them: where the stream ends. A session
//     never learns it, so it closes a trailing partial run at its last
//     event + 1 µs where the paper run closes it at durUS (which moves
//     that frame's latency when the hardware is busy), and it never
//     closes DOTIE's last window.
//   - Level 2 latencies differ by one mechanism: arrival granularity.
//     The paper run hands DSFA each frame at its own T1 as the hardware
//     frees; a session hands it a chunk's frames together, when the
//     chunk arrives, and asks for a dispatch at its completion clock.
//     DOTIE's five frames of a window arrive together and batch into
//     one invocation (the paper run serves each alone), so its mean
//     latency is ≈ 2.1 ms served against ≈ 77 µs. Fed one run of N
//     events per Ingest — each frame the moment it forms, as one event
//     per Ingest would — a count-framed session forms the paper run's
//     invocations, the same count at the same merge ratio; its
//     latencies can still differ where the completion clock runs ahead
//     of the feed (SpikeFlowNet at seed 7).
func TestServedSessionMatchesPaperRun(t *testing.T) {
	const durUS = 1_000_000
	for _, seed := range []int64{7, 11} {
		for _, name := range []string{nn.SpikeFlowNet, nn.FusionFlowNet, nn.AdaptiveSpikeNet, nn.EVFlowNet, nn.DOTIE} {
			net := nn.MustByName(name)
			in := net.Input
			stream := genStream(t, in.Preset, seed, durUS)
			byCount := in.Framing == nn.FrameByCount
			period := in.FramePeriodUS
			if !byCount {
				period = in.WindowUS
			}
			for _, level := range []int{1, 2} {
				run := func(dur int64) *pipeline.Report {
					rep, err := pipeline.Run(pipeline.Config{Net: net, Level: pipeline.Level(level), DurUS: dur, Stream: stream})
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				paper, ended := run(durUS), run(stream.TEnd()+1)
				served := servedRun(t, name, level, chunks(stream, durUS, period))
				t.Logf("%s seed %d level %d: frames %d served / %d paper; invocations %d / %d; mean latency %.3f / %.3f µs (paper run ended at the last event: %.3f)",
					name, seed, level, served.FramesIn, paper.RawFrames, served.Invocations, paper.Invocations,
					served.Latency.MeanUS, paper.MeanLatencyUS, ended.MeanLatencyUS)

				lost := 0
				if !byCount {
					lost = (in.NumBins + in.GroupK - 1) / in.GroupK // one window
				}
				if int(served.FramesIn) != paper.RawFrames-lost || int(served.FramesIn) != ended.RawFrames {
					t.Fatalf("%s seed %d level %d: %d frames served, want the paper run's %d less %d (%d when it ends at the last event)",
						name, seed, level, served.FramesIn, paper.RawFrames, lost, ended.RawFrames)
				}
				if served.RawFramesDone != served.FramesIn || served.Latency.Count != served.FramesIn {
					t.Fatalf("%s seed %d level %d: %d frames in, %d served, %d latencies",
						name, seed, level, served.FramesIn, served.RawFramesDone, served.Latency.Count)
				}
				if level == 1 {
					if int(served.Invocations) != ended.Invocations ||
						!near(served.Latency.MeanUS, ended.MeanLatencyUS) || !near(served.Latency.P99US, ended.P99LatencyUS) {
						t.Fatalf("%s seed %d level 1: served %d invocations, mean %v p99 %v µs; paper run to the last event %d, %v, %v",
							name, seed, served.Invocations, served.Latency.MeanUS, served.Latency.P99US,
							ended.Invocations, ended.MeanLatencyUS, ended.P99LatencyUS)
					}
					continue
				}
				if !byCount {
					if served.MergeRatio <= 1 || paper.MergeRatio != 1 {
						t.Fatalf("%s seed %d level 2: merge ratio %v served, %v paper; want a window batched against frames alone",
							name, seed, served.MergeRatio, paper.MergeRatio)
					}
					continue
				}
				perRun := servedRun(t, name, level, runs(stream, in.EventsPerFrame(stream.Width, stream.Height)))
				if int(perRun.Invocations) != ended.Invocations || perRun.MergeRatio != ended.MergeRatio {
					t.Fatalf("%s seed %d level 2, one run per Ingest: %d invocations at merge ratio %v; paper run %d at %v",
						name, seed, perRun.Invocations, perRun.MergeRatio, ended.Invocations, ended.MergeRatio)
				}
			}
		}
	}
}
