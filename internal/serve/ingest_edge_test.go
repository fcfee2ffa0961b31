package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"testing"

	"evedge/internal/events"
	"evedge/internal/nn"
)

// Ingest near the ends of int64. Anchoring reaches one window below a
// chunk's first timestamp and framing one window (count framing: one
// microsecond) above its last, so a chunk that close to either end is
// refused before it changes anything, and a stream further in frames
// like any other — whichever entry point the chunk comes through.

// edgeChunk returns a 64x64 chunk with one event at each timestamp.
func edgeChunk(ts ...int64) *events.Stream {
	s := events.NewStream(64, 64)
	for i, t := range ts {
		s.Append(events.Event{X: uint16(i % 64), Y: uint16(i / 64 % 64), TS: t, Pol: events.On})
	}
	return s
}

// edgeSession returns a ManualDrain server holding one fresh session of
// the named network.
func edgeSession(t *testing.T, network string) (*Server, *Session) {
	t.Helper()
	srv, err := New(Config{ManualDrain: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	sess, err := srv.CreateSession(SessionConfig{Network: network, Level: 2})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	return srv, sess
}

// convState renders everything a refused chunk must leave as it was:
// the converter's geometry, epoch and watermark, and its framer's open
// run or window: where it starts and the events kept of it.
func convState(c *ingestConverter) string {
	s := fmt.Sprintf("geometry=%dx%d start=%d watermark=%d", c.w, c.h, c.startTS, c.watermark)
	if c.fr != nil {
		s += fmt.Sprintf(" open at %d: %v", c.fr.Start(), c.fr.Tail())
	}
	return s
}

// tail is the events the converter's framer keeps, none before the
// first events.
func tail(c *ingestConverter) []events.Event {
	if c.fr == nil {
		return nil
	}
	return c.fr.Tail()
}

// refuseUnchanged requires both entry points to answer bad with
// ErrChunkTooLarge (HTTP 400) and to leave the session's snapshot and
// converter alone.
func refuseUnchanged(t *testing.T, srv *Server, sess *Session, bad *events.Stream) {
	t.Helper()
	snap, conv := sess.snapshot(), convState(sess.conv)
	for _, ep := range entryPoints {
		_, err := srv.IngestChunk(sess.ID, ep.chunk(t, bad))
		if !errors.Is(err, ErrChunkTooLarge) || ErrorStatus(err) != http.StatusBadRequest {
			t.Fatalf("%s chunk %dus..%dus: err = %v (HTTP %d), want ErrChunkTooLarge (HTTP 400)",
				ep.name, bad.TStart(), bad.TEnd(), err, ErrorStatus(err))
		}
		if after := sess.snapshot(); !reflect.DeepEqual(after, snap) {
			t.Fatalf("refused %s chunk moved the snapshot:\n before %+v\n after  %+v", ep.name, snap, after)
		}
		if after := convState(sess.conv); after != conv {
			t.Fatalf("refused %s chunk moved the converter:\n before %s\n after  %s", ep.name, conv, after)
		}
	}
}

// TestIngestTimeFramingAcross2To62: time framing over timestamps that
// cross 2^62 — a chunk straddling it, or a first chunk wholly above it
// that completes a window — frames every event it has a window for and
// keeps the rest buffered, without panicking.
func TestIngestTimeFramingAcross2To62(t *testing.T) {
	const edge = int64(1) << 62
	w := nn.MustByName(nn.DOTIE).Input.WindowUS // time framing, 5 ms windows
	for _, tc := range []struct {
		name   string
		chunks []*events.Stream
	}{
		{"straddling", []*events.Stream{
			edgeChunk(edge-3*w, edge-2*w),
			edgeChunk(edge-w+7, edge-1, edge, edge+w/2, edge+3*w+1),
		}},
		{"first chunk above", []*events.Stream{edgeChunk(edge+1, edge+w+1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, ep := range entryPoints {
				t.Run(ep.name, func(t *testing.T) {
					srv, sess := edgeSession(t, nn.DOTIE)
					ingested, frames := 0, 0
					for _, c := range tc.chunks {
						res, err := srv.IngestChunk(sess.ID, ep.chunk(t, c))
						if err != nil || res.Dropped != 0 {
							t.Fatalf("chunk %dus..%dus: %+v, %v", c.TStart(), c.TEnd(), res, err)
						}
						ingested += c.Len()
						frames += res.Frames
					}
					framed := 0
					for _, f := range sess.queue.drain(0) {
						framed += int(f.EventCount())
					}
					conv := sess.conv
					if frames == 0 || framed+len(tail(conv)) != ingested {
						t.Fatalf("%d frames hold %d events, %d buffered, %d ingested", frames, framed, len(tail(conv)), ingested)
					}
					for _, e := range tail(conv) {
						if e.TS < conv.fr.Start() {
							t.Fatalf("event at %dus still buffered behind the next window at %dus", e.TS, conv.fr.Start())
						}
					}
				})
			}
		})
	}
}

// TestIngestRefusesTimeFramingNearMaxInt64: a time-framed chunk within
// one window of MaxInt64 — as a first chunk or after the session is
// anchored — is refused with the session untouched; one window clear
// of the end frames normally.
func TestIngestRefusesTimeFramingNearMaxInt64(t *testing.T) {
	w := nn.MustByName(nn.DOTIE).Input.WindowUS
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			srv, sess := edgeSession(t, nn.DOTIE)
			refuseUnchanged(t, srv, sess, edgeChunk(math.MaxInt64-10))
			refuseUnchanged(t, srv, sess, edgeChunk(math.MaxInt64-2*w, math.MaxInt64-w+1))
			if res, err := srv.IngestChunk(sess.ID, ep.chunk(t, edgeChunk(math.MaxInt64-3*w, math.MaxInt64-w))); err != nil || res.Frames == 0 {
				t.Fatalf("chunk ending one window below MaxInt64: %+v, %v", res, err)
			}
			refuseUnchanged(t, srv, sess, edgeChunk(math.MaxInt64-w+1))
		})
	}
}

// TestIngestRefusesCountFramingAtInt64Ends: a count-framed session
// refuses a chunk holding MaxInt64 or MinInt64 (a frame ends one
// microsecond past its last event) with the session untouched, so its
// close still flushes the tail it did accept, up to MaxInt64-1.
func TestIngestRefusesCountFramingAtInt64Ends(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			srv, sess := edgeSession(t, nn.SpikeFlowNet) // FrameByCount
			refuseUnchanged(t, srv, sess, edgeChunk(math.MaxInt64-2000, math.MaxInt64-1000, math.MaxInt64))
			refuseUnchanged(t, srv, sess, edgeChunk(math.MinInt64, math.MinInt64+1000))
			if _, err := srv.IngestChunk(sess.ID, ep.chunk(t, edgeChunk(math.MaxInt64-2000, math.MaxInt64-1000, math.MaxInt64-1))); err != nil {
				t.Fatalf("chunk ending at MaxInt64-1: %v", err)
			}
			final, err := srv.CloseSession(sess.ID)
			if err != nil {
				t.Fatalf("CloseSession: %v", err)
			}
			if final.EventsIn != 3 || final.FramesIn == 0 || final.RawFramesDone != final.FramesIn {
				t.Fatalf("close lost the tail: %d events in, %d frames in, %d done", final.EventsIn, final.FramesIn, final.RawFramesDone)
			}
		})
	}
}

// TestIngestRefusesTimeFramingNearMinInt64: a time-framed first chunk
// within one window of MinInt64 is refused with the session untouched
// (anchoring would reach below MinInt64); one window clear of the end
// anchors at or below its first event and frames it.
func TestIngestRefusesTimeFramingNearMinInt64(t *testing.T) {
	w := nn.MustByName(nn.DOTIE).Input.WindowUS
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			srv, sess := edgeSession(t, nn.DOTIE)
			refuseUnchanged(t, srv, sess, edgeChunk(math.MinInt64+3, math.MinInt64+2*w))
			refuseUnchanged(t, srv, sess, edgeChunk(math.MinInt64+w-1, math.MinInt64+3*w))
			first := edgeChunk(math.MinInt64+w, math.MinInt64+3*w)
			res, err := srv.IngestChunk(sess.ID, ep.chunk(t, first))
			if err != nil || res.Frames == 0 {
				t.Fatalf("chunk starting one window above MinInt64: %+v, %v", res, err)
			}
			frames, framed := sess.queue.drain(0), 0
			for _, f := range frames {
				framed += int(f.EventCount())
			}
			if frames[0].T0 > first.TStart() || framed == 0 || framed+len(tail(sess.conv)) != first.Len() {
				t.Fatalf("first frame starts at %dus, first event at %dus; %d events framed, %d buffered, %d ingested",
					frames[0].T0, first.TStart(), framed, len(tail(sess.conv)), first.Len())
			}
		})
	}
}
