package e2sf

import (
	"testing"

	"evedge/internal/events"
)

// Edge-case coverage for grouping and count framing: empty streams,
// group sizes exceeding the bin count, and zero-event (or zero-count)
// chunks.

func TestGroupBinsEmptyInput(t *testing.T) {
	// No events: every group is still emitted, empty, for any group size.
	s := events.NewStream(4, 4)
	for _, k := range []int{1, 3} {
		out, st, err := mustFused(t, 4, 4, 3).ConvertGroupedAppend(nil, s, 0, 30, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := (3 + k - 1) / k; len(out) != want || st.Frames != want || framedEvents(out) != 0 {
			t.Fatalf("k=%d: %d frames, stats %+v, want %d empty", k, len(out), st, want)
		}
	}
}

func TestGroupBinsKLargerThanFrames(t *testing.T) {
	// groupK larger than NumBins: one partial group spanning the whole
	// window, holding the sum of both bins.
	s := mkStream(4, 4,
		events.Event{TS: 1, X: 1, Y: 1, Pol: events.On},
		events.Event{TS: 2, X: 1, Y: 1, Pol: events.On},
		events.Event{TS: 15, X: 1, Y: 1, Pol: events.On},
		events.Event{TS: 16, X: 1, Y: 1, Pol: events.Off},
	)
	got, _, err := mustFused(t, 4, 4, 2).ConvertGroupedAppend(nil, s, 0, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].T0 != 0 || got[0].T1 != 20 {
		t.Fatalf("k>nB: %d frames, bounds [%d,%d)", len(got), got[0].T0, got[0].T1)
	}
	if p, n := got[0].Get(1, 1); p != 3 || n != 1 {
		t.Fatalf("partial group merge = (%v,%v), want (3,1)", p, n)
	}
}

func TestGroupBinsInvalidK(t *testing.T) {
	c := mustFused(t, 4, 4, 2)
	for _, k := range []int{0, -1} {
		if _, _, err := c.ConvertGroupedAppend(nil, events.NewStream(4, 4), 0, 20, k); err == nil {
			t.Fatalf("k=%d accepted", k)
		}
	}
}

func TestConvertByCountEmptyStream(t *testing.T) {
	s := events.NewStream(8, 8)
	out, st, err := mustFused(t, 8, 8, 2).ConvertByCountAppend(nil, s, 0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || st.Frames != 0 {
		t.Fatalf("empty stream: frames=%d stats=%+v", len(out), st)
	}
}

func TestConvertEmptyStreamEmitsEmptyBins(t *testing.T) {
	// Time framing with no events still emits one (empty) frame per bin
	// (per group when grouping) to preserve temporal alignment.
	fused := mustFused(t, 8, 8, 4)
	s := events.NewStream(8, 8)
	frames, _, err := fused.ConvertGroupedAppend(nil, s, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("empty stream emitted %d frames, want 4", len(frames))
	}
	got, _, err := fused.ConvertGroupedAppend(nil, s, 0, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("empty stream emitted %d groups, want 2", len(got))
	}
	for i, f := range got {
		if f.NNZ() != 0 {
			t.Fatalf("group %d not empty", i)
		}
	}
	if got[0].T0 != 0 || got[0].T1 != 50 || got[1].T0 != 50 || got[1].T1 != 100 {
		t.Fatalf("empty group bounds: [%d,%d) [%d,%d)", got[0].T0, got[0].T1, got[1].T0, got[1].T1)
	}
}

func TestConvertByCountZeroCountChunk(t *testing.T) {
	// A window whose slice contains no events (all events fall outside
	// [tStart, tEnd)) must emit nothing and not disturb converter state.
	fused := mustFused(t, 8, 8, 2)
	s := mkStream(8, 8,
		events.Event{TS: 500, X: 1, Y: 1, Pol: events.On},
	)
	fout, _, err := fused.ConvertByCountAppend(nil, s, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fout) != 0 {
		t.Fatalf("zero-count chunk: frames=%d", len(fout))
	}
	// The event outside the first window is still convertible after.
	fout, _, err = fused.ConvertByCountAppend(nil, s, 400, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fout) != 1 || framedEvents(fout) != 1 {
		t.Fatalf("follow-up window: frames=%d events=%d", len(fout), framedEvents(fout))
	}
	if fout[0].T0 != 400 || fout[0].T1 != 501 {
		t.Fatalf("follow-up frame bounds [%d,%d), want [400,501)", fout[0].T0, fout[0].T1)
	}
}

func TestConvertByCountTrailingPartial(t *testing.T) {
	// countPerFrame larger than the event count: one trailing partial
	// frame ending at tEnd, identical to the reference's.
	cfg := Config{Width: 8, Height: 8, NumBins: 2}
	s := mkStream(8, 8,
		events.Event{TS: 10, X: 2, Y: 3, Pol: events.On},
		events.Event{TS: 20, X: 2, Y: 3, Pol: events.Off},
	)
	want := referenceByCount(cfg, s, 0, 100, 50)
	got, _, err := mustFused(t, 8, 8, 2).ConvertByCountAppend(nil, s, 0, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || len(got) != 1 {
		t.Fatalf("partial frame counts: reference=%d fused=%d, want 1", len(want), len(got))
	}
	if want[0].T1 != 100 || got[0].T1 != 100 {
		t.Fatalf("partial frame T1: reference=%d fused=%d, want 100", want[0].T1, got[0].T1)
	}
	framesEqual(t, "trailing-partial", got[0], want[0])
}
