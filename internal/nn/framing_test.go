package nn

import (
	"sort"
	"testing"

	"evedge/internal/scene"
)

// TestFrameEventsDerivation re-derives every count-framed network's N
// the way it was tuned: the median event count over the 50 ms windows
// of its preset at seed 7, half scale, 1 s, per microsecond, times
// FramePeriodUS. The zoo states the result; this pins it to the rule.
func TestFrameEventsDerivation(t *testing.T) {
	const durUS, win = 1_000_000, 50_000
	want := map[string]int{SpikeFlowNet: 225, FusionFlowNet: 323, AdaptiveSpikeNet: 462, EVFlowNet: 8_207}
	streams := map[scene.Preset][]int{} // per preset, its windows' event counts, sorted
	for _, name := range AllNames() {
		in := MustByName(name).Input
		if in.Framing != FrameByCount {
			if in.FrameEvents != 0 {
				t.Errorf("%s: time-framed network states FrameEvents %d", name, in.FrameEvents)
			}
			continue
		}
		counts, ok := streams[in.Preset]
		if !ok {
			seq, err := scene.NewSequence(in.Preset, scene.Half, 7)
			if err != nil {
				t.Fatal(err)
			}
			s, err := seq.Generate(durUS)
			if err != nil {
				t.Fatal(err)
			}
			if s.Width*s.Height != calibPixels {
				t.Fatalf("%s: half scale is %dx%d, not the calibration geometry", in.Preset, s.Width, s.Height)
			}
			for t0 := int64(0); t0 < durUS; t0 += win {
				counts = append(counts, len(s.Window(t0, t0+win)))
			}
			sort.Ints(counts)
			streams[in.Preset] = counts
		}
		rate := float64(counts[len(counts)/2]) / win
		if n := max(int(rate*float64(in.FramePeriodUS)), 1); n != in.FrameEvents || n != want[name] {
			t.Errorf("%s: median rule gives N = %d, zoo states %d, pinned %d", name, n, in.FrameEvents, want[name])
		}
	}
	if len(streams) == 0 {
		t.Fatal("no count-framed network in the zoo")
	}
}

// TestEventsPerFrameScalesByPixels: N is FrameEvents at the half-scale
// geometry, scales with the pixel count, and is at least 1.
func TestEventsPerFrameScalesByPixels(t *testing.T) {
	in := MustByName(SpikeFlowNet).Input
	for _, c := range []struct{ w, h, want int }{
		{173, 130, 225},
		{346, 260, 900},
		{24, 24, 5},          // 225 · 576 / 22 490 = 5.76
		{1, 1, 1},            // below one event: one
		{0, 130, 1},          // no pixels: still one
		{2048, 2048, 41_961}, // the largest sensor a session accepts
	} {
		if got := in.EventsPerFrame(c.w, c.h); got != c.want {
			t.Errorf("EventsPerFrame(%d, %d) = %d, want %d", c.w, c.h, got, c.want)
		}
	}
}
