package e2sf

import (
	"maps"
	"slices"

	"evedge/internal/events"
	"evedge/internal/sparse"
)

// The reference converter: the map-per-bin formulation Fused replaced,
// kept compact as the oracle the parity tests compare Fused against.
// It validates nothing; callers pass what Fused accepted.

// pixelCounts is one reference bin: per-pixel {pos, neg} event counts
// keyed y*W+x.
type pixelCounts map[int64][2]float32

func (c pixelCounts) add(e events.Event, w int) {
	k := int64(e.Y)*int64(w) + int64(e.X)
	v := c[k]
	if e.Pol == events.On {
		v[0]++
	} else {
		v[1]++
	}
	c[k] = v
}

// frame emits the counts as a sorted h x w frame, each key's (y, x)
// set in key order; no counts, nil channel slices.
func (c pixelCounts) frame(h, w int, t0, t1 int64) *sparse.Frame {
	f := sparse.NewFrame(h, w, t0, t1)
	for _, k := range slices.Sorted(maps.Keys(c)) {
		f.Set(int32(k/int64(w)), int32(k%int64(w)), c[k][0], c[k][1])
	}
	return f
}

// referenceConvert bins [tStart, tEnd) per Eq. 1 into one map per bin,
// then sums each run of groupK bins, in bin order, into the group's
// map; a group spans its member bins' bounds.
func referenceConvert(cfg Config, s *events.Stream, tStart, tEnd int64, groupK int) []*sparse.Frame {
	nB := cfg.NumBins
	biS := float64(tEnd-tStart) / float64(nB)
	bins := make([]pixelCounts, nB)
	for b := range bins {
		bins[b] = pixelCounts{}
	}
	for _, e := range s.Slice(tStart, tEnd).Events {
		bins[min(int(float64(e.TS-tStart)/biS), nB-1)].add(e, cfg.Width)
	}
	var out []*sparse.Frame
	for a := 0; a < nB; a += groupK {
		b := min(a+groupK, nB)
		sum := pixelCounts{}
		for _, bin := range bins[a:b] {
			for k, v := range bin {
				g := sum[k]
				sum[k] = [2]float32{g[0] + v[0], g[1] + v[1]}
			}
		}
		out = append(out, sum.frame(cfg.Height, cfg.Width,
			tStart+int64(float64(a)*biS), tStart+int64(float64(b)*biS)))
	}
	return out
}

// referenceByCount closes a frame every countPerFrame events, plus a
// trailing partial frame ending at tEnd.
func referenceByCount(cfg Config, s *events.Stream, tStart, tEnd int64, countPerFrame int) []*sparse.Frame {
	var out []*sparse.Frame
	frameStart, n := tStart, 0
	counts := pixelCounts{}
	emit := func(t1 int64) {
		out = append(out, counts.frame(cfg.Height, cfg.Width, frameStart, t1))
		counts, frameStart, n = pixelCounts{}, t1, 0
	}
	for _, e := range s.Slice(tStart, tEnd).Events {
		counts.add(e, cfg.Width)
		if n++; n >= countPerFrame {
			emit(e.TS + 1)
		}
	}
	if n > 0 {
		emit(tEnd)
	}
	return out
}
