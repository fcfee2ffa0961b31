package e2sf

import (
	"slices"

	"evedge/internal/events"
	"evedge/internal/sparse"
)

// The reference converter: the map-per-bin formulation Fused replaced,
// kept compact as the oracle the parity tests compare Fused against.
// It validates nothing; callers pass what Fused accepted.

// referenceConvert bins [tStart, tEnd) per Eq. 1 into one FrameBuilder
// map per bin, then cAdd-merges each run of groupK per-bin frames.
func referenceConvert(cfg Config, s *events.Stream, tStart, tEnd int64, groupK int) []*sparse.Frame {
	nB := cfg.NumBins
	biS := float64(tEnd-tStart) / float64(nB)
	builders := make([]*sparse.FrameBuilder, nB)
	for b := range builders {
		builders[b] = sparse.NewFrameBuilder(cfg.Height, cfg.Width,
			tStart+int64(float64(b)*biS), tStart+int64(float64(b+1)*biS))
	}
	for _, e := range s.Slice(tStart, tEnd).Events {
		b := min(int(float64(e.TS-tStart)/biS), nB-1)
		builders[b].AddEvent(int32(e.Y), int32(e.X), e.Pol == events.On)
	}
	bins := make([]*sparse.Frame, nB)
	for b := range bins {
		bins[b] = builders[b].Build()
	}
	var out []*sparse.Frame
	for a := 0; a < nB; a += groupK {
		g := &sparse.Frame{}
		sparse.MergeAddInto(g, bins[a:min(a+groupK, nB)]...)
		out = append(out, g)
	}
	return out
}

// referenceByCount closes a frame every countPerFrame events, plus a
// trailing partial frame ending at tEnd.
func referenceByCount(cfg Config, s *events.Stream, tStart, tEnd int64, countPerFrame int) []*sparse.Frame {
	var out []*sparse.Frame
	frameStart, n := tStart, 0
	b := sparse.NewFrameBuilder(cfg.Height, cfg.Width, 0, 0)
	emit := func(t1 int64) {
		f := b.Build() // resets b
		f.T0, f.T1 = frameStart, t1
		out = append(out, f)
		frameStart, n = t1, 0
	}
	for _, e := range s.Slice(tStart, tEnd).Events {
		b.AddEvent(int32(e.Y), int32(e.X), e.Pol == events.On)
		if n++; n >= countPerFrame {
			emit(e.TS + 1)
		}
	}
	if n > 0 {
		emit(tEnd)
	}
	return out
}

// referenceVoxel accumulates bilinear weights into one map per bin.
func referenceVoxel(cfg Config, s *events.Stream, tStart, tEnd int64) *VoxelGrid {
	nB, w := cfg.NumBins, int64(cfg.Width)
	acc := make([]map[int64]float32, nB)
	for b := range acc {
		acc[b] = map[int64]float32{}
	}
	span := float64(tEnd - tStart)
	for _, e := range s.Slice(tStart, tEnd).Events {
		tStar := float64(nB-1) * float64(e.TS-tStart) / span
		b0 := int(tStar)
		frac := tStar - float64(b0)
		pol := float32(1)
		if e.Pol == events.Off {
			pol = -1
		}
		key := int64(e.Y)*w + int64(e.X)
		acc[b0][key] += pol * float32(1-frac)
		if b0+1 < nB && frac > 0 {
			acc[b0+1][key] += pol * float32(frac)
		}
	}
	g := &VoxelGrid{T0: tStart, T1: tEnd}
	biS := span / float64(nB)
	for b := range acc {
		f := sparse.NewFrame(cfg.Height, cfg.Width,
			tStart+int64(float64(b)*biS), tStart+int64(float64(b+1)*biS))
		keys := make([]int64, 0, len(acc[b]))
		for k := range acc[b] {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			if v := acc[b][k]; v != 0 { // cancelled contributions are dropped
				f.Ys = append(f.Ys, int32(k/w))
				f.Xs = append(f.Xs, int32(k%w))
				f.Pos = append(f.Pos, v)
				f.Neg = append(f.Neg, 0)
			}
		}
		g.Bins = append(g.Bins, f)
	}
	return g
}
