package e2sf

import (
	"fmt"

	"evedge/internal/events"
	"evedge/internal/mem"
	"evedge/internal/sparse"
)

// Fused is the E2SF converter. It traverses the event chunk once,
// counting polarities into a dense accumulation grid (sparse.Accum:
// one {pos, neg} cell per pixel plus an occupancy bitmap), and emits
// each output frame by walking the bitmap, which yields the entries in
// (y, x) order and zeroes the grid as it goes — no per-frame clear and
// no sort. Frames come from a FramePool, so a warm converter on a pool
// its frames go back to handles a chunk with zero heap allocations.
//
// The grid is scratch for the length of one conversion call, not
// converter state: it is all-zero whenever no call is running. The
// converter therefore borrows it from the FramePool at the start of
// each call and returns it (all-zero) at the end, and holds no W x H
// memory between calls.
//
// Per-pixel values are integer event counts (exact in float32 far
// beyond any realistic per-frame count), entries are emitted in
// (y, x) order, and bin bounds follow Eq. 1 in float64. Time framing
// finds each group's first timestamp once, searching with Eq. 1's own
// expression, so per event it compares the timestamp with the next
// group's edge and evaluates Eq. 1 only for an event that reaches it:
// every event still lands in the bin Eq. 1 gives.
//
// Every event of a converted stream must lie inside the configured
// geometry: the grid is indexed unchecked, so an outside event aliases
// another pixel or panics. Streams arriving from outside the program
// are checked event by event where they enter (serve's ingest).
//
// A Fused is NOT safe for concurrent use — it is per-framer state,
// like the Framer that drives it. Converters sharing one FramePool may
// run concurrently: each call borrows its own grid.
type Fused struct {
	cfg  Config
	pool *mem.FramePool
}

// NewFused validates the config and returns a converter drawing output
// frames and its accumulation grid from pool, or, when pool is nil,
// from a private pool no frame goes back to: its frames are freshly
// allocated and belong to the caller.
func NewFused(cfg Config, pool *mem.FramePool) (*Fused, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("e2sf: invalid geometry %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.NumBins <= 0 {
		return nil, fmt.Errorf("e2sf: NumBins must be positive, got %d", cfg.NumBins)
	}
	if !sparse.CellsFit(cfg.Height, cfg.Width) {
		return nil, fmt.Errorf("e2sf: geometry %dx%d overflows int32 cell indexes", cfg.Width, cfg.Height)
	}
	if pool == nil {
		pool = mem.NewFramePool()
	}
	return &Fused{cfg: cfg, pool: pool}, nil
}

// channel is e's cell index in the grid: 0 for On, 1 for Off, read off
// the polarity's sign bit.
func channel(e events.Event) uint8 { return uint8(e.Pol) >> 7 }

// emitFrame moves the grid's counts into a frame spanning [t0, t1),
// leaving the grid all-zero for the next frame. n is the number of
// events added since the last emission, which bounds the touched
// cells; the pool picks a frame to hold that many entries.
func (k *Fused) emitFrame(acc *sparse.Accum, t0, t1 int64, n int) *sparse.Frame {
	f := k.pool.Get(k.cfg.Height, k.cfg.Width, t0, t1, n)
	acc.Emit(f, 1)
	return f
}

// checkWindow validates a conversion's interval and stream geometry.
func (k *Fused) checkWindow(s *events.Stream, tStart, tEnd int64) error {
	if tEnd <= tStart {
		return fmt.Errorf("e2sf: empty interval [%d, %d)", tStart, tEnd)
	}
	if s.Width != k.cfg.Width || s.Height != k.cfg.Height {
		return fmt.Errorf("e2sf: stream geometry %dx%d != converter %dx%d",
			s.Width, s.Height, k.cfg.Width, k.cfg.Height)
	}
	return nil
}

// ConvertGroupedAppend bins the events of s that fall in [tStart,
// tEnd) per Eq. 1 and appends to dst one frame per group of groupK
// consecutive bins — the paper's "presented sequentially over B/k
// timesteps" input mode for SNNs; groupK 1 is one frame per bin. The
// last group may cover fewer bins, and empty groups still yield empty
// frames, preserving temporal alignment. The stream must be sorted.
// Stats are reported over the emitted group frames.
func (k *Fused) ConvertGroupedAppend(dst []*sparse.Frame, s *events.Stream, tStart, tEnd int64, groupK int) ([]*sparse.Frame, Stats, error) {
	var st Stats
	if err := k.checkWindow(s, tStart, tEnd); err != nil {
		return dst, st, err
	}
	if groupK <= 0 {
		return dst, st, fmt.Errorf("e2sf: group size must be positive, got %d", groupK)
	}
	nB := k.cfg.NumBins
	// Eq. 1: bin duration. Integer microseconds; float64 for the
	// division to avoid bias when the window is not a multiple of nB.
	span := tEnd - tStart
	biS := float64(span) / float64(nB)
	nG := (nB + groupK - 1) / groupK
	g, n := 0, 0
	// nextGroup returns the first timestamp of group g+1: tEnd when
	// there is no such group or no timestamp of the window falls in it.
	nextGroup := func() int64 {
		if a := (g + 1) * groupK; a < nB {
			return tStart + firstOffset(a, biS, span)
		}
		return tEnd
	}
	next := nextGroup()
	acc := k.pool.GetAccum(k.cfg.Height, k.cfg.Width)
	emit := func() {
		a := g * groupK
		b := a + groupK
		if b > nB {
			b = nB
		}
		// A group spans its member bins' bounds.
		t0 := tStart + int64(float64(a)*biS)
		t1 := tStart + int64(float64(b)*biS)
		f := k.emitFrame(acc, t0, t1, n)
		dst = append(dst, f)
		n = 0
	}
	for _, e := range s.Window(tStart, tEnd) {
		if e.TS >= next {
			// Clamped: tk == tEnd-epsilon rounds to nB.
			bi := min(int(float64(e.TS-tStart)/biS), nB-1)
			for eg := bi / groupK; g < eg; g++ {
				emit()
			}
			next = nextGroup()
		}
		acc.Touch(int(e.Y), int(e.X))[channel(e)]++
		n++
	}
	for ; g < nG; g++ {
		emit()
	}
	k.pool.PutAccum(acc)
	st.Frames = nG
	return dst, st, nil
}

// firstOffset returns the smallest offset from tStart whose Eq. 1 bin,
// int(float64(offset)/biS), is at least bin (≥ 1), or span when no
// offset below span reaches it. The bin never falls as the offset
// grows, so the search brackets the estimate bin·biS — a few ulps
// either side, each bound checked — and bisects, evaluating the very
// expression events are binned by: the edge is exact whatever the
// estimate's rounding.
func firstOffset(bin int, biS float64, span int64) int64 {
	reaches := func(d int64) bool { return int(float64(d)/biS) >= bin }
	lo, hi := int64(0), span // offset 0 is in bin 0; span stands past every offset
	if est := float64(bin) * biS; est < float64(span) {
		d, m := int64(est), 2+int64(est*0x1p-50)
		if c := d - m; c > lo && !reaches(c) {
			lo = c
		}
		if m < span-d && reaches(d+m) {
			hi = d + m
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if reaches(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// ConvertByCountAppend implements the count-based framing of prior
// works ([7] SpikeFlowNet, [8] Fusion-FlowNet: "construct event frames
// by statically counting the number of events") over the events of s
// in [tStart, tEnd), appending into dst: a frame every countPerFrame
// events with T1 just past the closing event, so the frame rate tracks
// scene activity — the behaviour that creates frame backlog during
// bursts and motivates DSFA. A trailing partial frame ending at tEnd is
// emitted if the window ends mid-count.
func (k *Fused) ConvertByCountAppend(dst []*sparse.Frame, s *events.Stream, tStart, tEnd int64, countPerFrame int) ([]*sparse.Frame, Stats, error) {
	var st Stats
	if err := k.checkWindow(s, tStart, tEnd); err != nil {
		return dst, st, err
	}
	if countPerFrame <= 0 {
		return dst, st, fmt.Errorf("e2sf: countPerFrame must be positive, got %d", countPerFrame)
	}
	frameStart := tStart
	n := 0
	acc := k.pool.GetAccum(k.cfg.Height, k.cfg.Width)
	emit := func(t1 int64) {
		f := k.emitFrame(acc, frameStart, t1, n)
		dst = append(dst, f)
		st.Frames++
		frameStart = t1
		n = 0
	}
	for _, e := range s.Window(tStart, tEnd) {
		acc.Touch(int(e.Y), int(e.X))[channel(e)]++
		n++
		if n >= countPerFrame {
			emit(e.TS + 1)
		}
	}
	if n > 0 {
		emit(tEnd)
	}
	k.pool.PutAccum(acc)
	return dst, st, nil
}
