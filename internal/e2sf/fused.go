package e2sf

import (
	"fmt"
	"math"

	"evedge/internal/events"
	"evedge/internal/mem"
	"evedge/internal/sparse"
)

// Fused is the E2SF converter. It traverses the event chunk once,
// counting polarities into a dense accumulation grid (sparse.Accum:
// one {pos, neg} cell per pixel plus an occupancy bitmap), and emits
// each output frame by walking the bitmap, which yields the entries in
// (y, x) order and zeroes the grid as it goes — no per-frame clear and
// no sort. Frames come from the optional FramePool, so a warm
// converter handles a chunk with zero heap allocations.
//
// The grid is scratch for the length of one conversion call, not
// converter state: it is all-zero whenever no call is running. A
// pooled converter therefore borrows it from the FramePool at the
// start of each call and returns it (all-zero) at the end, and holds
// no W x H memory between calls; an unpooled one lazily keeps its own.
//
// Per-pixel values are integer event counts (exact in float32 far
// beyond any realistic per-frame count), entries are emitted in
// (y, x) order, and bin bounds follow Eq. 1 in float64.
//
// Every event of a converted stream must lie inside the configured
// geometry: the grid is indexed unchecked, so an outside event aliases
// another pixel or panics. Streams arriving from outside the program
// are checked event by event where they enter (serve's ingest).
//
// A Fused is NOT safe for concurrent use — it is per-session state,
// like the ingestConverter that owns it. Converters sharing one
// FramePool may run concurrently: each call borrows its own grid.
type Fused struct {
	cfg  Config
	pool *mem.FramePool
	own  *sparse.Accum // the unpooled converter's grid, nil until first use
}

// NewFused validates the config and returns a converter drawing output
// frames and its accumulation grid from pool (nil to allocate fresh
// frames and keep a grid of its own).
func NewFused(cfg Config, pool *mem.FramePool) (*Fused, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("e2sf: invalid geometry %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.NumBins <= 0 {
		return nil, fmt.Errorf("e2sf: NumBins must be positive, got %d", cfg.NumBins)
	}
	if int64(cfg.Width)*int64(cfg.Height) > math.MaxInt32 {
		return nil, fmt.Errorf("e2sf: geometry %dx%d overflows int32 keys", cfg.Width, cfg.Height)
	}
	return &Fused{cfg: cfg, pool: pool}, nil
}

// Config returns the converter's configuration.
func (k *Fused) Config() Config { return k.cfg }

// borrow returns the all-zero grid for one conversion call; release
// hands it back once the call has emitted everything it added.
func (k *Fused) borrow() *sparse.Accum {
	if k.pool != nil {
		return k.pool.GetAccum(k.cfg.Height, k.cfg.Width)
	}
	if k.own == nil {
		k.own = sparse.NewAccum(k.cfg.Height, k.cfg.Width)
	}
	return k.own
}

func (k *Fused) release(acc *sparse.Accum) {
	if k.pool != nil {
		k.pool.PutAccum(acc)
	}
}

// channel is e's cell index in the grid: 0 for On, 1 for Off, read off
// the polarity's sign bit.
func channel(e events.Event) uint8 { return uint8(e.Pol) >> 7 }

// emitFrame moves the grid's counts into a frame spanning [t0, t1),
// leaving the grid all-zero for the next frame. n is the number of
// events added since the last emission, which bounds the touched
// cells; a pooled frame is picked to hold that many entries.
func (k *Fused) emitFrame(acc *sparse.Accum, t0, t1 int64, n int) *sparse.Frame {
	var f *sparse.Frame
	if k.pool != nil {
		f = k.pool.Get(k.cfg.Height, k.cfg.Width, t0, t1, n)
	} else {
		f = sparse.NewFrame(k.cfg.Height, k.cfg.Width, t0, t1)
	}
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

// ConvertGrouped bins the events of s that fall in [tStart, tEnd) per
// Eq. 1 and returns one frame per group of groupK consecutive bins —
// the paper's "presented sequentially over B/k timesteps" input mode
// for SNNs; groupK 1 is one frame per bin. The last group may cover
// fewer bins, and empty groups still yield empty frames, preserving
// temporal alignment. The stream must be sorted. Stats are reported
// over the emitted group frames, matching what the serving path
// observes.
func (k *Fused) ConvertGrouped(s *events.Stream, tStart, tEnd int64, groupK int) ([]*sparse.Frame, Stats, error) {
	return k.ConvertGroupedAppend(nil, s, tStart, tEnd, groupK)
}

// ConvertGroupedAppend is ConvertGrouped appending into dst, so a
// caller-owned output slice is reused across chunks.
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
	biS := float64(tEnd-tStart) / float64(nB)
	nG := (nB + groupK - 1) / groupK
	g, n := 0, 0
	acc := k.borrow()
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
		st.TotalNNZ += f.NNZ()
		st.MeanDensity += f.Density()
		n = 0
	}
	for _, e := range s.Window(tStart, tEnd) {
		bi := int(float64(e.TS-tStart) / biS)
		if bi >= nB { // tk == tEnd-epsilon rounding; clamp to last bin
			bi = nB - 1
		}
		for eg := bi / groupK; g < eg; g++ {
			emit()
		}
		acc.Touch(int(e.Y), int(e.X))[channel(e)]++
		st.EventsIn++
		n++
	}
	for ; g < nG; g++ {
		emit()
	}
	k.release(acc)
	st.Frames = nG
	if nG > 0 {
		st.MeanDensity /= float64(nG)
	}
	return dst, st, nil
}

// ConvertByCount implements the count-based framing of prior works
// ([7] SpikeFlowNet, [8] Fusion-FlowNet: "construct event frames by
// statically counting the number of events"): a frame every
// countPerFrame events with T1 just past the closing event, so the
// frame rate tracks scene activity — the behaviour that creates frame
// backlog during bursts and motivates DSFA. A trailing partial frame
// ending at tEnd is emitted if the window ends mid-count.
func (k *Fused) ConvertByCount(s *events.Stream, tStart, tEnd int64, countPerFrame int) ([]*sparse.Frame, Stats, error) {
	return k.ConvertByCountAppend(nil, s, tStart, tEnd, countPerFrame)
}

// ConvertByCountAppend is ConvertByCount appending into dst.
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
	acc := k.borrow()
	emit := func(t1 int64) {
		f := k.emitFrame(acc, frameStart, t1, n)
		dst = append(dst, f)
		st.TotalNNZ += f.NNZ()
		st.MeanDensity += f.Density()
		st.Frames++
		frameStart = t1
		n = 0
	}
	for _, e := range s.Window(tStart, tEnd) {
		acc.Touch(int(e.Y), int(e.X))[channel(e)]++
		st.EventsIn++
		n++
		if n >= countPerFrame {
			emit(e.TS + 1)
		}
	}
	if n > 0 {
		emit(tEnd)
	}
	k.release(acc)
	if st.Frames > 0 {
		st.MeanDensity /= float64(st.Frames)
	}
	return dst, st, nil
}
