package e2sf

import (
	"fmt"
	"math"
	"slices"

	"evedge/internal/events"
	"evedge/internal/mem"
	"evedge/internal/sparse"
)

// Fused is the E2SF converter. It traverses the event chunk once,
// accumulating polarities into a dense scratch grid that is
// epoch-stamped so it never needs clearing between frames, and emits
// each output frame with a single key sort. Frames come from the
// optional FramePool, so a warm converter handles a chunk with zero
// heap allocations.
//
// Per-pixel values are integer event counts (exact in float32 far
// beyond any realistic per-frame count), entries are emitted in
// (y, x) order, and bin bounds follow Eq. 1 in float64.
//
// Every event of a converted stream must lie inside the configured
// geometry (events.Stream.Validate checks it): the grid is indexed
// unchecked, so an outside event aliases another pixel or panics.
// Streams arriving from outside the program are validated where they
// enter (serve's ingest).
//
// A Fused is NOT safe for concurrent use — it is per-session state,
// like the ingestConverter that owns it.
type Fused struct {
	cfg  Config
	pool *mem.FramePool

	// Dense per-pixel scratch: pos/neg are only valid where stamp
	// matches the current epoch, so starting a new frame is one counter
	// increment instead of an O(H*W) clear.
	pos, neg []float32
	stamp    []uint32
	epoch    uint32
	touched  []int32

	// Voxel scratch: signed per-(bin, pixel) accumulation with its own
	// stamping, sized NumBins*H*W on first voxel conversion.
	vox        []float32
	voxStamp   []uint32
	voxEpoch   uint32
	voxTouched [][]int32
}

// NewFused validates the config and returns a converter drawing output
// frames from pool (nil to allocate fresh frames).
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
	n := cfg.Width * cfg.Height
	return &Fused{
		cfg: cfg, pool: pool, epoch: 1,
		pos: make([]float32, n), neg: make([]float32, n), stamp: make([]uint32, n),
	}, nil
}

// Config returns the converter's configuration.
func (k *Fused) Config() Config { return k.cfg }

// nextFrame invalidates the scratch for the next frame.
func (k *Fused) nextFrame() {
	k.epoch++
	if k.epoch == 0 { // uint32 wraparound: stale stamps could collide
		clear(k.stamp)
		k.epoch = 1
	}
	k.touched = k.touched[:0]
}

// touch returns e's grid key, zeroing the pixel on its first event of
// the current frame.
func (k *Fused) touch(e events.Event) int32 {
	key := int32(e.Y)*int32(k.cfg.Width) + int32(e.X)
	if k.stamp[key] != k.epoch {
		k.stamp[key] = k.epoch
		k.pos[key] = 0
		k.neg[key] = 0
		k.touched = append(k.touched, key)
	}
	return key
}

// add accumulates one event into the current frame's scratch.
func (k *Fused) add(e events.Event) {
	key := k.touch(e)
	if e.Pol == events.On {
		k.pos[key]++
	} else {
		k.neg[key]++
	}
}

// frame borrows or allocates an output frame.
func (k *Fused) frame(t0, t1 int64) *sparse.Frame {
	if k.pool != nil {
		return k.pool.Get(k.cfg.Height, k.cfg.Width, t0, t1)
	}
	return sparse.NewFrame(k.cfg.Height, k.cfg.Width, t0, t1)
}

// emitFrame sorts the touched keys, gathers the scratch into a frame
// spanning [t0, t1), and resets the scratch for the next frame.
func (k *Fused) emitFrame(t0, t1 int64) *sparse.Frame {
	slices.Sort(k.touched)
	f := k.frame(t0, t1)
	w := int32(k.cfg.Width)
	for _, key := range k.touched {
		f.Ys = append(f.Ys, key/w)
		f.Xs = append(f.Xs, key%w)
		f.Pos = append(f.Pos, k.pos[key])
		f.Neg = append(f.Neg, k.neg[key])
	}
	k.nextFrame()
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
	g := 0
	emit := func() {
		a := g * groupK
		b := a + groupK
		if b > nB {
			b = nB
		}
		// A group spans its member bins' bounds.
		t0 := tStart + int64(float64(a)*biS)
		t1 := tStart + int64(float64(b)*biS)
		f := k.emitFrame(t0, t1)
		dst = append(dst, f)
		st.TotalNNZ += f.NNZ()
		st.MeanDensity += f.Density()
	}
	for _, e := range s.Window(tStart, tEnd) {
		bi := int(float64(e.TS-tStart) / biS)
		if bi >= nB { // tk == tEnd-epsilon rounding; clamp to last bin
			bi = nB - 1
		}
		for eg := bi / groupK; g < eg; g++ {
			emit()
		}
		k.add(e)
		st.EventsIn++
	}
	for ; g < nG; g++ {
		emit()
	}
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
	emit := func(t1 int64) {
		f := k.emitFrame(frameStart, t1)
		dst = append(dst, f)
		st.TotalNNZ += f.NNZ()
		st.MeanDensity += f.Density()
		st.Frames++
		frameStart = t1
		n = 0
	}
	for _, e := range s.Window(tStart, tEnd) {
		k.add(e)
		st.EventsIn++
		n++
		if n >= countPerFrame {
			emit(e.TS + 1)
		}
	}
	if n > 0 {
		emit(tEnd)
	}
	if st.Frames > 0 {
		st.MeanDensity /= float64(st.Frames)
	}
	return dst, st, nil
}

// ConvertVoxel builds an nB-bin voxel grid over [tStart, tEnd). Unlike
// ConvertGrouped, polarity is signed into a single channel per bin
// (stored in the frame's Pos channel; Neg is unused), matching the
// voxel-grid convention of EV-FlowNet's successors. Bilinear weights
// are accumulated in event order into a voxel scratch reused across
// chunks.
func (k *Fused) ConvertVoxel(s *events.Stream, tStart, tEnd int64) (*VoxelGrid, error) {
	if err := k.checkWindow(s, tStart, tEnd); err != nil {
		return nil, err
	}
	nB := k.cfg.NumBins
	if nB < 2 {
		return nil, fmt.Errorf("e2sf: voxel grid needs at least 2 bins, got %d", nB)
	}
	hw := k.cfg.Width * k.cfg.Height
	if k.vox == nil || len(k.vox) < nB*hw {
		k.vox = make([]float32, nB*hw)
		k.voxStamp = make([]uint32, nB*hw)
		k.voxTouched = make([][]int32, nB)
	}
	k.voxEpoch++
	if k.voxEpoch == 0 {
		clear(k.voxStamp)
		k.voxEpoch = 1
	}
	for b := 0; b < nB; b++ {
		k.voxTouched[b] = k.voxTouched[b][:0]
	}
	acc := func(b int, key int32, v float32) {
		i := b*hw + int(key)
		if k.voxStamp[i] != k.voxEpoch {
			k.voxStamp[i] = k.voxEpoch
			k.vox[i] = 0
			k.voxTouched[b] = append(k.voxTouched[b], key)
		}
		k.vox[i] += v
	}
	span := float64(tEnd - tStart)
	for _, e := range s.Window(tStart, tEnd) {
		tStar := float64(nB-1) * float64(e.TS-tStart) / span
		b0 := int(tStar)
		frac := tStar - float64(b0)
		pol := float32(1)
		if e.Pol == events.Off {
			pol = -1
		}
		key := int32(e.Y)*int32(k.cfg.Width) + int32(e.X)
		acc(b0, key, pol*float32(1-frac))
		if b0+1 < nB && frac > 0 {
			acc(b0+1, key, pol*float32(frac))
		}
	}
	g := &VoxelGrid{T0: tStart, T1: tEnd}
	biS := span / float64(nB)
	w := int32(k.cfg.Width)
	for b := 0; b < nB; b++ {
		f := k.frame(tStart+int64(float64(b)*biS), tStart+int64(float64(b+1)*biS))
		slices.Sort(k.voxTouched[b])
		for _, key := range k.voxTouched[b] {
			v := k.vox[b*hw+int(key)]
			if v == 0 {
				continue // positive and negative contributions cancelled
			}
			f.Ys = append(f.Ys, key/w)
			f.Xs = append(f.Xs, key%w)
			f.Pos = append(f.Pos, v)
			f.Neg = append(f.Neg, 0)
		}
		g.Bins = append(g.Bins, f)
	}
	return g, nil
}
