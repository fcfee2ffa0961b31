package sparse

import (
	"fmt"
	"math/bits"
)

// Accum is a dense two-channel accumulation grid with bitmap
// occupancy: the scratch E2SF counts events into and DSFA sums bucket
// members into before either emits a sparse Frame. A pixel's
// {pos, neg} pair is one 8-byte cell, so a first touch costs one data
// cache line plus the (small, hot) bitmaps: one occupancy bit per
// pixel and, above it, one summary bit per occupancy word. Emit walks
// set summary bits → the one occupancy word each names → its set bits,
// so it never loads a zero occupancy word and its cost follows the
// touched cells, not the sensor's rows or width. The walk yields
// entries already in (y, x) order and zeroes everything it reads: the
// grid is all-zero again after every Emit, so no frame needs a clear,
// an epoch counter or a sort.
//
// That invariant is the ownership rule. An Accum carries no state
// between emissions, so nothing needs to own one for longer than a
// call: converters and aggregators borrow a grid from mem.FramePool
// for one conversion or one bucket close and hand it back all-zero
// (PutAccum panics otherwise).
//
// Not safe for concurrent use.
type Accum struct {
	h, w   int
	stride int          // occupancy words per row: ceil(w / 64) rounded up to a power of two
	px     [][2]float32 // h*w cells, {pos, neg}
	occ    []uint64     // h*stride words: bit x&63 of word y*stride + x>>6
	sum    []uint64     // ceil(len(occ) / 64) words: bit i&63 of word i>>6 set when occ[i] is not zero
	calls  int          // Touch calls since the last Emit: an upper bound on the touched cells
}

// NewAccum returns an all-zero h x w grid.
func NewAccum(h, w int) *Accum {
	if h <= 0 || w <= 0 {
		panic(fmt.Sprintf("sparse: invalid accumulator geometry %dx%d", h, w))
	}
	// A power-of-two row stride lets Emit recover (y, x) from an
	// occupancy word's index with a shift and a mask — no division, no
	// lookup table; the padding words are never set, so never visited.
	stride := 1 << bits.Len(uint((w+63)/64-1))
	return &Accum{
		h: h, w: w, stride: stride,
		px:  make([][2]float32, h*w),
		occ: make([]uint64, h*stride),
		sum: make([]uint64, (h*stride+63)/64),
	}
}

// H returns the grid height.
func (a *Accum) H() int { return a.h }

// W returns the grid width.
func (a *Accum) W() int { return a.w }

// Touch marks (y, x) occupied and returns its {pos, neg} cell for the
// caller to add to or overwrite. A touched cell is emitted even when
// its values are (or sum to) zero. Coordinates are not checked beyond
// the slice bounds: a caller passes only in-geometry pixels.
func (a *Accum) Touch(y, x int) *[2]float32 {
	i := y*a.stride + x>>6
	a.occ[i] |= 1 << (x & 63)
	a.sum[i>>6] |= 1 << (i & 63)
	a.calls++
	return &a.px[y*a.w+x]
}

// Clean reports whether the grid is all-zero, judged by the summary
// bitmap (every Touch sets a summary bit and only Emit clears them).
func (a *Accum) Clean() bool {
	for _, s := range a.sum {
		if s != 0 {
			return false
		}
	}
	return true
}

// touched counts the occupied cells: a popcount over the occupancy
// words the summary names, reading none of the grid.
func (a *Accum) touched() int {
	n := 0
	for si, s := range a.sum {
		for ; s != 0; s &= s - 1 {
			n += bits.OnesCount64(a.occ[si<<6+bits.TrailingZeros64(s)])
		}
	}
	return n
}

// room returns s, entries kept, with capacity for n more. A slice
// with no backing array gets exactly n, so a fresh frame is allocated
// once at its final length. One that brought capacity belongs to a
// pooled frame too small for this emission — mem.FramePool lends the
// frame whose capacity class fits the emission's bound, so that
// happens only when no free frame is large enough — and at least
// doubles, as append would have grown it, which files the frame in a
// higher class for the emissions of this size that follow.
func room[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := make([]T, len(s), max(len(s)+n, 2*cap(s)))
	copy(grown, s)
	return grown
}

// Emit appends every touched cell, scaled, to out's channel slices in
// (y, x) order and leaves the grid all-zero. out must have the grid's
// geometry and — for the result to stay sorted — no entries at or past
// the first touched cell; callers pass a freshly Reset frame.
//
// Space is reserved once per call, not per cell. The Touch calls since
// the last emission bound the touched cells from above (a frame's
// event count for E2SF, the members' entries for DSFA), so a warm
// pooled frame with that much room in all four slices is stored into
// as it is. Otherwise the cells are counted exactly — a popcount over
// the set occupancy words only — and each slice that is short of the
// count grows once: a frame with no backing arrays yet (every frame of
// the offline pipeline.Run, which has no frame pool, and the first use
// of a pooled frame on a cold server) gets its four arrays at their
// final length instead of doubling its way up from nothing, and an
// emission that touched nothing leaves such a frame's slices nil.
func (a *Accum) Emit(out *Frame, scale float32) {
	if out.H != a.h || out.W != a.w {
		panic(fmt.Sprintf("sparse: Emit into %dx%d frame from %dx%d accumulator", out.H, out.W, a.h, a.w))
	}
	more := a.calls
	if more == 0 {
		return
	}
	a.calls = 0
	n := len(out.Ys)
	if min(cap(out.Ys), cap(out.Xs), cap(out.Pos), cap(out.Neg))-n < more {
		more = a.touched()
		out.Ys, out.Xs = room(out.Ys, more), room(out.Xs, more)
		out.Pos, out.Neg = room(out.Pos, more), room(out.Neg, more)
	}
	ys := out.Ys[:n+more]
	xs, pos, neg := out.Xs[:len(ys)], out.Pos[:len(ys)], out.Neg[:len(ys)]
	sum, occ, px, w := a.sum, a.occ, a.px, a.w
	// & 63 tells the compiler the shift count is in range.
	shift, mask := bits.TrailingZeros(uint(a.stride))&63, a.stride-1
	for si, s := range sum {
		sum[si] = 0
		for ; s != 0; s &= s - 1 {
			i := si<<6 + bits.TrailingZeros64(s)
			word := occ[i]
			occ[i] = 0
			y, x0 := i>>shift, (i&mask)<<6
			row := px[y*w+x0:]
			for ; word != 0; word &= word - 1 {
				x := bits.TrailingZeros64(word)
				c := &row[x]
				ys[n], xs[n] = int32(y), int32(x0+x)
				pos[n], neg[n] = c[0]*scale, c[1]*scale
				*c = [2]float32{}
				n++
			}
		}
	}
	out.Ys, out.Xs, out.Pos, out.Neg = ys[:n], xs[:n], pos[:n], neg[:n]
}

// Merge writes into out (typically a pooled frame, whose slice
// capacity is kept) the per-pixel sums of frames times scale: the DSFA
// combine step, scale 1 for cAdd and 1/len(frames) for cAverage. Time
// bounds become the union. Members are scattered in argument order, so
// each pixel's float32 sum is formed in that order — scenario replay
// depends on it. Panics on geometry mismatch, on no frames, and when
// out is one of the inputs.
func (a *Accum) Merge(out *Frame, frames []*Frame, scale float32) {
	if len(frames) == 0 {
		panic("sparse: merge of no frames")
	}
	t0, t1 := frames[0].T0, frames[0].T1
	for _, f := range frames {
		if f == out {
			panic("sparse: merge output aliases an input")
		}
		if f.H != a.h || f.W != a.w {
			panic(fmt.Sprintf("sparse: merge geometry mismatch %dx%d vs %dx%d", f.H, f.W, a.h, a.w))
		}
		t0, t1 = min(t0, f.T0), max(t1, f.T1)
	}
	for _, f := range frames {
		f.ensureSorted()
		for i, y := range f.Ys {
			c := a.Touch(int(y), int(f.Xs[i]))
			c[0] += f.Pos[i]
			c[1] += f.Neg[i]
		}
	}
	out.Reset(a.h, a.w, t0, t1)
	a.Emit(out, scale)
}
