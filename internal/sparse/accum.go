package sparse

import (
	"fmt"
	"math/bits"
)

// Accum is a dense two-channel accumulation grid with bitmap
// occupancy: the scratch E2SF counts events into and DSFA sums bucket
// members into before either emits a sparse Frame. A pixel's
// {pos, neg} pair is one 8-byte cell, so a first touch costs one data
// cache line plus the (small, hot) bitmaps. Emit walks set rows → set
// words → set bits, which yields entries already in (y, x) order, and
// zeroes everything it reads: the grid is all-zero again after every
// Emit, so no frame needs a clear, an epoch counter or a sort.
//
// That invariant is the ownership rule. An Accum carries no state
// between emissions, so nothing needs to own one for longer than a
// call: converters and aggregators borrow a grid from mem.FramePool
// for one conversion or one bucket close and hand it back all-zero
// (PutAccum panics otherwise).
//
// Not safe for concurrent use.
type Accum struct {
	h, w int
	wpr  int          // occupancy words per row: ceil(w / 64)
	px   [][2]float32 // h*w cells, {pos, neg}
	occ  []uint64     // h*wpr words: bit x&63 of word y*wpr + x>>6
	rows []uint64     // ceil(h / 64) words: bit y&63 set when row y has a set word
}

// NewAccum returns an all-zero h x w grid.
func NewAccum(h, w int) *Accum {
	if h <= 0 || w <= 0 {
		panic(fmt.Sprintf("sparse: invalid accumulator geometry %dx%d", h, w))
	}
	wpr := (w + 63) / 64
	return &Accum{
		h: h, w: w, wpr: wpr,
		px:   make([][2]float32, h*w),
		occ:  make([]uint64, h*wpr),
		rows: make([]uint64, (h+63)/64),
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
	a.occ[y*a.wpr+x>>6] |= 1 << (x & 63)
	a.rows[y>>6] |= 1 << (y & 63)
	return &a.px[y*a.w+x]
}

// Clean reports whether the grid is all-zero, judged by the row
// bitmap (every Touch sets a row bit and only Emit clears them).
func (a *Accum) Clean() bool {
	for _, r := range a.rows {
		if r != 0 {
			return false
		}
	}
	return true
}

// sizeFresh gives a frame that has no backing arrays yet channel
// slices of exactly the touched cells' capacity — a popcount over the
// occupancy words of the set rows, reading none of the grid. With
// nothing touched the slices stay nil.
func (a *Accum) sizeFresh(out *Frame) {
	n := 0
	for ri, rw := range a.rows {
		for ; rw != 0; rw &= rw - 1 {
			y := ri<<6 + bits.TrailingZeros64(rw)
			for _, word := range a.occ[y*a.wpr : (y+1)*a.wpr] {
				n += bits.OnesCount64(word)
			}
		}
	}
	if n == 0 {
		return
	}
	out.Ys = make([]int32, 0, n)
	out.Xs = make([]int32, 0, n)
	out.Pos = make([]float32, 0, n)
	out.Neg = make([]float32, 0, n)
}

// Emit appends every touched cell, scaled, to out's channel slices in
// (y, x) order and leaves the grid all-zero. out must have the grid's
// geometry and — for the result to stay sorted — no entries at or past
// the first touched cell; callers pass a freshly Reset frame.
//
// A frame with no backing arrays yet (cap(out.Ys) == 0: every frame of
// the offline pipeline.Run, which has no frame pool, and the first use
// of a pooled frame on a cold server) is first sized to the touched
// count, so the four slices are allocated once at their final length
// instead of doubling their way up from nothing. A frame that brings
// capacity is appended to as it is. The count is taken only for the
// fresh frame, and in a function of its own before the walk, because
// it is not free: counting on every emission cost the warm pooled path
// (serve_pump_batch) 8 % of its events/s (15.27 M -> 14.03 M, 0 of 5
// pairs won; EXPERIMENTS.md "Wire path"). Keyed on the input like this
// that workload reads 15.46 M against the parent's 15.42 M over ten
// pairs, and paper_levels, all fresh frames, 15.4 M -> 23.7 M.
func (a *Accum) Emit(out *Frame, scale float32) {
	if out.H != a.h || out.W != a.w {
		panic(fmt.Sprintf("sparse: Emit into %dx%d frame from %dx%d accumulator", out.H, out.W, a.h, a.w))
	}
	if cap(out.Ys) == 0 {
		a.sizeFresh(out)
	}
	for ri, rw := range a.rows {
		if rw == 0 {
			continue
		}
		a.rows[ri] = 0
		for ; rw != 0; rw &= rw - 1 {
			y := ri<<6 + bits.TrailingZeros64(rw)
			occ := a.occ[y*a.wpr : (y+1)*a.wpr]
			row := a.px[y*a.w : (y+1)*a.w]
			for wi, word := range occ {
				if word == 0 {
					continue
				}
				occ[wi] = 0
				for ; word != 0; word &= word - 1 {
					x := wi<<6 + bits.TrailingZeros64(word)
					c := &row[x]
					out.Ys = append(out.Ys, int32(y))
					out.Xs = append(out.Xs, int32(x))
					out.Pos = append(out.Pos, c[0]*scale)
					out.Neg = append(out.Neg, c[1]*scale)
					*c = [2]float32{}
				}
			}
		}
	}
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
