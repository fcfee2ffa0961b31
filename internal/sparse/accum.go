package sparse

import (
	"fmt"
	"math/bits"
)

// Accum is a dense two-channel accumulation grid with bitmap
// occupancy: the scratch E2SF counts events into before it emits a
// sparse Frame, and the one DSFA counts a bucket's cells on
// (UnionCount) or, asked for the pixels, sums its members into (Merge).
// A pixel's {pos, neg} pair is one 8-byte cell, so a first touch costs
// one data cache line plus the (small, hot) bitmaps: one occupancy bit
// per pixel and, above it, one summary bit per occupancy word. Emit walks
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
// for one conversion or one dispatch and hand it back all-zero
// (PutAccum panics otherwise).
//
// Not safe for concurrent use.
type Accum struct {
	h, w   int
	stride int          // occupancy words per row: 1<<(cellShift(w)-6)
	px     [][2]float32 // h*w cells, {pos, neg}
	occ    []uint64     // one bit per cell index c = y<<cellShift(w) | x: bit c&63 of word c>>6
	sum    []uint64     // ceil(len(occ) / 64) words: bit i&63 of word i>>6 set when occ[i] is not zero
	calls  int          // Touch calls since the last Emit: an upper bound on the touched cells
}

// NewAccum returns an all-zero h x w grid. Panics on a geometry whose
// cell indexes do not fit in an int32 (CellsFit).
func NewAccum(h, w int) *Accum {
	if !CellsFit(h, w) {
		panic(fmt.Sprintf("sparse: invalid accumulator geometry %dx%d", h, w))
	}
	// The occupancy bitmap is indexed by the frame's cell index, whose
	// power-of-two row stride makes the bit Emit walks the index it
	// stores — no division, no lookup table; the padding bits are
	// never set, so never visited.
	stride := 1 << (cellShift(w) - 6)
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

// UnionCount returns the number of distinct cells the frames occupy —
// the NNZ Merge would give their sum, since Merge emits every touched
// cell, even one whose values sum to zero. A frame's cell index is the
// cell's occupancy bit, so each entry sets bit p of the bitmap with no
// decoding; the cells are then counted by popcount over the words the
// summary names, which are cleared as they are read. No pixel cell is
// read or written, and the grid is left as clean as it must be on
// entry. Frames need not be sorted. Panics on geometry mismatch.
func (a *Accum) UnionCount(frames []*Frame) int {
	occ, sum := a.occ, a.sum
	for _, f := range frames {
		if f.H != a.h || f.W != a.w {
			panic(fmt.Sprintf("sparse: union geometry mismatch %dx%d vs %dx%d", f.H, f.W, a.h, a.w))
		}
		for _, p := range f.Cells {
			j := int(p) >> 6
			occ[j] |= 1 << (p & 63)
			sum[j>>6] |= 1 << (j & 63)
		}
	}
	n := 0
	for si, s := range sum {
		if s == 0 {
			continue
		}
		sum[si] = 0
		for ; s != 0; s &= s - 1 {
			j := si<<6 + bits.TrailingZeros64(s)
			n += bits.OnesCount64(occ[j])
			occ[j] = 0
		}
	}
	return n
}

// room returns s, entries kept, with capacity for n more. A slice
// with no backing array gets exactly n, so a fresh frame is allocated
// once, at the size Emit picks for it. One that brought capacity
// belongs to a pooled frame too small for this emission — mem.FramePool
// lends the frame whose capacity class fits the emission's bound, so
// that happens only when no free frame is large enough — and at least
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
// the first touched cell; callers pass a freshly Reset frame. The
// occupancy bit the walk finds is the cell's index, stored as it is:
// three stores per cell (index, pos, neg).
//
// Space is reserved once per call, not per cell. The Touch calls since
// the last emission bound the touched cells from above (a frame's
// event count for E2SF, the members' entries for DSFA), so a warm
// pooled frame with that much room in all three slices is stored into
// as it is. Otherwise the cells are counted exactly — a popcount over
// the set occupancy words only — and each slice that is short of the
// count grows once. A frame with no backing arrays yet (a frame of
// pipeline.ConvertStream, which its caller owns, and the first use of a
// pooled frame on a cold server or in a cold pipeline.Run) gets its three
// arrays at once instead of doubling its way up from nothing: sized at
// the bound when bound and count share a capacity class (bits.Len, the
// class mem.FramePool files frames by) — a count-framed E2SF frame,
// whose bound is its event count, then holds every later frame of that
// stream when the pool lends it again — and at the count otherwise, so
// a bound far above the count (a DSFA bucket of overlapping members)
// costs nothing. An emission that touched nothing leaves such a
// frame's slices nil.
func (a *Accum) Emit(out *Frame, scale float32) {
	if out.H != a.h || out.W != a.w {
		panic(fmt.Sprintf("sparse: Emit into %dx%d frame from %dx%d accumulator", out.H, out.W, a.h, a.w))
	}
	more := a.calls
	if more == 0 {
		return
	}
	a.calls = 0
	n := len(out.Cells)
	if min(cap(out.Cells), cap(out.Pos), cap(out.Neg))-n < more {
		bound := more
		more = a.touched()
		if cap(out.Cells)|cap(out.Pos)|cap(out.Neg) == 0 && bits.Len(uint(bound)) == bits.Len(uint(more)) {
			// Same class: the pool files the frame where it would have
			// anyway, and no later emission of this bound regrows it.
			more = bound
		}
		out.Cells = room(out.Cells, more)
		out.Pos, out.Neg = room(out.Pos, more), room(out.Neg, more)
	}
	cells := out.Cells[:n+more]
	pos, neg := out.Pos[:len(cells)], out.Neg[:len(cells)]
	sum, occ, px, w := a.sum, a.occ, a.px, a.w
	// & 63 tells the compiler the shift count is in range.
	shift := cellShift(w) & 63
	mask := 1<<shift - 1
	for si, s := range sum {
		sum[si] = 0
		for ; s != 0; s &= s - 1 {
			i := si<<6 + bits.TrailingZeros64(s)
			word := occ[i]
			occ[i] = 0
			c0 := i << 6 // cell index of the word's bit 0
			y, x0 := c0>>shift, c0&mask
			row := px[y*w+x0:]
			for ; word != 0; word &= word - 1 {
				x := bits.TrailingZeros64(word)
				c := &row[x]
				cells[n] = int32(c0 + x)
				pos[n], neg[n] = c[0]*scale, c[1]*scale
				*c = [2]float32{}
				n++
			}
		}
	}
	out.Cells, out.Pos, out.Neg = cells[:n], pos[:n], neg[:n]
}

// Merge writes into out (typically a pooled frame, whose slice
// capacity is kept) the per-pixel sums of frames times scale: DSFA's
// bucket sum, scale 1 for cAdd and 1/len(frames) for cAverage. Time
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
		for i := range f.Cells {
			y, x := f.YX(i)
			c := a.Touch(int(y), int(x))
			c[0] += f.Pos[i]
			c[1] += f.Neg[i]
		}
	}
	out.Reset(a.h, a.w, t0, t1)
	a.Emit(out, scale)
}
