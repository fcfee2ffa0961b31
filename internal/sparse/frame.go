package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Frame is a two-channel sparse event frame in coordinate (COO-like)
// form, exactly as produced by the paper's Event2Sparse Frame
// converter: one cell index per active pixel and the accumulated
// positive and negative polarity counts stored as separate channels.
// Only pixels with at least one event appear.
//
// A cell index is y<<cellShift(W) | x: the row stride is W rounded up
// to a power of two, at least 64, which is exactly Accum's occupancy
// bit index, so Emit stores the bit it walks as it is. Index order is
// (y, x) order, entries are kept sorted by it so frames can be merged
// with a linear pass, and YX decodes an entry with a shift and a mask.
type Frame struct {
	H, W  int
	Cells []int32   // y<<cellShift(W) | x per entry
	Pos   []float32 // accumulated positive-polarity events per pixel
	Neg   []float32 // accumulated negative-polarity events per pixel

	// T0 and T1 bound the time interval (microseconds) whose events
	// were accumulated into the frame. DSFA uses T0 as the frame's
	// generation time when checking the merge-delay threshold.
	T0, T1 int64

	// unsorted counts entries Set appended past the sorted prefix;
	// ensureSorted compacts them lazily before any order-dependent
	// read. Only Set raises it, so frames assembled by direct slice
	// construction (Accum.Emit, the fused E2SF kernel) are still
	// strictly validated — Validate must keep rejecting unsorted
	// foreign data.
	unsorted int
}

// cellShift returns the row shift of a w-wide frame's cell index: the
// bit length of w-1, at least 6, so a row spans whole 64-bit
// occupancy words.
func cellShift(w int) int { return max(6, bits.Len(uint(w-1))) }

// CellsFit reports whether every cell index of an h x w geometry fits
// in an int32: h<<cellShift(w) must not exceed math.MaxInt32. The
// dense grid, h*w cells, is never larger.
func CellsFit(h, w int) bool {
	s := cellShift(w)
	return h > 0 && w > 0 && s < 31 && h <= math.MaxInt32>>s
}

// NewFrame returns an empty sparse frame with the given geometry and
// time bounds.
func NewFrame(h, w int, t0, t1 int64) *Frame {
	return &Frame{H: h, W: w, T0: t0, T1: t1}
}

// Reset re-initializes the frame to the given geometry and time
// bounds with zero entries, keeping the channel slices' capacity —
// the pooled-construction twin of NewFrame.
func (f *Frame) Reset(h, w int, t0, t1 int64) {
	f.H, f.W, f.T0, f.T1 = h, w, t0, t1
	f.Cells = f.Cells[:0]
	f.Pos = f.Pos[:0]
	f.Neg = f.Neg[:0]
	f.unsorted = 0
}

// YX decodes entry i's cell index into its row and column.
func (f *Frame) YX(i int) (y, x int32) {
	s := cellShift(f.W)
	c := f.Cells[i]
	return c >> s, c & (1<<s - 1)
}

// NNZ returns the number of stored (active) pixels.
func (f *Frame) NNZ() int { f.ensureSorted(); return len(f.Cells) }

// Density returns NNZ / (H*W): the fraction of active pixels, i.e. the
// spatial density the paper plots in Figures 1 and 3.
func (f *Frame) Density() float64 {
	if f.H*f.W == 0 {
		return 0
	}
	return float64(f.NNZ()) / float64(f.H*f.W)
}

// EventCount returns the total number of events accumulated into the
// frame (sum of positive and negative counts).
func (f *Frame) EventCount() float64 {
	f.ensureSorted()
	var s float64
	for i := range f.Pos {
		s += float64(f.Pos[i]) + float64(f.Neg[i])
	}
	return s
}

// Validate checks the structural invariants: cells in bounds, entries
// sorted by (y, x) with no duplicates, and no all-zero entries.
func (f *Frame) Validate() error {
	f.ensureSorted()
	if len(f.Cells) != len(f.Pos) || len(f.Cells) != len(f.Neg) {
		return fmt.Errorf("sparse: frame channel lengths differ: %d %d %d",
			len(f.Cells), len(f.Pos), len(f.Neg))
	}
	for i := range f.Cells {
		if y, x := f.YX(i); y < 0 || int(y) >= f.H || int(x) >= f.W {
			return fmt.Errorf("sparse: frame entry %d at (%d,%d) outside %dx%d",
				i, y, x, f.H, f.W)
		}
		if f.Pos[i] == 0 && f.Neg[i] == 0 {
			return fmt.Errorf("sparse: frame entry %d is all-zero", i)
		}
		if i > 0 && f.Cells[i] <= f.Cells[i-1] {
			return fmt.Errorf("sparse: frame entries not strictly sorted at %d", i)
		}
	}
	return nil
}

// cell returns the cell index of (y, x), or false when the pixel lies
// outside the frame.
func (f *Frame) cell(y, x int32) (int32, bool) {
	if y < 0 || int(y) >= f.H || x < 0 || int(x) >= f.W {
		return 0, false
	}
	return y<<cellShift(f.W) | x, true
}

// Set inserts or overwrites the entry at (y, x). In-place overwrites
// of already-sorted entries and in-order appends are O(log n) / O(1);
// out-of-order inserts append to an unsorted tail that is compacted
// with one sort on the next order-dependent read, so building a frame
// of n scattered Sets costs O(n log n) total instead of the old
// sorted-insert's O(n^2). Bulk counting construction goes through
// Accum, as the fused E2SF kernel does. Panics on a pixel outside the
// frame.
func (f *Frame) Set(y, x int32, pos, neg float32) {
	k, ok := f.cell(y, x)
	if !ok {
		panic(fmt.Sprintf("sparse: Set (%d,%d) outside %dx%d frame", y, x, f.H, f.W))
	}
	if f.unsorted == 0 {
		n := len(f.Cells)
		if n == 0 || f.Cells[n-1] < k {
			// In-order append keeps the frame sorted for free.
			f.Cells = append(f.Cells, k)
			f.Pos = append(f.Pos, pos)
			f.Neg = append(f.Neg, neg)
			return
		}
		i, found := slices.BinarySearch(f.Cells, k)
		if found {
			f.Pos[i], f.Neg[i] = pos, neg
			return
		}
	}
	// Out-of-order (or already dirty): append to the unsorted tail.
	// Duplicates are resolved last-wins at compaction, matching the
	// old overwrite semantics.
	f.Cells = append(f.Cells, k)
	f.Pos = append(f.Pos, pos)
	f.Neg = append(f.Neg, neg)
	f.unsorted++
}

// ensureSorted compacts the unsorted tail Set may have left: one
// stable sort over all entries, then a sweep keeping the last write
// per duplicate cell. No-op (one integer compare) when clean.
func (f *Frame) ensureSorted() {
	if f.unsorted == 0 {
		return
	}
	n := len(f.Cells)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return f.Cells[perm[a]] < f.Cells[perm[b]] })
	cells := make([]int32, 0, n)
	pos := make([]float32, 0, n)
	neg := make([]float32, 0, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && f.Cells[perm[j+1]] == f.Cells[perm[i]] {
			j++
		}
		// Stable sort keeps duplicates in insertion order; the last one
		// is the surviving write.
		p := perm[j]
		cells = append(cells, f.Cells[p])
		pos = append(pos, f.Pos[p])
		neg = append(neg, f.Neg[p])
		i = j + 1
	}
	f.Cells, f.Pos, f.Neg = cells, pos, neg
	f.unsorted = 0
}

// Get returns the (pos, neg) accumulation at (y, x), zeroes if absent
// or outside the frame.
func (f *Frame) Get(y, x int32) (pos, neg float32) {
	f.ensureSorted()
	k, ok := f.cell(y, x)
	if !ok {
		return 0, 0
	}
	if i, found := slices.BinarySearch(f.Cells, k); found {
		return f.Pos[i], f.Neg[i]
	}
	return 0, 0
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	f.ensureSorted()
	out := &Frame{H: f.H, W: f.W, T0: f.T0, T1: f.T1}
	out.Cells = append([]int32(nil), f.Cells...)
	out.Pos = append([]float32(nil), f.Pos...)
	out.Neg = append([]float32(nil), f.Neg...)
	return out
}

// DenseInto expands the frame into a caller-supplied (possibly
// pooled) 2 x H x W tensor (channel 0 = positive, channel 1 =
// negative) — the "event frame" representation the baselines feed to
// dense kernels — zeroing it first. Panics on shape mismatch: pooled
// tensors are fetched by shape, so a mismatch is a wiring bug, not
// data.
func (f *Frame) DenseInto(t *Tensor) {
	if t.C != 2 || t.H != f.H || t.W != f.W {
		panic(fmt.Sprintf("sparse: DenseInto tensor %dx%dx%d != frame 2x%dx%d", t.C, t.H, t.W, f.H, f.W))
	}
	f.ensureSorted()
	t.Zero()
	for i := range f.Cells {
		y, x := f.YX(i)
		t.Set(0, int(y), int(x), f.Pos[i])
		t.Set(1, int(y), int(x), f.Neg[i])
	}
}

// FromDense converts a dense 2 x H x W tensor into a sparse frame,
// keeping pixels where either channel is nonzero. This models the
// encode step whose overhead E2SF avoids; its cost is proportional to
// H*W (a full scan), which the perf model charges to the baseline.
func FromDense(t *Tensor, t0, t1 int64) (*Frame, error) {
	if t.C != 2 {
		return nil, fmt.Errorf("sparse: FromDense needs 2 channels, got %d", t.C)
	}
	f := NewFrame(t.H, t.W, t0, t1)
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			p, n := t.At(0, y, x), t.At(1, y, x)
			if p != 0 || n != 0 {
				f.Set(int32(y), int32(x), p, n)
			}
		}
	}
	return f, nil
}
