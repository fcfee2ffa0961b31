package sparse

import (
	"fmt"
	"sort"
)

// Frame is a two-channel sparse event frame in coordinate (COO-like)
// form, exactly as produced by the paper's Event2Sparse Frame
// converter: row indices, column indices, and the accumulated positive
// and negative polarity counts stored as separate channels. Only
// pixels with at least one event appear.
//
// Entries are kept sorted by (Y, X) so frames can be merged with a
// linear pass.
type Frame struct {
	H, W int
	Ys   []int32
	Xs   []int32
	Pos  []float32 // accumulated positive-polarity events per pixel
	Neg  []float32 // accumulated negative-polarity events per pixel

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
	f.Ys = f.Ys[:0]
	f.Xs = f.Xs[:0]
	f.Pos = f.Pos[:0]
	f.Neg = f.Neg[:0]
	f.unsorted = 0
}

// NNZ returns the number of stored (active) pixels.
func (f *Frame) NNZ() int { f.ensureSorted(); return len(f.Ys) }

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

// Validate checks the structural invariants: coordinates in bounds,
// entries sorted by (Y, X) with no duplicates, and no all-zero entries.
func (f *Frame) Validate() error {
	f.ensureSorted()
	if len(f.Ys) != len(f.Xs) || len(f.Ys) != len(f.Pos) || len(f.Ys) != len(f.Neg) {
		return fmt.Errorf("sparse: frame channel lengths differ: %d %d %d %d",
			len(f.Ys), len(f.Xs), len(f.Pos), len(f.Neg))
	}
	for i := range f.Ys {
		if f.Ys[i] < 0 || int(f.Ys[i]) >= f.H || f.Xs[i] < 0 || int(f.Xs[i]) >= f.W {
			return fmt.Errorf("sparse: frame entry %d at (%d,%d) outside %dx%d",
				i, f.Ys[i], f.Xs[i], f.H, f.W)
		}
		if f.Pos[i] == 0 && f.Neg[i] == 0 {
			return fmt.Errorf("sparse: frame entry %d is all-zero", i)
		}
		if i > 0 {
			prev, cur := f.key(i-1), f.key(i)
			if cur <= prev {
				return fmt.Errorf("sparse: frame entries not strictly sorted at %d", i)
			}
		}
	}
	return nil
}

func (f *Frame) key(i int) int64 { return int64(f.Ys[i])*int64(f.W) + int64(f.Xs[i]) }

// Set inserts or overwrites the entry at (y, x). In-place overwrites
// of already-sorted entries and in-order appends are O(log n) / O(1);
// out-of-order inserts append to an unsorted tail that is compacted
// with one sort on the next order-dependent read, so building a frame
// of n scattered Sets costs O(n log n) total instead of the old
// sorted-insert's O(n^2). Bulk counting construction goes through
// Accum, as the fused E2SF kernel does.
func (f *Frame) Set(y, x int32, pos, neg float32) {
	k := int64(y)*int64(f.W) + int64(x)
	if f.unsorted == 0 {
		n := len(f.Ys)
		if n == 0 || f.key(n-1) < k {
			// In-order append keeps the frame sorted for free.
			f.Ys = append(f.Ys, y)
			f.Xs = append(f.Xs, x)
			f.Pos = append(f.Pos, pos)
			f.Neg = append(f.Neg, neg)
			return
		}
		i := sort.Search(n, func(i int) bool { return f.key(i) >= k })
		if i < n && f.key(i) == k {
			f.Pos[i], f.Neg[i] = pos, neg
			return
		}
	}
	// Out-of-order (or already dirty): append to the unsorted tail.
	// Duplicates are resolved last-wins at compaction, matching the
	// old overwrite semantics.
	f.Ys = append(f.Ys, y)
	f.Xs = append(f.Xs, x)
	f.Pos = append(f.Pos, pos)
	f.Neg = append(f.Neg, neg)
	f.unsorted++
}

// ensureSorted compacts the unsorted tail Set may have left: one
// stable sort over all entries, then a sweep keeping the last write
// per duplicate key. No-op (one integer compare) when clean.
func (f *Frame) ensureSorted() {
	if f.unsorted == 0 {
		return
	}
	n := len(f.Ys)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return f.key(perm[a]) < f.key(perm[b]) })
	ys := make([]int32, 0, n)
	xs := make([]int32, 0, n)
	pos := make([]float32, 0, n)
	neg := make([]float32, 0, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && f.key(perm[j+1]) == f.key(perm[i]) {
			j++
		}
		// Stable sort keeps duplicates in insertion order; the last one
		// is the surviving write.
		p := perm[j]
		ys = append(ys, f.Ys[p])
		xs = append(xs, f.Xs[p])
		pos = append(pos, f.Pos[p])
		neg = append(neg, f.Neg[p])
		i = j + 1
	}
	f.Ys, f.Xs, f.Pos, f.Neg = ys, xs, pos, neg
	f.unsorted = 0
}

// Get returns the (pos, neg) accumulation at (y, x), zeroes if absent.
func (f *Frame) Get(y, x int32) (pos, neg float32) {
	f.ensureSorted()
	k := int64(y)*int64(f.W) + int64(x)
	i := sort.Search(len(f.Ys), func(i int) bool { return f.key(i) >= k })
	if i < len(f.Ys) && f.key(i) == k {
		return f.Pos[i], f.Neg[i]
	}
	return 0, 0
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	f.ensureSorted()
	out := &Frame{H: f.H, W: f.W, T0: f.T0, T1: f.T1}
	out.Ys = append([]int32(nil), f.Ys...)
	out.Xs = append([]int32(nil), f.Xs...)
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
	for i := range f.Ys {
		t.Set(0, int(f.Ys[i]), int(f.Xs[i]), f.Pos[i])
		t.Set(1, int(f.Ys[i]), int(f.Xs[i]), f.Neg[i])
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
				f.Ys = append(f.Ys, int32(y))
				f.Xs = append(f.Xs, int32(x))
				f.Pos = append(f.Pos, p)
				f.Neg = append(f.Neg, n)
			}
		}
	}
	return f, nil
}
