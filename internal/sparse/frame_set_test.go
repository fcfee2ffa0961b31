package sparse

import (
	"cmp"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// oldSetFrame is the reference implementation of Frame.Set before the
// deferred-sort change: a sorted insert that keeps the coordinate
// slices ordered after every call, overwriting duplicates in place.
type oldSetFrame struct {
	h, w     int
	ys, xs   []int32
	pos, neg []float32
}

func (f *oldSetFrame) set(y, x int32, pos, neg float32) {
	k := int64(y)*int64(f.w) + int64(x)
	i := sort.Search(len(f.ys), func(i int) bool {
		return int64(f.ys[i])*int64(f.w)+int64(f.xs[i]) >= k
	})
	if i < len(f.ys) && f.ys[i] == y && f.xs[i] == x {
		f.pos[i], f.neg[i] = pos, neg
		return
	}
	f.ys = append(f.ys, 0)
	f.xs = append(f.xs, 0)
	f.pos = append(f.pos, 0)
	f.neg = append(f.neg, 0)
	copy(f.ys[i+1:], f.ys[i:])
	copy(f.xs[i+1:], f.xs[i:])
	copy(f.pos[i+1:], f.pos[i:])
	copy(f.neg[i+1:], f.neg[i:])
	f.ys[i], f.xs[i], f.pos[i], f.neg[i] = y, x, pos, neg
}

// TestFrameSetMatchesSortedInsert drives random Set sequences (with a
// heavy duplicate rate) through both implementations and requires the
// observable frame state — ordering, values, Validate — to match.
func TestFrameSetMatchesSortedInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		h := 1 + rng.Intn(6)
		w := 1 + rng.Intn(6)
		f := NewFrame(h, w, 0, 1000)
		ref := &oldSetFrame{h: h, w: w}
		nOps := rng.Intn(60)
		for op := 0; op < nOps; op++ {
			y, x := int32(rng.Intn(h)), int32(rng.Intn(w))
			pos, neg := rng.Float32()*5, rng.Float32()*5
			f.Set(y, x, pos, neg)
			ref.set(y, x, pos, neg)

			// Interleave reads sometimes: reads must observe the
			// compacted state mid-sequence too.
			if rng.Intn(4) == 0 {
				gp, gn := f.Get(y, x)
				if gp != pos || gn != neg {
					t.Fatalf("trial %d: Get(%d,%d) = (%v,%v), want (%v,%v)", trial, y, x, gp, gn, pos, neg)
				}
			}
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("trial %d: Validate after %d ops: %v", trial, nOps, err)
		}
		if f.NNZ() != len(ref.ys) {
			t.Fatalf("trial %d: NNZ = %d, want %d", trial, f.NNZ(), len(ref.ys))
		}
		if len(ref.ys) > 0 {
			ys, xs := make([]int32, len(f.Cells)), make([]int32, len(f.Cells))
			for i := range f.Cells {
				ys[i], xs[i] = f.YX(i)
			}
			if !reflect.DeepEqual(ys, ref.ys) || !reflect.DeepEqual(xs, ref.xs) ||
				!reflect.DeepEqual(f.Pos, ref.pos) || !reflect.DeepEqual(f.Neg, ref.neg) {
				t.Fatalf("trial %d: frame state diverged from sorted-insert reference\n got ys=%v xs=%v pos=%v neg=%v\nwant ys=%v xs=%v pos=%v neg=%v",
					trial, ys, xs, f.Pos, f.Neg, ref.ys, ref.xs, ref.pos, ref.neg)
			}
		}
	}
}

// TestFrameSetLastWriteWins pins the duplicate-coordinate semantics the
// deferred sort must preserve: the most recent Set for a coordinate is
// the value observed, even before any read forces compaction.
func TestFrameSetLastWriteWins(t *testing.T) {
	f := NewFrame(4, 4, 0, 10)
	f.Set(2, 2, 1, 1)
	f.Set(0, 1, 2, 2) // out of order: goes to the unsorted tail
	f.Set(2, 2, 3, 4) // duplicate of a sorted entry, after tail started
	f.Set(0, 1, 5, 6) // duplicate of a tail entry
	if p, n := f.Get(2, 2); p != 3 || n != 4 {
		t.Fatalf("Get(2,2) = (%v,%v), want (3,4)", p, n)
	}
	if p, n := f.Get(0, 1); p != 5 || n != 6 {
		t.Fatalf("Get(0,1) = (%v,%v), want (5,6)", p, n)
	}
	if f.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", f.NNZ())
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestValidateStillRejectsUnsortedWireData guards the invariant
// Validate's callers rely on: frames assembled by direct slice construction
// (not via Set) must still fail Validate when out of order — the
// deferred-sort machinery must not silently repair foreign data.
func TestValidateStillRejectsUnsortedWireData(t *testing.T) {
	f := &Frame{H: 4, W: 4, T0: 0, T1: 1,
		Cells: []int32{2 << 6, 0}, // (2, 0) before (0, 0)
		Pos:   []float32{1, 1},
		Neg:   []float32{0, 0},
	}
	if err := f.Validate(); err == nil {
		t.Fatalf("Validate accepted out-of-order direct-constructed frame")
	}
}

// TestFrameSetInOrderAppendIsZeroAllocAtCapacity verifies the fast
// path: in-order Sets into a frame with spare capacity do not allocate.
func TestFrameSetInOrderAppendIsZeroAllocAtCapacity(t *testing.T) {
	f := NewFrame(64, 64, 0, 1)
	for y := int32(0); y < 64; y++ {
		f.Set(y, 0, 1, 1)
	}
	f.Reset(64, 64, 0, 1)
	n := testing.AllocsPerRun(100, func() {
		f.Reset(64, 64, 0, 1)
		for y := int32(0); y < 64; y++ {
			f.Set(y, 0, 1, 1)
		}
	})
	if n != 0 {
		t.Fatalf("in-order Set at capacity allocates %.1f allocs/op, want 0", n)
	}
}

// cellWidths straddle the edges of the cell index's row stride: one
// word (1, 63, 64), the first padded stride (65, 127, 128), the next
// (129, 173 — the half-scale sensor) and the full-scale 346.
var cellWidths = []int{1, 63, 64, 65, 127, 128, 129, 173, 346}

// FuzzFrameCells builds a frame by Set over a geometry of one of
// cellWidths and a map of (y, x) to the last counts set there, and
// holds Get, Validate, NNZ, the (y, x) order YX decodes, a Clone and
// DenseInto to the map.
func FuzzFrameCells(f *testing.F) {
	for i := range cellWidths {
		f.Add([]byte{byte(i), 69, 0, 0, 0, 1, 69, 255, 1, 2, 3, 4, 5, 6, 7, 8})
	}
	f.Add([]byte{8, 3, 2, 89, 1, 7, 2, 89, 1, 9, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		w := cellWidths[next()%len(cellWidths)]
		h := 1 + next()%70
		fr := NewFrame(h, w, 0, 1)
		ref := map[[2]int32][2]float32{}
		// Each 4-byte record sets one pixel: y, x (two bytes), counts.
		for len(data) >= 4 {
			y, x := int32(next()%h), int32((next()|next()<<8)%w)
			v := next()
			c := [2]float32{float32(v & 15), float32(v>>4) + 0.5}
			fr.Set(y, x, c[0], c[1])
			ref[[2]int32{y, x}] = c
		}
		keys := slices.SortedFunc(maps.Keys(ref), func(a, b [2]int32) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		for _, g := range []*Frame{fr, fr.Clone()} {
			if err := g.Validate(); err != nil {
				t.Fatalf("%dx%d: %v", h, w, err)
			}
			if g.NNZ() != len(ref) {
				t.Fatalf("%dx%d: NNZ %d, want %d", h, w, g.NNZ(), len(ref))
			}
			for i, k := range keys {
				if y, x := g.YX(i); y != k[0] || x != k[1] || g.Pos[i] != ref[k][0] || g.Neg[i] != ref[k][1] {
					t.Fatalf("%dx%d: entry %d = (%d,%d,%v,%v), want (%d,%d,%v)", h, w, i, y, x, g.Pos[i], g.Neg[i], k[0], k[1], ref[k])
				}
			}
			d := dense(g)
			for y := range int32(h) {
				for x := range int32(w) {
					want := ref[[2]int32{y, x}]
					if p, n := g.Get(y, x); p != want[0] || n != want[1] {
						t.Fatalf("%dx%d: Get(%d,%d) = (%v,%v), want %v", h, w, y, x, p, n, want)
					}
					if p, n := d.At(0, int(y), int(x)), d.At(1, int(y), int(x)); p != want[0] || n != want[1] {
						t.Fatalf("%dx%d: dense (%d,%d) = (%v,%v), want %v", h, w, y, x, p, n, want)
					}
				}
			}
			for _, out := range [][2]int32{{-1, 0}, {int32(h), 0}, {0, -1}, {0, int32(w)}} {
				if p, n := g.Get(out[0], out[1]); p != 0 || n != 0 {
					t.Fatalf("%dx%d: Get%v outside the frame = (%v,%v)", h, w, out, p, n)
				}
			}
		}
	})
}
