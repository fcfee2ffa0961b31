package sparse

import (
	"math/rand"
	"reflect"
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
			if !reflect.DeepEqual(f.Ys, ref.ys) || !reflect.DeepEqual(f.Xs, ref.xs) ||
				!reflect.DeepEqual(f.Pos, ref.pos) || !reflect.DeepEqual(f.Neg, ref.neg) {
				t.Fatalf("trial %d: frame state diverged from sorted-insert reference\n got ys=%v xs=%v pos=%v neg=%v\nwant ys=%v xs=%v pos=%v neg=%v",
					trial, f.Ys, f.Xs, f.Pos, f.Neg, ref.ys, ref.xs, ref.pos, ref.neg)
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
		Ys:  []int32{2, 0},
		Xs:  []int32{0, 0},
		Pos: []float32{1, 1},
		Neg: []float32{0, 0},
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
