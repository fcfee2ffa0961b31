package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// framesBitEqual compares geometry, time bounds, coordinates and the
// float32 bit patterns of both channels.
func framesBitEqual(a, b *Frame) bool {
	if a.H != b.H || a.W != b.W || a.T0 != b.T0 || a.T1 != b.T1 || len(a.Ys) != len(b.Ys) {
		return false
	}
	for i := range a.Ys {
		if a.Ys[i] != b.Ys[i] || a.Xs[i] != b.Xs[i] ||
			math.Float32bits(a.Pos[i]) != math.Float32bits(b.Pos[i]) ||
			math.Float32bits(a.Neg[i]) != math.Float32bits(b.Neg[i]) {
			return false
		}
	}
	return true
}

// checkAccumMerge merges frames through acc at both DSFA scales and
// requires the k-way reference's frame bit for bit, a clean grid
// afterwards, and nothing from a second Emit.
func checkAccumMerge(t *testing.T, acc *Accum, frames []*Frame) {
	t.Helper()
	for _, scale := range []float32{1, 1 / float32(len(frames))} {
		want := referenceMerge(frames, scale)
		got := &Frame{}
		acc.Merge(got, frames, scale)
		if !framesBitEqual(got, want) {
			t.Fatalf("%dx%d, %d members, scale %g: accumulator merge differs from the k-way reference\n got %+v\nwant %+v",
				acc.H(), acc.W(), len(frames), scale, got, want)
		}
		if !acc.Clean() {
			t.Fatalf("%dx%d: grid not clean after Merge", acc.H(), acc.W())
		}
		again := NewFrame(acc.H(), acc.W(), 0, 0)
		acc.Emit(again, 1)
		if len(again.Ys) != 0 {
			t.Fatalf("%dx%d: second Emit produced %d entries", acc.H(), acc.W(), len(again.Ys))
		}
	}
}

// TestAccumMergeMatchesReference is the accumulator's parity property:
// random member sets over the geometries where the bitmap walk could
// go wrong (W < 64, W not a multiple of 64, H > 64, the last row and
// column occupied), with empty members and members built by Frame.Set
// with an unsorted tail and duplicate keys. One accumulator serves
// every trial of a geometry, so a cell or bit left behind by one merge
// shows up in the next.
func TestAccumMergeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for _, g := range [][2]int{{1, 1}, {3, 5}, {7, 63}, {5, 64}, {9, 65}, {70, 130}, {130, 200}, {65, 64}} {
		h, w := g[0], g[1]
		acc := NewAccum(h, w)
		for trial := 0; trial < 40; trial++ {
			frames := make([]*Frame, 1+r.Intn(6))
			for i := range frames {
				f := NewFrame(h, w, r.Int63n(1000), 1000+r.Int63n(1000))
				n := 0
				if r.Intn(4) > 0 { // a quarter of the members are empty
					n = 1 + r.Intn(h*w/2+1)
				}
				for j := 0; j < n; j++ {
					// Random order and repeats: Set leaves an unsorted
					// tail with duplicate keys for the merge to compact.
					f.Set(int32(r.Intn(h)), int32(r.Intn(w)), r.Float32()*4-1, r.Float32()*4-1)
				}
				if r.Intn(2) == 0 {
					f.Set(int32(h-1), int32(w-1), 1, 2)
				}
				frames[i] = f
			}
			checkAccumMerge(t, acc, frames)
		}
	}
}

// TestAccumTouchOverwriteAndZeroCells: a touched cell is emitted even
// when its values are zero (the k-way merge kept such entries too),
// and Touch's cell can be overwritten, not only added to.
func TestAccumTouchOverwriteAndZeroCells(t *testing.T) {
	acc := NewAccum(2, 70)
	acc.Touch(1, 69)[0] = 0.25
	acc.Touch(1, 69)[0] = 0.5
	acc.Touch(0, 64)
	f := NewFrame(2, 70, 0, 1)
	acc.Emit(f, 2)
	want := &Frame{H: 2, W: 70, T1: 1, Ys: []int32{0, 1}, Xs: []int32{64, 69}, Pos: []float32{0, 1}, Neg: []float32{0, 0}}
	if !framesBitEqual(f, want) {
		t.Fatalf("got %+v want %+v", f, want)
	}
}

// TestAccumEmitSizesFreshFrame pins when Emit sizes its output: a
// frame with no backing arrays gets all four slices at exactly the
// touched count (one allocation each, no growth), a frame that brings
// capacity is appended to without a count or an allocation, and an
// empty emission leaves a fresh frame's slices nil.
func TestAccumEmitSizesFreshFrame(t *testing.T) {
	const h, w = 70, 130
	acc := NewAccum(h, w)
	r := rand.New(rand.NewSource(19))
	cells := map[[2]int]bool{{h - 1, w - 1}: true, {0, 0}: true, {64, 64}: true}
	for len(cells) < 777 {
		cells[[2]int{r.Intn(h), r.Intn(w)}] = true
	}
	touch := func() {
		for c := range cells {
			acc.Touch(c[0], c[1])[0]++
		}
	}

	touch()
	fresh := &Frame{H: h, W: w}
	acc.Emit(fresh, 1)
	for name, n := range map[string][2]int{
		"Ys": {len(fresh.Ys), cap(fresh.Ys)}, "Xs": {len(fresh.Xs), cap(fresh.Xs)},
		"Pos": {len(fresh.Pos), cap(fresh.Pos)}, "Neg": {len(fresh.Neg), cap(fresh.Neg)},
	} {
		if n[0] != len(cells) || n[1] != len(cells) {
			t.Fatalf("fresh frame %s: len %d cap %d, want both %d", name, n[0], n[1], len(cells))
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { touch(); acc.Emit(&Frame{H: h, W: w}, 1) }); allocs != 4 {
		t.Fatalf("emission into a fresh frame: %.1f allocations, want 4", allocs)
	}

	// A warm frame with room to spare keeps its arrays.
	warm := NewFrame(h, w, 0, 1)
	warm.Ys, warm.Xs = make([]int32, 0, 1000), make([]int32, 0, 1000)
	warm.Pos, warm.Neg = make([]float32, 0, 1000), make([]float32, 0, 1000)
	if allocs := testing.AllocsPerRun(10, func() { touch(); warm.Reset(h, w, 0, 1); acc.Emit(warm, 1) }); allocs != 0 {
		t.Fatalf("emission into a warm frame: %.1f allocations, want 0", allocs)
	}
	if len(warm.Ys) != len(cells) || cap(warm.Ys) != 1000 || cap(warm.Xs) != 1000 || cap(warm.Pos) != 1000 || cap(warm.Neg) != 1000 {
		t.Fatalf("warm frame: len %d cap %d, want %d entries in the 1000-entry arrays it brought", len(warm.Ys), cap(warm.Ys), len(cells))
	}
	if !framesBitEqual(&Frame{H: h, W: w, Ys: warm.Ys, Xs: warm.Xs, Pos: warm.Pos, Neg: warm.Neg}, fresh) {
		t.Fatal("sized and appended emissions differ")
	}

	empty := &Frame{H: h, W: w}
	acc.Emit(empty, 1)
	if empty.Ys != nil || empty.Xs != nil || empty.Pos != nil || empty.Neg != nil {
		t.Fatalf("empty emission into a fresh frame left non-nil slices: %+v", empty)
	}
}

func TestAccumPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero geometry", func() { NewAccum(0, 4) })
	mustPanic("no frames", func() { NewAccum(2, 2).Merge(&Frame{}, nil, 1) })
	mustPanic("aliased output", func() {
		f := NewFrame(2, 2, 0, 1)
		NewAccum(2, 2).Merge(f, []*Frame{f}, 1)
	})
	mustPanic("emit geometry", func() { NewAccum(2, 2).Emit(NewFrame(2, 3, 0, 1), 1) })
}

// FuzzAccumMerge decodes the input into a geometry and a member set
// (including out-of-order and duplicate Sets) and holds the
// accumulator merge to the k-way reference bit for bit.
func FuzzAccumMerge(f *testing.F) {
	f.Add([]byte{3, 5, 2, 0, 0, 1, 2, 9, 1, 1, 4, 3})
	f.Add([]byte{1, 64, 1, 0, 63, 7, 7, 0, 0, 1, 1})
	f.Add([]byte{70, 65, 3, 69, 64, 200, 100, 255, 0, 64, 1, 1, 255, 69, 64, 3, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		h, w := 1+next()%80, 1+next()%140
		frames := make([]*Frame, 1+next()%5)
		for i := range frames {
			frames[i] = NewFrame(h, w, int64(next()), int64(next()))
		}
		// Each remaining 4-byte record is one Set; 255 in the first byte
		// moves on to the next member instead.
		for fi := 0; len(data) > 0; {
			y := next()
			if y == 255 {
				fi = (fi + 1) % len(frames)
				continue
			}
			x, pos, neg := next(), next(), next()
			frames[fi].Set(int32(y%h), int32(x%w), float32(pos)/8-4, float32(neg)/16)
		}
		checkAccumMerge(t, NewAccum(h, w), frames)
	})
}
