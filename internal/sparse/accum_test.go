package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// framesBitEqual compares geometry, time bounds, decoded coordinates
// and the float32 bit patterns of both channels.
func framesBitEqual(a, b *Frame) bool {
	if a.H != b.H || a.W != b.W || a.T0 != b.T0 || a.T1 != b.T1 || len(a.Cells) != len(b.Cells) {
		return false
	}
	for i := range a.Cells {
		ay, ax := a.YX(i)
		by, bx := b.YX(i)
		if ay != by || ax != bx ||
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
		if len(again.Cells) != 0 {
			t.Fatalf("%dx%d: second Emit produced %d entries", acc.H(), acc.W(), len(again.Cells))
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
	for _, g := range mergeGeometries {
		acc := NewAccum(g[0], g[1])
		for trial := 0; trial < 40; trial++ {
			checkAccumMerge(t, acc, randMembers(r, g[0], g[1]))
		}
	}
}

// mergeGeometries are the grid shapes where the bitmap walk could go
// wrong: W < 64, W not a multiple of 64, H > 64.
var mergeGeometries = [][2]int{{1, 1}, {3, 5}, {7, 63}, {5, 64}, {9, 65}, {70, 130}, {130, 200}, {65, 64}}

// randMembers returns one to six h x w bucket members: a quarter of
// them empty, the rest built by Frame.Set in random order with repeats,
// so each has an unsorted tail with duplicate keys, and half of them
// occupy the last row and column.
func randMembers(r *rand.Rand, h, w int) []*Frame {
	frames := make([]*Frame, 1+r.Intn(6))
	for i := range frames {
		f := NewFrame(h, w, r.Int63n(1000), 1000+r.Int63n(1000))
		n := 0
		if r.Intn(4) > 0 {
			n = 1 + r.Intn(h*w/2+1)
		}
		for j := 0; j < n; j++ {
			f.Set(int32(r.Intn(h)), int32(r.Intn(w)), r.Float32()*4-1, r.Float32()*4-1)
		}
		if r.Intn(2) == 0 {
			f.Set(int32(h-1), int32(w-1), 1, 2)
		}
		frames[i] = f
	}
	return frames
}

// TestAccumUnionCountMatchesMerge is UnionCount's parity property over
// the members of TestAccumMergeMatchesReference: the count equals the
// number of distinct cells and the NNZ of Merge's frame, and it leaves
// every occupancy and summary word zero with no Touch counted, so one
// accumulator serves every trial.
func TestAccumUnionCountMatchesMerge(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, g := range mergeGeometries {
		h, w := g[0], g[1]
		acc := NewAccum(h, w)
		for trial := 0; trial < 40; trial++ {
			frames := randMembers(r, h, w)
			cells := map[[2]int32]bool{}
			for _, f := range frames {
				for i := range f.Cells {
					y, x := f.YX(i)
					cells[[2]int32{y, x}] = true
				}
			}
			n := acc.UnionCount(frames) // before Merge sorts the members
			if n != len(cells) {
				t.Fatalf("%dx%d trial %d: union of %d members counts %d cells, want %d", h, w, trial, len(frames), n, len(cells))
			}
			dirty := func(w uint64) bool { return w != 0 }
			if slices.ContainsFunc(acc.occ, dirty) || slices.ContainsFunc(acc.sum, dirty) || acc.calls != 0 {
				t.Fatalf("%dx%d trial %d: UnionCount left a bitmap word set or counted %d touches", h, w, trial, acc.calls)
			}
			merged := &Frame{}
			acc.Merge(merged, frames, 1)
			if merged.NNZ() != n {
				t.Fatalf("%dx%d trial %d: merge has %d cells, union count %d", h, w, trial, merged.NNZ(), n)
			}
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
	want := NewFrame(2, 70, 0, 1)
	want.Set(0, 64, 0, 0)
	want.Set(1, 69, 1, 0)
	if !framesBitEqual(f, want) {
		t.Fatalf("got %+v want %+v", f, want)
	}
}

// TestAccumEmitSizesFreshFrame pins when Emit sizes its output: a
// frame with no backing arrays gets all three slices at exactly the
// touched count when every cell is touched once (one allocation each,
// no growth; TestAccumEmitFreshFrameTakesBound covers repeated
// touches), a frame that brings
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
		"Cells": {len(fresh.Cells), cap(fresh.Cells)},
		"Pos":   {len(fresh.Pos), cap(fresh.Pos)}, "Neg": {len(fresh.Neg), cap(fresh.Neg)},
	} {
		if n[0] != len(cells) || n[1] != len(cells) {
			t.Fatalf("fresh frame %s: len %d cap %d, want both %d", name, n[0], n[1], len(cells))
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { touch(); acc.Emit(&Frame{H: h, W: w}, 1) }); allocs != 3 {
		t.Fatalf("emission into a fresh frame: %.1f allocations, want 3", allocs)
	}

	// A warm frame with room to spare keeps its arrays.
	warm := NewFrame(h, w, 0, 1)
	warm.Cells = make([]int32, 0, 1000)
	warm.Pos, warm.Neg = make([]float32, 0, 1000), make([]float32, 0, 1000)
	if allocs := testing.AllocsPerRun(10, func() { touch(); warm.Reset(h, w, 0, 1); acc.Emit(warm, 1) }); allocs != 0 {
		t.Fatalf("emission into a warm frame: %.1f allocations, want 0", allocs)
	}
	if len(warm.Cells) != len(cells) || cap(warm.Cells) != 1000 || cap(warm.Pos) != 1000 || cap(warm.Neg) != 1000 {
		t.Fatalf("warm frame: len %d cap %d, want %d entries in the 1000-entry arrays it brought", len(warm.Cells), cap(warm.Cells), len(cells))
	}
	if !framesBitEqual(&Frame{H: h, W: w, Cells: warm.Cells, Pos: warm.Pos, Neg: warm.Neg}, fresh) {
		t.Fatal("sized and appended emissions differ")
	}

	empty := &Frame{H: h, W: w}
	acc.Emit(empty, 1)
	if empty.Cells != nil || empty.Pos != nil || empty.Neg != nil {
		t.Fatalf("empty emission into a fresh frame left non-nil slices: %+v", empty)
	}
}

// TestAccumEmitFreshFrameTakesBound: when cells are touched more than
// once, a fresh frame is sized at the Touch bound if the bound and the
// touched count share a capacity class (bits.Len), so a later emission
// of up to that bound fits without regrowing, and at the touched count
// otherwise. Either way the entries are the same.
func TestAccumEmitFreshFrameTakesBound(t *testing.T) {
	const h, w = 40, 90
	acc := NewAccum(h, w)
	emit := func(distinct, touches int) *Frame {
		for i := 0; i < touches; i++ {
			c := i % distinct
			acc.Touch(c/w, c%w)[i&1] += float32(i)
		}
		f := &Frame{H: h, W: w, T1: 1}
		acc.Emit(f, 0.5)
		if len(f.Cells) != distinct {
			t.Fatalf("%d touches of %d cells emitted %d entries", touches, distinct, len(f.Cells))
		}
		return f
	}
	for _, c := range []struct{ distinct, touches, want int }{
		{184, 225, 225}, // class 8 both: sized at the bound
		{128, 255, 255}, // the class's two ends
		{127, 225, 127}, // count in class 7, bound in 8: the count
		{255, 256, 255}, // bound one class up: the count
		{300, 300, 300}, // no repeats: bound and count agree
		{1000, 3000, 1000},
	} {
		f := emit(c.distinct, c.touches)
		if cap(f.Cells) != c.want || cap(f.Pos) != c.want || cap(f.Neg) != c.want {
			t.Errorf("%d cells touched %d times: capacities %d/%d/%d, want %d",
				c.distinct, c.touches, cap(f.Cells), cap(f.Pos), cap(f.Neg), c.want)
		}
		exact := frameWithCaps(h, w, [3]int{c.distinct, c.distinct, c.distinct})
		for i := 0; i < c.touches; i++ {
			d := i % c.distinct
			acc.Touch(d/w, d%w)[i&1] += float32(i)
		}
		acc.Emit(exact, 0.5)
		if !framesBitEqual(f, exact) {
			t.Errorf("%d cells touched %d times: the bound-sized frame's entries differ", c.distinct, c.touches)
		}
	}
}

// denseMirror is the oracle for Emit: a plain dense copy of what a
// test has put into an Accum, read back with a double loop.
type denseMirror struct {
	h, w int
	cell [][2]float32
	on   []bool
	n    int // cells on
}

func newDenseMirror(h, w int) *denseMirror {
	return &denseMirror{h: h, w: w, cell: make([][2]float32, h*w), on: make([]bool, h*w)}
}

// add touches (y, x) in acc and in the mirror and adds to both.
func (m *denseMirror) add(acc *Accum, y, x int, pos, neg float32) {
	c := acc.Touch(y, x)
	c[0] += pos
	c[1] += neg
	i := y*m.w + x
	if !m.on[i] {
		m.on[i] = true
		m.n++
	}
	m.cell[i][0] += pos
	m.cell[i][1] += neg
}

// checkEmit emits acc into out and requires out's previous entries
// followed by the mirror's dense scan, bit for bit, then a clean grid,
// a zero call counter and nothing from a second Emit. It clears the
// mirror, so one accumulator and one mirror serve many rounds and
// anything an emission leaves behind shows up in the next.
func (m *denseMirror) checkEmit(t testing.TB, acc *Accum, out *Frame, scale float32, label string) {
	t.Helper()
	want := &Frame{H: m.h, W: m.w, T0: out.T0, T1: out.T1,
		Cells: slices.Clone(out.Cells), Pos: slices.Clone(out.Pos), Neg: slices.Clone(out.Neg)}
	for y := 0; y < m.h; y++ {
		for x := 0; x < m.w; x++ {
			if i := y*m.w + x; m.on[i] {
				want.Set(int32(y), int32(x), m.cell[i][0]*scale, m.cell[i][1]*scale)
				m.on[i], m.cell[i] = false, [2]float32{}
			}
		}
	}
	m.n = 0
	acc.Emit(out, scale)
	if !framesBitEqual(out, want) {
		t.Fatalf("%dx%d scale %g, %s: emission differs from the dense scan: got %d entries, want %d", m.h, m.w, scale, label, len(out.Cells), len(want.Cells))
	}
	if !acc.Clean() || acc.calls != 0 {
		t.Fatalf("%dx%d, %s: after Emit Clean() = %v, call counter %d", m.h, m.w, label, acc.Clean(), acc.calls)
	}
	acc.Emit(out, scale)
	if len(out.Cells) != len(want.Cells) {
		t.Fatalf("%dx%d, %s: second Emit appended %d entries", m.h, m.w, label, len(out.Cells)-len(want.Cells))
	}
}

// frameWithCaps returns an empty h x w frame whose three channel
// slices have the given capacities; a capacity of zero or less is a
// slice with no backing array.
func frameWithCaps(h, w int, c [3]int) *Frame {
	f := &Frame{H: h, W: w, T1: 1}
	if c[0] > 0 {
		f.Cells = make([]int32, 0, c[0])
	}
	if c[1] > 0 {
		f.Pos = make([]float32, 0, c[1])
	}
	if c[2] > 0 {
		f.Neg = make([]float32, 0, c[2])
	}
	return f
}

// TestAccumEmitMatchesDenseScan is Emit's parity property at the word
// boundaries: widths either side of 64, grids of more than one
// summary word, a summary word straddling two rows and a padded row
// stride (wide and narrow), from empty to every cell, into every kind
// of output frame the reservation step tells apart.
func TestAccumEmitMatchesDenseScan(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, g := range [][2]int{{1, 1}, {3, 63}, {2, 64}, {5, 65}, {70, 130}, {65, 4097}, {260, 346}} {
		h, w := g[0], g[1]
		acc, m := NewAccum(h, w), newDenseMirror(h, w)
		// scatter touches about frac of the cells at random: repeats add
		// up, and a quarter of the touches leave their cell zero.
		scatter := func(frac float64) func() {
			return func() {
				for i := 0; i < 1+int(frac*float64(h*w)); i++ {
					v := float32(r.Intn(4))
					m.add(acc, r.Intn(h), r.Intn(w), v*r.Float32(), v)
				}
			}
		}
		fills := []struct {
			name string
			fill func()
		}{
			{"none", func() {}},
			{"one", func() { m.add(acc, r.Intn(h), r.Intn(w), 1, 0) }},
			{"last", func() { m.add(acc, h-1, w-1, 0, 2) }},
			{"0.3%", scatter(0.003)},
			{"10%", scatter(0.1)},
			{"every", func() {
				for i := 0; i < h*w; i++ {
					m.add(acc, i/w, i%w, r.Float32(), -r.Float32())
				}
			}},
		}
		// Output frames by capacity relative to the n cells on: no
		// arrays, exact, one short, three unequal ones.
		capacities := []func(n int) [3]int{
			func(int) [3]int { return [3]int{} },
			func(n int) [3]int { return [3]int{n, n, n} },
			func(n int) [3]int { return [3]int{n - 1, n - 1, n - 1} },
			func(n int) [3]int { return [3]int{n - 1, n + 3, 2 * n} },
		}
		for _, f := range fills {
			for _, scale := range []float32{1, 1.0 / 3} {
				for _, caps := range capacities {
					f.fill()
					c := caps(m.n)
					m.checkEmit(t, acc, frameWithCaps(h, w, c), scale, fmt.Sprintf("cells %s, capacities %v", f.name, c))
				}
				// A sorted prefix before the first touched cell stays in
				// place; with (0, 0) touched there is no room for one.
				f.fill()
				out := NewFrame(h, w, 0, 1)
				if !m.on[0] {
					out.Set(0, 0, 9, 8)
				}
				m.checkEmit(t, acc, out, scale, "cells "+f.name+", prefixed frame")
			}
		}
	}
}

// TestAccumEmitReservesOnce pins the reservation step's allocations:
// none into a frame with room, and into a pooled frame one entry short
// at most one growth per slice — not a doubling chain inside the walk.
// (TestAccumEmitSizesFreshFrame pins the fresh frame's exactly three.)
func TestAccumEmitReservesOnce(t *testing.T) {
	const h, w, n = 70, 130, 500
	acc := NewAccum(h, w)
	touch := func() {
		for i := 0; i < n; i++ {
			acc.Touch(i*17%h, i%w)[1]++
		}
	}
	out := &Frame{H: h, W: w}
	touch()
	acc.Emit(out, 1)
	if len(out.Cells) != n {
		t.Fatalf("%d cells emitted, want %d distinct", len(out.Cells), n)
	}
	if allocs := testing.AllocsPerRun(10, func() { touch(); out.Reset(h, w, 0, 1); acc.Emit(out, 1) }); allocs != 0 {
		t.Fatalf("emission into a frame of exactly enough room: %.1f allocations, want 0", allocs)
	}
	frames := make([]*Frame, 11) // AllocsPerRun's warm-up call and its 10 runs
	for i := range frames {
		frames[i] = frameWithCaps(h, w, [3]int{n - 1, n - 1, n - 1})
	}
	i := 0
	if allocs := testing.AllocsPerRun(10, func() { touch(); acc.Emit(frames[i], 1); i++ }); allocs > 3 {
		t.Fatalf("emission into a frame one entry short: %.1f allocations, want at most 3", allocs)
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
	mustPanic("union geometry", func() { NewAccum(2, 2).UnionCount([]*Frame{NewFrame(3, 2, 0, 1)}) })
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

// FuzzAccumEmit decodes the input into a geometry of at most 4 Kpx,
// three starting capacities, a scale and a touch list, and holds Emit
// to the dense scan of TestAccumEmitMatchesDenseScan — twice, so the
// second round runs on whatever the first left in the grid.
func FuzzAccumEmit(f *testing.F) {
	// testdata/fuzz/FuzzAccumEmit holds the word-boundary seeds: width
	// 64 touched at both row ends, width 65 (a one-bit second word) and
	// height 65 (a second summary word on a padded stride).
	f.Add([]byte{})
	f.Add([]byte{63, 0, 2, 0, 0, 0, 0, 0}) // 3x64, nothing touched
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		w := 1 + (next()|next()<<8)%4096
		h := 1 + next()%(4096/w)
		caps := [3]int{next(), next(), next()}
		next() // a fourth capacity byte, kept so the committed seeds decode as they were written
		scale := []float32{1, 1.0 / 3, 0, -2}[next()%4]
		acc, m := NewAccum(h, w), newDenseMirror(h, w)
		out := frameWithCaps(h, w, caps)
		for round := 0; round < 2; round++ {
			// Each 4-byte record is one touch; the second round replays
			// the first half of the list into the frame the first grew.
			for rec := data[:len(data)/(round+1)]; len(rec) >= 4; rec = rec[4:] {
				m.add(acc, int(rec[0])%h, (int(rec[1])|int(rec[2])<<8)%w, float32(rec[3])/8-4, float32(rec[3])/16)
			}
			out.Reset(h, w, 0, 1)
			m.checkEmit(t, acc, out, scale, fmt.Sprintf("round %d, capacities %v", round, caps))
		}
	})
}
