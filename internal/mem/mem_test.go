package mem

import (
	"runtime"
	"testing"

	"evedge/internal/sparse"
)

func TestFramePoolReuse(t *testing.T) {
	p := NewFramePool()
	f := p.Get(4, 6, 10, 20, 0)
	if f.H != 4 || f.W != 6 || f.T0 != 10 || f.T1 != 20 {
		t.Fatalf("Get geometry = %dx%d [%d,%d)", f.H, f.W, f.T0, f.T1)
	}
	f.Set(1, 2, 3, 4)
	p.Put(f)
	g := p.Get(8, 8, 30, 40, 0)
	if g != f {
		t.Fatalf("expected recycled frame pointer")
	}
	if g.H != 8 || g.W != 8 || g.T0 != 30 || g.T1 != 40 || g.NNZ() != 0 {
		t.Fatalf("recycled frame not reset: %dx%d nnz=%d", g.H, g.W, g.NNZ())
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.News != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Live() != 1 {
		t.Fatalf("live = %d", st.Live())
	}
}

// sized returns a free-standing frame with room for n entries.
func sized(n int) *sparse.Frame {
	f := sparse.NewFrame(1, 1, 0, 1)
	f.Cells = make([]int32, 0, n)
	f.Pos, f.Neg = make([]float32, 0, n), make([]float32, 0, n)
	return f
}

// TestFramePoolReuseBySize: Get lends the most recently returned frame
// of the smallest capacity class whose every frame holds the entries
// asked for, else of the largest class below — and any free frame
// serves a Get, so only an empty pool allocates.
func TestFramePoolReuseBySize(t *testing.T) {
	p := NewFramePool()
	none, one, three, four, big, big2 := sized(0), sized(1), sized(3), sized(4), sized(1000), sized(1023)
	for _, f := range []*sparse.Frame{none, one, three, four, big, big2} {
		p.Put(f)
	}
	for _, c := range []struct {
		entries int
		want    *sparse.Frame
		what    string
	}{
		{3, four, "3 entries: class [4, 8), not [2, 4) whose 2-frames would not hold them"},
		{0, none, "no entries: the smallest frame"},
		{1, one, "1 entry: class [1, 2)"},
		{600, big2, "600 entries: no class from [1024, 2048) up, so the most recently returned of [512, 1024)"},
		{5000, big, "5000 entries: none holds them, the largest class below"},
		{5000, three, "5000 entries again: the largest class left"},
	} {
		if got := p.Get(1, 1, 0, 1, c.entries); got != c.want {
			t.Fatalf("%s: got a frame with room for %d", c.what, cap(got.Cells))
		}
	}
	if st := p.Stats(); st.Gets != 6 || st.News != 0 {
		t.Fatalf("stats = %+v: six Gets over six free frames must all hit", st)
	}
	if f := p.Get(1, 1, 0, 1, 1); f == nil || p.Stats().News != 1 {
		t.Fatalf("Get from an empty pool did not allocate: %+v", p.Stats())
	}
}

func TestFramePoolDoubleReleasePanics(t *testing.T) {
	p := NewFramePool()
	f := p.Get(2, 2, 0, 1, 0)
	p.Put(f)
	defer func() {
		if recover() == nil {
			t.Fatalf("double Put did not panic")
		}
	}()
	p.Put(f)
}

func TestFramePoolNilPutPanics(t *testing.T) {
	p := NewFramePool()
	defer func() {
		if recover() == nil {
			t.Fatalf("nil Put did not panic")
		}
	}()
	p.Put(nil)
}

// TestAccumPoolReuseByGeometry: grids are keyed by geometry, the most
// recently returned match is the one lent next, and a miss allocates.
func TestAccumPoolReuseByGeometry(t *testing.T) {
	p := NewFramePool()
	a, b := p.GetAccum(4, 6), p.GetAccum(4, 6)
	c := p.GetAccum(6, 4)
	if a == b {
		t.Fatal("two live borrows share a grid")
	}
	p.PutAccum(a)
	p.PutAccum(c)
	p.PutAccum(b)
	if got := p.GetAccum(6, 4); got != c {
		t.Fatal("6x4 borrow did not get the 6x4 grid back")
	}
	if got := p.GetAccum(4, 6); got != b {
		t.Fatal("4x6 borrow did not get the most recently returned 4x6 grid")
	}
	if got := p.GetAccum(4, 6); got != a {
		t.Fatal("second 4x6 borrow did not get the remaining 4x6 grid")
	}
	if got := p.GetAccum(4, 6); got == a || got == b || got.H() != 4 || got.W() != 6 {
		t.Fatal("borrow past the free list did not allocate a fresh 4x6 grid")
	}
	if st := p.AccumStats(); st.Gets != 7 || st.Puts != 3 || st.News != 4 || st.Live() != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st := p.Stats(); st.Gets != 0 {
		t.Fatalf("grid traffic counted as frame traffic: %+v", st)
	}
}

// TestAccumPoolTripwires: a grid handed back with anything left in it
// would leak one borrower's events into the next one's frames, so a
// dirty return panics — as do a double and a nil return — and the
// dirty grid does not reach the free list.
func TestAccumPoolTripwires(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	p := NewFramePool()
	dirty := p.GetAccum(3, 3)
	dirty.Touch(2, 2)[0]++
	mustPanic("dirty PutAccum", func() { p.PutAccum(dirty) })
	if got := p.GetAccum(3, 3); got == dirty {
		t.Fatal("dirty grid was free-listed")
	}
	dirty.Emit(sparse.NewFrame(3, 3, 0, 1), 1)
	p.PutAccum(dirty) // emitted: all-zero again, accepted
	mustPanic("double PutAccum", func() { p.PutAccum(dirty) })
	mustPanic("nil PutAccum", func() { p.PutAccum(nil) })
	// Touches alone dirty a grid, whatever the cells hold: one touched
	// again after its emission and returned without another is refused.
	again := p.GetAccum(3, 3)
	again.Touch(0, 1)
	mustPanic("PutAccum of touches with no emission", func() { p.PutAccum(again) })
}

// TestAccumPoolFreeListBounded: many distinct geometries cannot pin
// memory — the free list holds at most maxFreeAccums grids — and the
// grid dropped to make room is the least recently used one, so a
// geometry in steady use keeps hitting.
func TestAccumPoolFreeListBounded(t *testing.T) {
	p := NewFramePool()
	hot := p.GetAccum(5, 5)
	p.PutAccum(hot)
	for i := 1; i <= 4*maxFreeAccums; i++ {
		p.PutAccum(p.GetAccum(1, i)) // a new geometry each round: always a miss
		if got := p.GetAccum(5, 5); got != hot {
			t.Fatalf("round %d: the geometry in steady use lost its grid", i)
		}
		p.PutAccum(hot)
		if n := len(p.accums); n > maxFreeAccums {
			t.Fatalf("round %d: free list holds %d grids, bound is %d", i, n, maxFreeAccums)
		}
	}
	if st := p.AccumStats(); st.News != 1+4*maxFreeAccums || st.Live() != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGenericPoolResetHook(t *testing.T) {
	type inv struct {
		frames []*sparse.Frame
		ready  float64
	}
	p := NewPool(func(x *inv) {
		x.frames = x.frames[:0]
		x.ready = 0
	})
	a := p.Get()
	a.frames = append(a.frames, sparse.NewFrame(1, 1, 0, 1))
	a.ready = 9
	p.Put(a)
	b := p.Get()
	if b != a {
		t.Fatalf("expected recycled object")
	}
	if len(b.frames) != 0 || b.ready != 0 {
		t.Fatalf("reset hook did not run: %+v", b)
	}
	if cap(b.frames) == 0 {
		t.Fatalf("reset hook lost slice capacity")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("double Put did not panic")
		}
	}()
	p.Put(b)
	p.Put(b)
}

// TestSteadyStateZeroAlloc is the core contract: once warm, a
// Get/use/Put cycle against every pool type performs no heap
// allocation.
func TestSteadyStateZeroAlloc(t *testing.T) {
	a := NewArena()
	type req struct{ session string }
	gp := NewPool(func(r *req) { r.session = "" })

	// Warm every free list (and the tripwire maps) once.
	warm := func() {
		f := a.Frames.Get(16, 16, 0, 100, 0)
		acc := a.Frames.GetAccum(16, 16)
		r := gp.Get()
		gp.Put(r)
		a.Frames.PutAccum(acc)
		a.Frames.Put(f)
	}
	warm()

	if n := testing.AllocsPerRun(200, warm); n != 0 {
		t.Fatalf("steady-state pool cycle allocates %.1f allocs/op, want 0", n)
	}
}

func TestArenaStatsTotal(t *testing.T) {
	a := NewArena()
	f := a.Frames.Get(2, 2, 0, 1, 0)
	acc := a.Frames.GetAccum(2, 2)
	a.Frames.Put(f)
	a.Frames.PutAccum(acc)
	st := a.Stats()
	if st.Total.Gets != 2 || st.Total.Puts != 2 || st.Total.News != 2 {
		t.Fatalf("total = %+v", st.Total)
	}
	if st.Accums.Gets != 1 || st.Frames.Gets != 1 {
		t.Fatalf("per-pool stats = %+v", st)
	}
}

// TestIdleKeepsNewestBounded: Get takes the most recently filed bundle
// first and builds a New one only when none is idle, and Put keeps the
// GOMAXPROCS most recently filed bundles.
func TestIdleKeepsNewestBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	built := 0
	l := Idle[int]{New: func() *int { built++; return new(int) }}
	a, b, c := new(int), new(int), new(int)
	l.Put(a)
	l.Put(b)
	l.Put(c) // drops a, the least recently filed
	for i, want := range []*int{c, b} {
		if got := l.Get(); got != want {
			t.Fatalf("Get %d: %p, want %p", i, got, want)
		}
	}
	if got := l.Get(); got == a || built != 1 {
		t.Fatalf("empty list: Get returned %p (a %p), %d built; want a New one", got, a, built)
	}
}

// TestIdleSurvivesGC: an idle bundle is still there after garbage
// collections, unlike a sync.Pool's.
func TestIdleSurvivesGC(t *testing.T) {
	l := Idle[FramePool]{New: NewFramePool}
	p := NewFramePool()
	l.Put(p)
	runtime.GC()
	runtime.GC()
	if got := l.Get(); got != p {
		t.Fatal("the idle pool was dropped by a collection")
	}
}

// TestZeroStats: an arena's and a pool's counters restart at zero for
// a new owner, and zeroing them with an object borrowed panics.
func TestZeroStats(t *testing.T) {
	a := NewArena()
	a.Frames.Put(a.Frames.Get(2, 2, 0, 1, 0))
	a.Frames.PutAccum(a.Frames.GetAccum(2, 2))
	a.ZeroStats()
	if st := a.Stats(); st != (ArenaStats{}) {
		t.Fatalf("arena counters after ZeroStats: %+v", st)
	}
	p := NewPool[int](nil)
	p.Put(p.Get())
	p.ZeroStats()
	if st := p.Stats(); st != (PoolStats{}) {
		t.Fatalf("pool counters after ZeroStats: %+v", st)
	}
	for name, zero := range map[string]func(){
		"frame": func() { b := NewArena(); b.Frames.Get(2, 2, 0, 1, 0); b.ZeroStats() },
		"grid":  func() { b := NewArena(); b.Frames.GetAccum(2, 2); b.ZeroStats() },
		"pool":  func() { q := NewPool[int](nil); q.Get(); q.ZeroStats() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s borrowed: ZeroStats did not panic", name)
				}
			}()
			zero()
		}()
	}
}
