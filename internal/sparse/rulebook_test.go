package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// randDenseFrame builds a sorted sparse frame with roughly density*H*W
// active entries.
func randDenseFrame(r *rand.Rand, h, w int, density float64) *Frame {
	f := NewFrame(h, w, 0, 1000)
	n := int(float64(h*w) * density)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		pos, neg := float32(r.Intn(3)), float32(r.Intn(3))
		if pos == 0 && neg == 0 {
			pos = 1
		}
		f.Set(int32(r.Intn(h)), int32(r.Intn(w)), pos, neg)
	}
	return f
}

// setsEqual asserts two rulebooks list the same sites with the same
// clip structure.
func setsEqual(t *testing.T, tag string, got, want *ActiveSet) {
	t.Helper()
	if got.H != want.H || got.W != want.W || got.K != want.K {
		t.Fatalf("%s: shape %dx%d k=%d != %dx%d k=%d", tag, got.H, got.W, got.K, want.H, want.W, want.K)
	}
	if got.Sites() != want.Sites() {
		t.Fatalf("%s: %d sites != %d", tag, got.Sites(), want.Sites())
	}
	for i := range got.Ys {
		if got.Ys[i] != want.Ys[i] || got.Xs[i] != want.Xs[i] {
			t.Fatalf("%s: site %d = (%d,%d), want (%d,%d)", tag, i, got.Ys[i], got.Xs[i], want.Ys[i], want.Xs[i])
		}
	}
	for i := range got.Clip {
		if got.Clip[i] != want.Clip[i] {
			t.Fatalf("%s: clip byte %d = %d, want %d", tag, i, got.Clip[i], want.Clip[i])
		}
	}
}

// TestActiveSetBuildEquivalence: the O(nnz) frame build and the dense
// rescan must produce the identical rulebook.
func TestActiveSetBuildEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		h, w := 3+r.Intn(30), 3+r.Intn(30)
		k := []int{1, 3, 5}[r.Intn(3)]
		f := randDenseFrame(r, h, w, []float64{0.02, 0.2, 0.9}[r.Intn(3)])
		fromFrame := NewActiveSet(h, w, k)
		fromFrame.BuildFromFrame(f, k)
		fromTensor := NewActiveSet(h, w, k)
		fromTensor.BuildFromTensor(dense(f), k)
		setsEqual(t, "frame vs tensor build", fromFrame, fromTensor)
	}
}

// TestSitesKernelBitIdentical: under the exact-set contract the
// rulebook-driven kernel must reproduce
// SubmanifoldConv2DInto bit for bit.
func TestSitesKernelBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		inC, outC := 1+r.Intn(4), 1+r.Intn(4)
		h, w := 5+r.Intn(24), 5+r.Intn(24)
		k := []int{1, 3, 5}[r.Intn(3)]
		in := NewTensor(inC, h, w)
		in.FillRandomSparse(r, []float64{0.02, 0.15, 0.6}[r.Intn(3)])
		f := randFilter(r, outC, inC, k, 1, k/2)

		want := NewTensor(outC, h, w)
		if err := SubmanifoldConv2DInto(want, in, f); err != nil {
			t.Fatal(err)
		}
		as := NewActiveSet(h, w, k)
		as.BuildFromTensor(in, k)

		got := NewTensor(outC, h, w)
		got.FillRandom(r)
		if err := SubmanifoldConv2DSites(got, in, f, as); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "SubmanifoldConv2DSites", got.Data, want.Data)
	}
}

// TestRefineChainExactness: refining the input rulebook through a
// submanifold layer stack (conv + ReLU) must yield exactly the set a
// full rescan of each intermediate tensor finds, and driving the next
// layer with the refined set must stay bit-identical to the serial
// kernel.
func TestRefineChainExactness(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		h, w := 8+r.Intn(16), 8+r.Intn(16)
		k := 3
		cs := []int{1 + r.Intn(3), 1 + r.Intn(4), 1 + r.Intn(4), 1 + r.Intn(3)}
		in := NewTensor(cs[0], h, w)
		in.FillRandomSparse(r, 0.15)

		as := NewActiveSet(h, w, k)
		as.BuildFromTensor(in, k)
		cur := in
		for l := 0; l+1 < len(cs); l++ {
			f := randFilter(r, cs[l+1], cs[l], k, 1, k/2)
			want := NewTensor(cs[l+1], h, w)
			if err := SubmanifoldConv2DInto(want, cur, f); err != nil {
				t.Fatal(err)
			}
			want.ReLU()
			got := NewTensor(cs[l+1], h, w)
			got.FillRandom(r)
			if err := SubmanifoldConv2DSites(got, cur, f, as); err != nil {
				t.Fatal(err)
			}
			got.ReLU()
			bitsEqual(t, "chained sites kernel", got.Data, want.Data)

			as.Refine(got)
			rescan := NewActiveSet(h, w, k)
			rescan.BuildFromTensor(got, k)
			setsEqual(t, "refine vs rescan", as, rescan)
			cur = got
		}
	}
}

// TestRulebookCacheDeltaEqualsRebuild: whatever path Observe takes
// (first build, delta carry, or overlap-miss rebuild), the returned
// rulebook must equal a fresh build from the frame.
func TestRulebookCacheDeltaEqualsRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	c := NewRulebookCache(3, 0.5)
	h, w := 24, 32
	base := randDenseFrame(r, h, w, 0.2)
	for step := 0; step < 30; step++ {
		var f *Frame
		switch step % 3 {
		case 0: // near-steady: base plus a couple of new sites
			f = base.Clone()
			f.Set(int32(r.Intn(h)), int32(r.Intn(w)), 1, 0)
		case 1: // drift: fresh overlapping sample around the same density
			f = base.Clone()
			for i := 0; i < 5; i++ {
				f.Set(int32(r.Intn(h)), int32(r.Intn(w)), 0, 1)
			}
		default: // scene cut: unrelated frame
			f = randDenseFrame(r, h, w, 0.2)
		}
		got, _ := c.Observe(f)
		want := NewActiveSet(h, w, 3)
		want.BuildFromFrame(f, 3)
		setsEqual(t, "observe vs rebuild", got, want)
	}
	st := c.Stats()
	if st.Frames != 30 || st.Hits+st.Misses != 30 {
		t.Fatalf("stats don't add up: %+v", st)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses over mixed traffic: %+v", st)
	}
}

// TestRulebookCacheStats: a steady stream delta-carries every frame
// after the first; activity jumping between far-apart regions rebuilds
// every frame; a geometry change forces a rebuild.
func TestRulebookCacheStats(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	steady := NewRulebookCache(0, 0) // defaults: k=3, overlap 0.5
	if steady.K() != 3 {
		t.Fatalf("default K = %d, want 3", steady.K())
	}
	base := randDenseFrame(r, 16, 16, 0.3)
	for i := 0; i < 10; i++ {
		f := base.Clone()
		f.Set(int32(i), int32(i), 1, 0) // tiny drift
		if _, hit := steady.Observe(f); hit != (i > 0) {
			t.Fatalf("steady frame %d: hit=%v", i, hit)
		}
	}
	st := steady.Stats()
	if st.Hits != 9 || st.Misses != 1 {
		t.Fatalf("steady stats = %+v, want 9 hits / 1 miss", st)
	}
	if got := st.HitRate(); got < 0.89 || got > 0.91 {
		t.Fatalf("steady hit rate = %g, want 0.9", got)
	}
	if st.SitesCarried == 0 {
		t.Fatalf("steady stream carried no sites: %+v", st)
	}

	flip := NewRulebookCache(3, 0.5)
	// Activity jumping between two far-apart bands (beyond the kernel
	// half-width) alternating: zero coherence coverage, every frame a
	// scene cut.
	a, b := NewFrame(8, 8, 0, 1), NewFrame(8, 8, 0, 1)
	for y := int32(0); y < 3; y++ {
		for x := int32(0); x < 8; x++ {
			a.Set(y, x, 1, 0)
			b.Set(y+5, x, 0, 1)
		}
	}
	for i := 0; i < 6; i++ {
		f := a
		if i%2 == 1 {
			f = b
		}
		if _, hit := flip.Observe(f); hit {
			t.Fatalf("flip frame %d unexpectedly hit", i)
		}
	}
	if st := flip.Stats(); st.Misses != 6 || st.SitesCarried != 0 {
		t.Fatalf("flip stats = %+v, want 6 misses and no carried sites", st)
	}

	// Geometry change: same cache, new shape → rebuild.
	resize := NewRulebookCache(3, 0.5)
	resize.Observe(randDenseFrame(r, 8, 8, 0.5))
	if _, hit := resize.Observe(randDenseFrame(r, 16, 16, 0.5)); hit {
		t.Fatal("geometry change should miss")
	}
}

// TestRulebookCoherenceShiftTolerance pins the coherence metric: an
// edge drifting less than the kernel half-width per frame stays on the
// delta path (its sites still read overlapping K x K neighborhoods,
// even with zero pixel-exact matches), while a jump beyond the radius
// reads as a scene cut. Either way the set equals a fresh rebuild.
func TestRulebookCoherenceShiftTolerance(t *testing.T) {
	mk := func(dx int32) *Frame {
		f := NewFrame(16, 16, 0, 1)
		for y := int32(4); y < 12; y++ {
			f.Set(y, 4+dx, 1, 0) // a vertical edge at column 4+dx
		}
		return f
	}
	c := NewRulebookCache(3, 0.5)
	c.Observe(mk(0))
	got, hit := c.Observe(mk(1))
	if !hit {
		t.Fatal("1px shift with k=3 should delta-revalidate")
	}
	want := NewActiveSet(16, 16, 3)
	want.BuildFromFrame(mk(1), 3)
	setsEqual(t, "shifted edge", got, want)
	if st := c.Stats(); st.SitesCarried != 0 {
		t.Fatalf("no pixel-exact matches yet %d sites carried: %+v", st.SitesCarried, st)
	}
	if _, hit := c.Observe(mk(8)); hit {
		t.Fatal("8px jump with k=3 should rebuild")
	}
}

// TestRulebookCacheBorrowRelease: the pool hooks must source every
// buffer and get them all back on Close.
func TestRulebookCacheBorrowRelease(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var borrowed, released int
	c := NewRulebookCache(3, 0.5)
	c.Borrow = func(h, w, k int) *ActiveSet {
		borrowed++
		return NewActiveSet(h, w, k)
	}
	c.Release = func(a *ActiveSet) { released++ }
	base := randDenseFrame(r, 12, 12, 0.4)
	for i := 0; i < 5; i++ {
		f := base.Clone()
		f.Set(int32(i), 0, 1, 0)
		c.Observe(f)
	}
	if borrowed != 2 { // cur + spare, reused thereafter
		t.Fatalf("borrowed %d buffers, want 2", borrowed)
	}
	c.Close()
	if released != borrowed {
		t.Fatalf("released %d of %d borrowed buffers", released, borrowed)
	}
	// Reusable after Close.
	c.Observe(base.Clone())
	if borrowed != 3 {
		t.Fatalf("post-Close Observe borrowed %d total, want 3", borrowed)
	}
	c.Close()
	if released != borrowed {
		t.Fatalf("final release count %d != borrowed %d", released, borrowed)
	}
}

// TestActiveSetClipBounds: clip ranges must cover exactly the
// in-bounds taps (spot check corners and center on a small shape).
func TestActiveSetClipBounds(t *testing.T) {
	as := NewActiveSet(4, 5, 3)
	as.appendSite(0, 0)
	as.appendSite(3, 4)
	as.appendSite(2, 2)
	check := func(i int, kyLo, kyHi, kxLo, kxHi uint8) {
		t.Helper()
		got := as.Clip[4*i : 4*i+4]
		if got[0] != kyLo || got[1] != kyHi || got[2] != kxLo || got[3] != kxHi {
			t.Fatalf("site %d clip = %v, want [%d %d %d %d]", i, got, kyLo, kyHi, kxLo, kxHi)
		}
	}
	check(0, 1, 3, 1, 3) // top-left corner clips the first tap row/col
	check(1, 0, 2, 0, 2) // bottom-right clips the last
	check(2, 0, 3, 0, 3) // interior keeps the full window
}

// TestSitesKernelContractErrors: shape and eligibility validation.
func TestSitesKernelContractErrors(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	in := NewTensor(2, 8, 8)
	in.FillRandomSparse(r, 0.3)
	f := randFilter(r, 3, 2, 3, 1, 1)
	as := NewActiveSet(8, 8, 3)
	as.BuildFromTensor(in, 3)
	bad := NewTensor(3, 7, 8)
	if err := SubmanifoldConv2DSites(bad, in, f, as); err == nil {
		t.Fatal("accepted mis-shaped output")
	}
	wrongK := NewActiveSet(8, 8, 5)
	wrongK.BuildFromTensor(in, 5)
	out := NewTensor(3, 8, 8)
	if err := SubmanifoldConv2DSites(out, in, f, wrongK); err == nil {
		t.Fatal("accepted active set with mismatched K")
	}
	strided := randFilter(r, 3, 2, 3, 2, 1)
	if err := SubmanifoldConv2DSites(out, in, strided, as); err == nil {
		t.Fatal("accepted strided filter")
	}
}

// TestSitesKernelNaNSafety documents that bit identity holds even for
// non-finite inputs (NaN payloads propagate identically).
func TestSitesKernelNaNSafety(t *testing.T) {
	in := NewTensor(1, 4, 4)
	in.Set(0, 1, 1, float32(math.NaN()))
	in.Set(0, 2, 3, float32(math.Inf(1)))
	f := &Filter{OutC: 1, InC: 1, K: 3, Stride: 1, Pad: 1,
		Weights: []float32{0.5, -1, 0.25, 2, -0.125, 1, -3, 0.75, -0.5}}
	want := NewTensor(1, 4, 4)
	if err := SubmanifoldConv2DInto(want, in, f); err != nil {
		t.Fatal(err)
	}
	as := NewActiveSet(4, 4, 3)
	as.BuildFromTensor(in, 3)
	got := NewTensor(1, 4, 4)
	if err := SubmanifoldConv2DSites(got, in, f, as); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "NaN propagation", got.Data, want.Data)
}
