package sparse

import (
	"fmt"
	"sync"
)

// The rulebook cache exploits the temporal coherence of event streams:
// consecutive frames from the same scene activate heavily overlapping
// pixel sets, and within one forward pass every submanifold layer of
// the same spatial shape shares one active-site set. Instead of
// re-discovering activity with an O(C·H·W) scan per layer per frame
// (what SubmanifoldConv2DInto's row-major scan does), an ActiveSet is
// materialized once per input frame — O(nnz) straight off the sorted
// COO coordinates — carried across the layers of a pass (refined in
// O(C·sites) per layer, exact because a submanifold layer can only
// deactivate sites, never activate new ones), and delta-revalidated
// against the previous frame's set when the overlap is high. This is
// the "materialize the sparsity structure once, stream compute over
// it" idea of composable sparse-dataflow accelerators, applied to the
// Go hot path.

// ActiveSet is the materialized rulebook of one tensor shape: the
// active (any-channel-nonzero) sites in row-major order plus, per
// site, the clipped kernel-tap bounds for a K x K submanifold window —
// the per-site valid-neighbor structure, so the site kernel never
// bounds-checks taps.
type ActiveSet struct {
	H, W, K int
	Ys, Xs  []int32
	// Clip stores 4 bytes per site: kyLo, kyHi, kxLo, kxHi (hi
	// exclusive) — the in-bounds tap range of the site's window.
	Clip []uint8
}

// NewActiveSet returns an empty set for the given shape and kernel
// size (K must be odd; the submanifold constraint).
func NewActiveSet(h, w, k int) *ActiveSet {
	a := &ActiveSet{}
	a.Reset(h, w, k)
	return a
}

// Reset re-targets the set to a shape, keeping slice capacity — the
// hook a free list reuses a returned set through.
func (a *ActiveSet) Reset(h, w, k int) {
	if h <= 0 || w <= 0 || k <= 0 || k%2 == 0 {
		panic(fmt.Sprintf("sparse: invalid active set shape %dx%d k=%d", h, w, k))
	}
	a.H, a.W, a.K = h, w, k
	a.Ys = a.Ys[:0]
	a.Xs = a.Xs[:0]
	a.Clip = a.Clip[:0]
}

// Sites returns the number of active sites.
func (a *ActiveSet) Sites() int { return len(a.Ys) }

// appendSite adds one site with freshly computed clip bounds; callers
// must append in row-major (y, x) order.
func (a *ActiveSet) appendSite(y, x int32) {
	half := a.K / 2
	kyLo, kyHi := 0, a.K
	if d := half - int(y); d > 0 {
		kyLo = d
	}
	if d := a.H - int(y) + half; d < kyHi {
		kyHi = d
	}
	kxLo, kxHi := 0, a.K
	if d := half - int(x); d > 0 {
		kxLo = d
	}
	if d := a.W - int(x) + half; d < kxHi {
		kxHi = d
	}
	a.Ys = append(a.Ys, y)
	a.Xs = append(a.Xs, x)
	a.Clip = append(a.Clip, uint8(kyLo), uint8(kyHi), uint8(kxLo), uint8(kxHi))
}

// BuildFromFrame materializes the rulebook straight off a sparse
// frame's sorted cell indexes, decoded by YX, in O(nnz) — no dense
// scan. The frame's entry set IS the active-site set of its
// two-channel tensor (entries with zero counts in both polarities are
// structurally excluded).
func (a *ActiveSet) BuildFromFrame(f *Frame, k int) {
	f.NNZ() // force lazy sort compaction before reading coordinates
	a.Reset(f.H, f.W, k)
	for i := range f.Cells {
		a.appendSite(f.YX(i))
	}
}

// BuildFromTensor materializes the rulebook with a dense row-major
// activity scan — the fallback when no frame-coordinate shortcut
// exists, and the reference the delta path is tested against.
func (a *ActiveSet) BuildFromTensor(t *Tensor, k int) {
	a.Reset(t.H, t.W, k)
	for y := 0; y < t.H; y++ {
	pixel:
		for x := 0; x < t.W; x++ {
			for c := 0; c < t.C; c++ {
				if t.At(c, y, x) != 0 {
					a.appendSite(int32(y), int32(x))
					continue pixel
				}
			}
		}
	}
}

// Refine drops the sites no longer active in t, in place, preserving
// order — O(C·sites) instead of O(C·H·W). It is EXACT (not an
// approximation) when t was produced from this set by a submanifold
// layer (plus elementwise ops like ReLU): such layers write only at
// listed sites over a zeroed output, so t's activity is a subset of
// the list and checking listed sites finds all of it.
func (a *ActiveSet) Refine(t *Tensor) {
	if t.H != a.H || t.W != a.W {
		panic(fmt.Sprintf("sparse: Refine shape %dx%d != active set %dx%d", t.H, t.W, a.H, a.W))
	}
	j := 0
	for i := 0; i < len(a.Ys); i++ {
		y, x := int(a.Ys[i]), int(a.Xs[i])
		active := false
		for c := 0; c < t.C; c++ {
			if t.At(c, y, x) != 0 {
				active = true
				break
			}
		}
		if !active {
			continue
		}
		if j != i {
			a.Ys[j] = a.Ys[i]
			a.Xs[j] = a.Xs[i]
			copy(a.Clip[4*j:4*j+4], a.Clip[4*i:4*i+4])
		}
		j++
	}
	a.Ys = a.Ys[:j]
	a.Xs = a.Xs[:j]
	a.Clip = a.Clip[:4*j]
}

// SubmanifoldConv2DSites is SubmanifoldConv2DInto driven by a
// materialized rulebook instead of a dense activity scan. CONTRACT:
// as must be EXACTLY the active-site set of in (BuildFrom* on in, or
// Refine'd through the layer stack); under that contract the result
// is bit-identical to the serial kernel — sites are visited in the
// same row-major order and the clipped tap ranges skip exactly the
// taps the serial bounds checks skip.
func SubmanifoldConv2DSites(out, in *Tensor, f *Filter, as *ActiveSet) error {
	if in.C != f.InC {
		return fmt.Errorf("sparse: conv input channels %d != filter %d", in.C, f.InC)
	}
	if f.Stride != 1 || f.K%2 == 0 || f.Pad != f.K/2 {
		return fmt.Errorf("sparse: submanifold conv needs stride 1, odd K, pad K/2 (got s=%d k=%d p=%d)",
			f.Stride, f.K, f.Pad)
	}
	if out.C != f.OutC || out.H != in.H || out.W != in.W {
		return fmt.Errorf("sparse: conv output tensor %dx%dx%d != expected %dx%dx%d",
			out.C, out.H, out.W, f.OutC, in.H, in.W)
	}
	if as.H != in.H || as.W != in.W || as.K != f.K {
		return fmt.Errorf("sparse: active set %dx%d k=%d != input %dx%d k=%d",
			as.H, as.W, as.K, in.H, in.W, f.K)
	}
	out.Zero()
	// The accumulation order per site is (oc, ic, ky, kx), as in
	// submanifoldRows.
	half := f.K / 2
	kk := f.K * f.K
	for s := range as.Ys {
		oy, ox := int(as.Ys[s]), int(as.Xs[s])
		kyLo, kyHi := int(as.Clip[4*s]), int(as.Clip[4*s+1])
		kxLo, kxHi := int(as.Clip[4*s+2]), int(as.Clip[4*s+3])
		for oc := 0; oc < f.OutC; oc++ {
			var sum float32
			if f.Bias != nil {
				sum = f.Bias[oc]
			}
			wbase := f.Weights[oc*f.InC*kk:]
			for ic := 0; ic < f.InC; ic++ {
				wch := wbase[ic*kk:]
				for ky := kyLo; ky < kyHi; ky++ {
					iy := oy + ky - half
					wrow := wch[ky*f.K : ky*f.K+f.K]
					irow := in.Data[(ic*in.H+iy)*in.W:]
					for kx := kxLo; kx < kxHi; kx++ {
						sum += wrow[kx] * irow[ox+kx-half]
					}
				}
			}
			out.Set(oc, oy, ox, sum)
		}
	}
	return nil
}

// RulebookStats counts a cache's traffic. A hit means the previous
// frame's rulebook overlapped enough to be delta-revalidated; a miss
// is a full rebuild (first frame, geometry change, or a scene cut
// below the overlap threshold). SitesCarried/SitesNew split the sites
// of observed frames by whether their per-site structure was carried
// from the previous frame or computed fresh.
type RulebookStats struct {
	Frames       uint64 `json:"frames"`
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	SitesCarried uint64 `json:"sites_carried"`
	SitesNew     uint64 `json:"sites_new"`
}

// HitRate returns Hits/Frames (0 before the first observation).
func (s RulebookStats) HitRate() float64 {
	if s.Frames == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Frames)
}

// DefaultMinOverlap is the delta-revalidation threshold: when fewer
// than 50% of a frame's sites are covered by the previous frame's
// rulebook (within the kernel's half-width — see coveredCount) the
// cache treats the scene as cut and rebuilds.
const DefaultMinOverlap = 0.5

// RulebookCache carries one stream's ActiveSet across frames,
// delta-revalidating it against each new frame's coordinates. It is
// safe for concurrent use.
type RulebookCache struct {
	// Borrow/Release, when set, source the cache's two ActiveSet
	// buffers from a caller-owned free list instead of the heap;
	// Close hands them back.
	Borrow  func(h, w, k int) *ActiveSet
	Release func(*ActiveSet)

	k          int
	minOverlap float64

	mu    sync.Mutex
	cur   *ActiveSet // previous frame's rulebook (nil before the first)
	spare *ActiveSet // double buffer for the delta merge
	stats RulebookStats
}

// NewRulebookCache returns a cache for K x K submanifold windows
// (k <= 0 uses 3, the zoo's dominant kernel size) with the given
// overlap threshold (<= 0 uses DefaultMinOverlap).
func NewRulebookCache(k int, minOverlap float64) *RulebookCache {
	if k <= 0 {
		k = 3
	}
	if minOverlap <= 0 {
		minOverlap = DefaultMinOverlap
	}
	return &RulebookCache{k: k, minOverlap: minOverlap}
}

// get sources an ActiveSet buffer.
func (c *RulebookCache) get(h, w int) *ActiveSet {
	if c.Borrow != nil {
		return c.Borrow(h, w, c.k)
	}
	return NewActiveSet(h, w, c.k)
}

// Observe folds one frame into the cache and returns the frame's
// rulebook plus whether the previous frame's structure was reused
// (hit). The returned set is owned by the cache and valid until the
// next Observe; callers refining it through a layer stack must do so
// before then (the serving path observes and consumes under one lock).
func (c *RulebookCache) Observe(f *Frame) (*ActiveSet, bool) {
	f.NNZ() // compact before reading coordinates
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Frames++
	if c.cur == nil || c.cur.H != f.H || c.cur.W != f.W {
		if c.cur == nil {
			c.cur = c.get(f.H, f.W)
		}
		c.cur.BuildFromFrame(f, c.k)
		c.stats.Misses++
		c.stats.SitesNew += uint64(c.cur.Sites())
		return c.cur, false
	}
	covered := coveredCount(c.cur, f)
	overlap := 1.0 // an empty frame contradicts nothing
	if len(f.Cells) > 0 {
		overlap = float64(covered) / float64(len(f.Cells))
	}
	if overlap < c.minOverlap {
		c.cur.BuildFromFrame(f, c.k)
		c.stats.Misses++
		c.stats.SitesNew += uint64(c.cur.Sites())
		return c.cur, false
	}
	// Delta path: merge-walk the previous rulebook and the new frame,
	// carrying surviving sites' clip structure and computing only the
	// newly activated ones.
	if c.spare == nil {
		c.spare = c.get(f.H, f.W)
	}
	next := c.spare
	next.Reset(f.H, f.W, c.k)
	i, j := 0, 0
	prev := c.cur
	for j < len(f.Cells) {
		fy, fx := f.YX(j)
		for i < len(prev.Ys) && (prev.Ys[i] < fy || (prev.Ys[i] == fy && prev.Xs[i] < fx)) {
			i++ // site departed
		}
		if i < len(prev.Ys) && prev.Ys[i] == fy && prev.Xs[i] == fx {
			next.Ys = append(next.Ys, fy)
			next.Xs = append(next.Xs, fx)
			next.Clip = append(next.Clip, prev.Clip[4*i:4*i+4]...)
			c.stats.SitesCarried++
			i++
		} else {
			next.appendSite(fy, fx)
			c.stats.SitesNew++
		}
		j++
	}
	c.spare, c.cur = c.cur, next
	c.stats.Hits++
	return c.cur, true
}

// coveredCount counts the frame's sites that lie within the kernel's
// half-width (Chebyshev distance K/2) of some site in the previous
// rulebook. This — not pixel-exact Jaccard — is the temporal-coherence
// measure that matters to a rulebook: a site whose activity shifted by
// less than the kernel radius still reads mostly the same K x K
// neighborhood, while event streams jitter active pixels frame to
// frame even when the scene structure is static. Pixel-exact matches
// (the merge walk in Observe) still gate which per-site structures are
// carried; coverage only decides delta-vs-rebuild. Alloc-free:
// binary searches over the rulebook's row-major site list.
func coveredCount(a *ActiveSet, f *Frame) int {
	r := int32(a.K / 2)
	n := 0
	for j := range f.Cells {
		if y, x := f.YX(j); coveredAt(a, y, x, r) {
			n++
		}
	}
	return n
}

// coveredAt reports whether (y, x) has a site of a within Chebyshev
// distance r: for each candidate row, binary-search the first site at
// column >= x-r and check it is still <= x+r.
func coveredAt(a *ActiveSet, y, x, r int32) bool {
	for ty := y - r; ty <= y+r; ty++ {
		lo, hi := 0, len(a.Ys)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if a.Ys[m] < ty || (a.Ys[m] == ty && a.Xs[m] < x-r) {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo < len(a.Ys) && a.Ys[lo] == ty && a.Xs[lo] <= x+r {
			return true
		}
	}
	return false
}

// Stats snapshots the counters.
func (c *RulebookCache) Stats() RulebookStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close releases pooled buffers (no-op without a Release hook). The
// cache is reusable afterwards; the next Observe borrows fresh
// buffers.
func (c *RulebookCache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Release != nil {
		if c.cur != nil {
			c.Release(c.cur)
		}
		if c.spare != nil {
			c.Release(c.spare)
		}
	}
	c.cur, c.spare = nil, nil
}
