package sparse

import (
	"math/rand"
	"testing"

	"evedge/internal/par"
)

// The kernels as they were before the row-wise dense loop and the
// site-list scatter: one triple loop per definition, kept as the
// reference the optimized code must match bit for bit.

// referenceConv2D is the direct per-element dense convolution.
func referenceConv2D(out, in *Tensor, f *Filter) {
	for oc := 0; oc < f.OutC; oc++ {
		for oy := 0; oy < out.H; oy++ {
			for ox := 0; ox < out.W; ox++ {
				var sum float32
				if f.Bias != nil {
					sum = f.Bias[oc]
				}
				for ic := 0; ic < f.InC; ic++ {
					for ky := 0; ky < f.K; ky++ {
						iy := oy*f.Stride + ky - f.Pad
						if iy < 0 || iy >= in.H {
							continue
						}
						for kx := 0; kx < f.K; kx++ {
							ix := ox*f.Stride + kx - f.Pad
							if ix < 0 || ix >= in.W {
								continue
							}
							sum += f.W(oc, ic, ky, kx) * in.At(ic, iy, ix)
						}
					}
				}
				out.Set(oc, oy, ox, sum)
			}
		}
	}
}

// referenceScatter is the full-scan gather-scatter: bias fill, then
// every nonzero input in (ic, iy, ix) order scattered through the
// kernel (forward or transposed).
func referenceScatter(out, in *Tensor, f *Filter) {
	for oc := 0; oc < f.OutC; oc++ {
		for i := 0; i < out.H*out.W; i++ {
			var bias float32
			if f.Bias != nil {
				bias = f.Bias[oc]
			}
			out.Data[oc*out.H*out.W+i] = bias
		}
	}
	for ic := 0; ic < in.C; ic++ {
		for iy := 0; iy < in.H; iy++ {
			for ix := 0; ix < in.W; ix++ {
				v := in.At(ic, iy, ix)
				if v == 0 {
					continue
				}
				for ky := 0; ky < f.K; ky++ {
					for kx := 0; kx < f.K; kx++ {
						var oy, ox int
						if f.Deconv {
							oy, ox = iy*f.Stride+ky-f.Pad, ix*f.Stride+kx-f.Pad
						} else {
							ny, nx := iy+f.Pad-ky, ix+f.Pad-kx
							if ny < 0 || nx < 0 || ny%f.Stride != 0 || nx%f.Stride != 0 {
								continue
							}
							oy, ox = ny/f.Stride, nx/f.Stride
						}
						if oy < 0 || oy >= out.H || ox < 0 || ox >= out.W {
							continue
						}
						for oc := 0; oc < f.OutC; oc++ {
							out.Add(oc, oy, ox, f.W(oc, ic, ky, kx)*v)
						}
					}
				}
			}
		}
	}
}

// TestKernelsMatchReference: over random shapes, strides, paddings,
// densities and shard counts, the dense kernel and the site-list
// scatter (forward and transposed, serial and sharded) reproduce the
// reference loops bit for bit, into a dirty output.
func TestKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	pool := par.New(3)
	defer pool.Close()
	for trial := 0; trial < 200; trial++ {
		inC, outC := 1+r.Intn(4), 1+r.Intn(5)
		h, w := 1+r.Intn(20), 1+r.Intn(20)
		in := NewTensor(inC, h, w)
		in.FillRandomSparse(r, []float64{0, 0.01, 0.1, 0.5, 1.0}[r.Intn(5)])
		k := 1 + r.Intn(5)
		f := randFilter(r, outC, inC, k, 1+r.Intn(3), r.Intn(k))
		f.Deconv = trial%3 == 0
		if trial%4 == 0 {
			f.Bias = nil
		}
		oh, ow := f.OutShape(h, w)
		if oh <= 0 || ow <= 0 {
			continue
		}
		want := NewTensor(outC, oh, ow)
		got := NewTensor(outC, oh, ow)
		shards := 1 + r.Intn(6)

		referenceScatter(want, in, f)
		got.FillRandom(r)
		if err := SparseConv2DInto(got, in, f); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "SparseConv2DInto", got.Data, want.Data)
		got.FillRandom(r)
		if err := SparseConv2DTiledInto(got, in, f, pool, shards); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "SparseConv2DTiledInto", got.Data, want.Data)

		if !f.Deconv {
			referenceConv2D(want, in, f)
		}
		got.FillRandom(r)
		if err := Conv2DInto(got, in, f); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "Conv2DInto", got.Data, want.Data)
		got.FillRandom(r)
		if err := Conv2DTiledInto(got, in, f, pool, shards); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "Conv2DTiledInto", got.Data, want.Data)
	}
}

// TestSiteConvOperandsAreChannelConcat: several operands, each with
// its own site list, give the convolution of their channel
// concatenation; an activation sees each touched site's sums; the
// returned list names exactly the sites left nonzero.
func TestSiteConvOperandsAreChannelConcat(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	a, b := NewTensor(2, 9, 7), NewTensor(3, 9, 7)
	a.FillRandomSparse(r, 0.1)
	b.FillRandomSparse(r, 0.05)
	cat := NewTensor(5, 9, 7)
	copy(cat.Data, a.Data)
	copy(cat.Data[len(a.Data):], b.Data)
	f := randFilter(r, 4, 5, 3, 2, 1)
	f.Bias = nil
	oh, ow := f.OutShape(9, 7)
	want := NewTensor(4, oh, ow)
	referenceScatter(want, cat, f)
	want.ReLU()

	var s SiteScratch
	ins := []SiteInput{{T: a, Sites: s.Sites(nil, a)}, {T: b, Sites: s.Sites(nil, b)}}
	got := NewTensor(4, oh, ow)
	relu := func(row []float32) {
		for i, v := range row {
			if v < 0 {
				row[i] = 0
			}
		}
	}
	active, err := NewSiteConv(f).Apply(got, &s, ins, relu, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "two operands", got.Data, want.Data)
	sites := s.Sites(nil, want)
	if len(active) != len(sites) {
		t.Fatalf("active list has %d sites, output has %d", len(active), len(sites))
	}
	for i := range sites {
		if active[i] != sites[i] {
			t.Fatalf("active[%d] = %d, want %d", i, active[i], sites[i])
		}
	}
	if _, err := NewSiteConv(f).Apply(got, &s, ins[:1], nil, nil, nil, 1); err == nil {
		t.Fatal("Apply accepted operands with too few channels")
	}
}

// referenceMerge is the k-way coordinate merge DSFA combined buckets
// with before Accum.Merge: per output key y*W+x, of each entry's
// decoded (y, x), the members holding it are summed in argument order
// from zero, then scaled. Time bounds become the union; members'
// unsorted Set tails are compacted first.
func referenceMerge(frames []*Frame, scale float32) *Frame {
	for _, f := range frames {
		f.ensureSorted()
	}
	h, w := frames[0].H, frames[0].W
	t0, t1 := frames[0].T0, frames[0].T1
	for _, f := range frames[1:] {
		t0, t1 = min(t0, f.T0), max(t1, f.T1)
	}
	out := NewFrame(h, w, t0, t1)
	idx := make([]int, len(frames))
	for {
		best := int64(-1)
		for fi, f := range frames {
			if idx[fi] < len(f.Cells) {
				if k := refKey(f, idx[fi]); best == -1 || k < best {
					best = k
				}
			}
		}
		if best == -1 {
			return out
		}
		var pos, neg float32
		for fi, f := range frames {
			if idx[fi] < len(f.Cells) && refKey(f, idx[fi]) == best {
				pos += f.Pos[idx[fi]]
				neg += f.Neg[idx[fi]]
				idx[fi]++
			}
		}
		out.Set(int32(best/int64(w)), int32(best%int64(w)), pos*scale, neg*scale)
	}
}

// refKey is entry i's row-major pixel key, y*W+x.
func refKey(f *Frame, i int) int64 {
	y, x := f.YX(i)
	return int64(y)*int64(f.W) + int64(x)
}

// mergeAdd and mergeAverage are the DSFA combine modes as the
// aggregator spells them: one Accum.Merge with scale 1 or 1/n.
func mergeAdd(frames ...*Frame) *Frame {
	out := &Frame{}
	NewAccum(frames[0].H, frames[0].W).Merge(out, frames, 1)
	return out
}

func mergeAverage(frames ...*Frame) *Frame {
	out := &Frame{}
	NewAccum(frames[0].H, frames[0].W).Merge(out, frames, 1/float32(len(frames)))
	return out
}

// frameBuilder counts events into an Accum and emits the sorted frame:
// the construction path E2SF uses, for tests that build count frames.
type frameBuilder struct {
	acc    *Accum
	t0, t1 int64
}

func newFrameBuilder(h, w int, t0, t1 int64) *frameBuilder {
	return &frameBuilder{acc: NewAccum(h, w), t0: t0, t1: t1}
}

func (b *frameBuilder) addEvent(y, x int32, positive bool) {
	ch := 1
	if positive {
		ch = 0
	}
	b.acc.Touch(int(y), int(x))[ch]++
}

// build emits the frame and leaves the builder empty. An empty builder
// yields nil channel slices, matching NewFrame.
func (b *frameBuilder) build() *Frame {
	f := NewFrame(b.acc.H(), b.acc.W(), b.t0, b.t1)
	b.acc.Emit(f, 1)
	return f
}

// dense is the allocating form of Frame.DenseInto.
func dense(f *Frame) *Tensor {
	t := NewTensor(2, f.H, f.W)
	f.DenseInto(t)
	return t
}
