package sparse

import (
	"fmt"
	"math/bits"
	"sync"

	"evedge/internal/par"
)

// Site-list execution: the gather-scatter convolution driven by an
// explicit list of active input sites, so a layer costs what its
// activity costs and not what its tensors measure. A site is a flat
// row-major pixel index y*W + x; a site list is sorted ascending and
// names every pixel with a nonzero channel (a superset is harmless,
// listed zeros are skipped).
//
// SiteConv.Apply is the one scatter in this package: SparseConv2DInto,
// its tiled form and the transposed convolution all reach it after
// scanning their input into a list, and nn.Runtime reaches it with the
// list the previous layer produced.

// SiteConv is a Filter packed for site-list execution: the weights are
// copied into [ic][ky][kx][oc] order so that the innermost loop of the
// scatter runs over contiguous weights and contiguous accumulators.
// The copy is taken when the SiteConv is built; later writes to the
// Filter's weights are not seen.
type SiteConv struct {
	f *Filter
	w []float32
	// One kernel step moves the output coordinate by oStep: a
	// convolution visits offsets congruent to (i+Pad) mod Stride, each
	// one output lower than the last; a transposed convolution visits
	// every offset, each one output higher.
	kStep, oStep int
}

// NewSiteConv packs f.
func NewSiteConv(f *Filter) *SiteConv {
	k := &SiteConv{}
	k.pack(f)
	return k
}

func (k *SiteConv) pack(f *Filter) {
	k.f = f
	k.kStep, k.oStep = f.Stride, -1
	if f.Deconv {
		k.kStep, k.oStep = 1, 1
	}
	if cap(k.w) < len(f.Weights) {
		k.w = make([]float32, len(f.Weights))
	}
	k.w = k.w[:len(f.Weights)]
	kk := f.K * f.K
	for oc := 0; oc < f.OutC; oc++ {
		for ic := 0; ic < f.InC; ic++ {
			for tap, v := range f.Weights[(oc*f.InC+ic)*kk:][:kk] {
				k.w[(ic*kk+tap)*f.OutC+oc] = v
			}
		}
	}
}

// axis returns the kernel offsets through which input coordinate i
// reaches an output coordinate in [0, n): cnt offsets starting at k0
// and advancing by kStep, the first landing on output o0 and each next
// one oStep further.
func (k *SiteConv) axis(i, n int) (k0, o0, cnt int) {
	f := k.f
	if f.Deconv {
		base := i*f.Stride - f.Pad // output reached through offset 0
		k0 = max(0, -base)
		return k0, base + k0, min(f.K, n-base) - k0
	}
	r := i + f.Pad
	k0, o0 = r%f.Stride, r/f.Stride
	if k0 >= f.K {
		return 0, 0, 0
	}
	skip := max(0, o0-(n-1)) // leading offsets whose output is past the end
	last := min((f.K-1-k0)/f.Stride, o0)
	return k0 + skip*f.Stride, o0 - skip, last - skip + 1
}

// SiteInput is one operand of SiteConv.Apply: a tensor and its site
// list. Several operands stand for their channel concatenation.
type SiteInput struct {
	T     *Tensor
	Sites []int32
}

// SiteScratch is the working memory of site-list execution: one bit
// per site for building sorted lists, and the [site][oc] accumulators
// of the scatter. Both are all-zero between calls, so one scratch
// serves any sequence of layers; it grows to the largest layer it has
// seen and must not be shared by concurrent calls.
type SiteScratch struct {
	mark    []uint64
	acc     []float32
	touched []int32
	task    scatterTask
}

func (s *SiteScratch) bits(sites int) []uint64 {
	if n := (sites + 63) / 64; len(s.mark) < n {
		s.mark = make([]uint64, n)
	}
	return s.mark
}

// drain appends the set bits of mark to dst in ascending order and
// clears them.
func drain(dst []int32, mark []uint64) []int32 {
	for wi, word := range mark {
		if word == 0 {
			continue
		}
		mark[wi] = 0
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(wi<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// Sites appends t's site list to dst: one pass over the tensor, the
// only volume-proportional step of a site-list forward.
func (s *SiteScratch) Sites(dst []int32, t *Tensor) []int32 {
	plane := t.H * t.W
	mark := s.bits(plane)
	for c := 0; c < t.C; c++ {
		for i, v := range t.Data[c*plane : (c+1)*plane] {
			if v != 0 {
				mark[i>>6] |= 1 << (i & 63)
			}
		}
	}
	return drain(dst, mark)
}

// Apply runs the convolution (transposed if the filter says so) from
// the listed input sites only. Every output site a listed input
// reaches is touched: its OutC sums start at the bias and receive
// their products in (ic, iy, ix) ascending order — operands in the
// order given, which is channel order — exactly as the full-tensor
// scatter delivers them, then pass through act (nil for none) and are
// written to out. Sites left with a nonzero value are appended to
// active in ascending order and returned. The caller hands in out
// holding, at every site, the value no input produces (the bias, or
// zero): untouched sites are not written, and with a nil bias neither
// are touched elements that come out zero.
//
// With a pool of width > 1 the scatter is sharded by output-channel
// range; every element still belongs to one shard, so the result does
// not depend on pool or shards.
func (k *SiteConv) Apply(out *Tensor, s *SiteScratch, ins []SiteInput, act func(row []float32),
	active []int32, pool *par.Pool, shards int) ([]int32, error) {
	f := k.f
	h, w, inC := ins[0].T.H, ins[0].T.W, 0
	for _, in := range ins {
		if in.T.H != h || in.T.W != w {
			return active, fmt.Errorf("sparse: conv operands %dx%d and %dx%d differ", in.T.H, in.T.W, h, w)
		}
		inC += in.T.C
	}
	if inC != f.InC {
		return active, fmt.Errorf("sparse: conv input channels %d != filter %d", inC, f.InC)
	}
	oh, ow, err := checkOut(out, f, h, w)
	if err != nil {
		return active, err
	}

	mark := s.bits(oh * ow)
	for _, in := range ins {
		for _, site := range in.Sites {
			_, oy, ny := k.axis(int(site)/w, oh)
			_, ox0, nx := k.axis(int(site)%w, ow)
			for ; ny > 0; ny, oy = ny-1, oy+k.oStep {
				for j, o := 0, oy*ow+ox0; j < nx; j, o = j+1, o+k.oStep {
					mark[o>>6] |= 1 << (o & 63)
				}
			}
		}
	}
	s.touched = drain(s.touched[:0], mark)
	if len(s.touched) == 0 {
		return active, nil
	}
	if len(s.acc) < oh*ow*f.OutC {
		s.acc = make([]float32, oh*ow*f.OutC)
	}
	if f.Bias != nil {
		for _, site := range s.touched {
			copy(s.acc[int(site)*f.OutC:], f.Bias)
		}
	}

	if pool.Size() <= 1 {
		shards = 1
	}
	s.task = scatterTask{k: k, acc: s.acc, ins: ins, oh: oh, ow: ow}
	pool.Run(clampShards(shards, f.OutC), &s.task)
	s.task = scatterTask{}

	plane := oh * ow
	for _, site := range s.touched {
		row := s.acc[int(site)*f.OutC:][:f.OutC]
		if act != nil {
			act(row)
		}
		nonzero := false
		for oc, v := range row {
			if v != 0 {
				nonzero = true
			} else if f.Bias == nil {
				continue // out already holds the zero
			}
			out.Data[oc*plane+int(site)] = v
		}
		clear(row)
		if nonzero {
			active = append(active, site)
		}
	}
	return active, nil
}

// scatterTask is one Apply's scatter, sharded over output channels.
type scatterTask struct {
	k      *SiteConv
	acc    []float32
	ins    []SiteInput
	oh, ow int
}

func (t *scatterTask) RunShard(shard, shards int, _ *par.Scratch) {
	k, f := t.k, t.k.f
	ocLo, ocHi := splitRange(shard, shards, f.OutC)
	w := t.ins[0].T.W
	ic := 0
	for _, in := range t.ins {
		plane := in.T.H * in.T.W
		for c := 0; c < in.T.C; c, ic = c+1, ic+1 {
			vals := in.T.Data[c*plane : (c+1)*plane]
			wc := k.w[ic*f.K*f.K*f.OutC:]
			for _, site := range in.Sites {
				v := vals[site]
				if v == 0 {
					continue
				}
				ky, oy, ny := k.axis(int(site)/w, t.oh)
				kx0, ox0, nx := k.axis(int(site)%w, t.ow)
				for ; ny > 0; ny, ky, oy = ny-1, ky+k.kStep, oy+k.oStep {
					for j, kx, ox := 0, kx0, ox0; j < nx; j, kx, ox = j+1, kx+k.kStep, ox+k.oStep {
						wv := wc[(ky*f.K+kx)*f.OutC+ocLo : (ky*f.K+kx)*f.OutC+ocHi]
						a := t.acc[(oy*t.ow+ox)*f.OutC+ocLo:][:len(wv)]
						for oc, x := range wv {
							a[oc] += x * v
						}
					}
				}
			}
		}
	}
}

// scatterWork is what SparseConv2DTiledInto needs beyond its
// arguments; pooled so a warm call allocates nothing.
type scatterWork struct {
	k      SiteConv
	s      SiteScratch
	ins    [1]SiteInput
	active []int32
}

var scatterWorks = sync.Pool{New: func() any { return new(scatterWork) }}

// SparseConv2DTiledInto is SparseConv2DInto with the scatter sharded
// across pool; results are bit-identical for every pool and shard
// count.
func SparseConv2DTiledInto(out, in *Tensor, f *Filter, pool *par.Pool, shards int) error {
	if in.C != f.InC {
		return fmt.Errorf("sparse: conv input channels %d != filter %d", in.C, f.InC)
	}
	oh, ow, err := checkOut(out, f, in.H, in.W)
	if err != nil {
		return err
	}
	for oc := 0; oc < f.OutC; oc++ {
		var bias float32
		if f.Bias != nil {
			bias = f.Bias[oc]
		}
		plane := out.Data[oc*oh*ow : (oc+1)*oh*ow]
		for i := range plane {
			plane[i] = bias
		}
	}
	wk := scatterWorks.Get().(*scatterWork)
	wk.k.pack(f)
	wk.ins[0] = SiteInput{T: in, Sites: wk.s.Sites(wk.ins[0].Sites[:0], in)}
	wk.active, err = wk.k.Apply(out, &wk.s, wk.ins[:], nil, wk.active[:0], pool, shards)
	wk.k.f, wk.ins[0].T = nil, nil
	scatterWorks.Put(wk)
	return err
}
