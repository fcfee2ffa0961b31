package sparse

import "fmt"

// Filter is a 2D convolution kernel bank: OutC filters over InC input
// channels with a square K x K window. Weights are laid out
// [outc][inc][ky][kx]; Bias has one entry per output channel (may be
// nil).
type Filter struct {
	OutC, InC, K int
	Stride, Pad  int
	Weights      []float32
	Bias         []float32
	Deconv       bool // transposed convolution (upsampling) semantics
	DeconvOutPad int
}

// NewFilter allocates a zero-weight filter bank.
func NewFilter(outC, inC, k, stride, pad int) *Filter {
	if outC <= 0 || inC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("sparse: invalid filter %d/%d k=%d s=%d p=%d", outC, inC, k, stride, pad))
	}
	return &Filter{
		OutC: outC, InC: inC, K: k, Stride: stride, Pad: pad,
		Weights: make([]float32, outC*inC*k*k),
	}
}

// OutShape returns the output spatial size for an h x w input.
func (f *Filter) OutShape(h, w int) (oh, ow int) {
	if f.Deconv {
		return (h-1)*f.Stride - 2*f.Pad + f.K + f.DeconvOutPad,
			(w-1)*f.Stride - 2*f.Pad + f.K + f.DeconvOutPad
	}
	return (h+2*f.Pad-f.K)/f.Stride + 1, (w+2*f.Pad-f.K)/f.Stride + 1
}

// MACs returns the dense multiply-accumulate count for an h x w input:
// OutC * OH * OW * InC * K * K. This is the fixed cost the baseline
// pays regardless of how many events the frame holds.
func (f *Filter) MACs(h, w int) int64 {
	oh, ow := f.OutShape(h, w)
	return int64(f.OutC) * int64(oh) * int64(ow) * int64(f.InC) * int64(f.K) * int64(f.K)
}

// checkOut validates a caller-supplied output tensor against the
// filter's expected shape for an h x w input.
func checkOut(out *Tensor, f *Filter, h, w int) (oh, ow int, err error) {
	oh, ow = f.OutShape(h, w)
	if oh <= 0 || ow <= 0 {
		return 0, 0, fmt.Errorf("sparse: conv output %dx%d is empty", oh, ow)
	}
	if out.C != f.OutC || out.H != oh || out.W != ow {
		return 0, 0, fmt.Errorf("sparse: conv output tensor %dx%dx%d != expected %dx%dx%d",
			out.C, out.H, out.W, f.OutC, oh, ow)
	}
	return oh, ow, nil
}

// Conv2DInto computes the dense direct convolution of in with f (the
// transposed convolution if f.Deconv) into a caller-supplied output
// tensor; every element is overwritten. A transposed convolution is a
// scatter and runs as one (SparseConv2DInto).
func Conv2DInto(out *Tensor, in *Tensor, f *Filter) error {
	return Conv2DTiledInto(out, in, f, nil, 1)
}

// convRows computes the flattened (oc, oy) output rows [lo, hi). Every
// element starts at the bias and receives its in-bounds products in
// (ic, ky, kx) ascending order, the order of the direct per-element
// loop; but the loop over a row's elements is the innermost one, so
// the weight is a scalar, the adds of a row do not wait on each other,
// and at stride 1 the row and its input are two equal-length slices.
func convRows(out, in *Tensor, f *Filter, lo, hi int) {
	oh, ow := out.H, out.W
	for r := lo; r < hi; r++ {
		oc, oy := r/oh, r%oh
		orow := out.Data[r*ow : (r+1)*ow]
		var bias float32
		if f.Bias != nil {
			bias = f.Bias[oc]
		}
		for i := range orow {
			orow[i] = bias
		}
		for ic := 0; ic < f.InC; ic++ {
			for ky := 0; ky < f.K; ky++ {
				iy := oy*f.Stride + ky - f.Pad
				if iy < 0 || iy >= in.H {
					continue
				}
				irow := in.Data[(ic*in.H+iy)*in.W:][:in.W]
				for kx, wv := range f.Weights[((oc*f.InC+ic)*f.K+ky)*f.K:][:f.K] {
					// Outputs whose input column ox*Stride + off is
					// inside the row.
					off := kx - f.Pad
					if off >= in.W {
						continue
					}
					first := max(0, (-off+f.Stride-1)/f.Stride)
					last := min(ow, (in.W-1-off)/f.Stride+1)
					if first >= last {
						continue
					}
					if f.Stride == 1 {
						o := orow[first:last]
						x := irow[first+off:][:len(o)]
						for i := range o {
							o[i] += wv * x[i]
						}
						continue
					}
					for ox := first; ox < last; ox++ {
						orow[ox] += wv * irow[ox*f.Stride+off]
					}
				}
			}
		}
	}
}

// SparseConv2DInto computes the convolution touching only active input
// sites: each nonzero input value is scattered through the kernel into
// the affected output positions (gather-scatter / "rulebook" style).
// The arithmetic cost is proportional to nnz(in) * OutC * K * K rather
// than to the full output volume, which is the efficiency E2SF unlocks.
// The result is numerically identical to Conv2DInto: the caller's
// output tensor is fully initialized to the bias before the scatter
// (dense semantics; no prior clearing needed), the input is scanned
// once into a site list and the scatter runs from the list
// (SiteConv.Apply).
func SparseConv2DInto(out *Tensor, in *Tensor, f *Filter) error {
	return SparseConv2DTiledInto(out, in, f, nil, 1)
}

// SubmanifoldConv2DInto computes a submanifold sparse convolution into
// a caller-supplied output tensor: outputs are produced only at sites
// that are active in the input (inactive sites are zeroed), preventing
// the active set from dilating layer after layer. Requires stride 1
// and equal input/output spatial size (K odd, Pad == K/2). Active
// sites are found by a direct row-major scan instead of materializing
// an ActiveSites slice, so the kernel allocates nothing (see
// submanifoldRows).
func SubmanifoldConv2DInto(out *Tensor, in *Tensor, f *Filter) error {
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
	out.Zero()
	submanifoldRows(out, in, f)
	return nil
}

// submanifoldRows runs the active-site scan over every output row with
// the per-(oc, ic) weight-row bases hoisted out of the site loop. The
// accumulation order per site is (oc, ic, ky, kx).
func submanifoldRows(out, in *Tensor, f *Filter) {
	half := f.K / 2
	kk := f.K * f.K
	for oy := 0; oy < in.H; oy++ {
	site:
		for ox := 0; ox < in.W; ox++ {
			active := false
			for c := 0; c < in.C; c++ {
				if in.At(c, oy, ox) != 0 {
					active = true
					break
				}
			}
			if !active {
				continue site
			}
			for oc := 0; oc < f.OutC; oc++ {
				var sum float32
				if f.Bias != nil {
					sum = f.Bias[oc]
				}
				wbase := f.Weights[oc*f.InC*kk:]
				for ic := 0; ic < f.InC; ic++ {
					wch := wbase[ic*kk:]
					for ky := 0; ky < f.K; ky++ {
						iy := oy + ky - half
						if iy < 0 || iy >= in.H {
							continue
						}
						wrow := wch[ky*f.K : ky*f.K+f.K]
						irow := in.Data[(ic*in.H+iy)*in.W:]
						for kx := 0; kx < f.K; kx++ {
							ix := ox + kx - half
							if ix < 0 || ix >= in.W {
								continue
							}
							sum += wrow[kx] * irow[ix]
						}
					}
				}
				out.Set(oc, oy, ox, sum)
			}
		}
	}
}

// SparseConvMACs estimates the multiply-accumulate count of the sparse
// path for a frame of the given active-site count: each active input
// site scatters through OutC * K * K weights per input channel.
func SparseConvMACs(activeSites int, f *Filter) int64 {
	return int64(activeSites) * int64(f.InC) * int64(f.OutC) * int64(f.K) * int64(f.K)
}
