package sparse

import (
	"fmt"
	"sync"

	"evedge/internal/par"
)

// Tiled kernel variants: the serial compute kernels re-expressed as
// par.Tasks that partition work by DISJOINT output ranges. Each output
// element is produced by exactly one shard with the same inner-loop
// accumulation order as the serial kernel, so results are
// bit-identical to the serial variants for every shard count and
// worker schedule (property-tested in tiled_test.go). That invariant
// is what lets the serving layer turn parallelism on without
// perturbing byte-identical scenario replay.
//
// Sharding choices:
//
//   - Conv2DTiledInto flattens (out-channel, output-row) pairs into one
//     row index space and splits it into contiguous ranges — each
//     element is computed independently, so any partition works.
//   - SparseConv2DTiledInto (scatter.go) shards output channels; every
//     shard walks the whole site list and applies the updates of its
//     channels. Per output element the contributions still arrive in
//     (ic, iy, ix) ascending order.
//   - SubmanifoldConv2DTiledInto shards output rows of the active-site
//     scan; inactive rows are zeroed by their owning shard.
//   - SpMMTiledInto shards CSR output rows.
//
// Task structs are free-listed so a warm steady state dispatches with
// zero heap allocations (see the serve alloc-regression suite).

// splitRange returns shard's half-open slice of [0, n) under an even
// contiguous partition into shards parts.
func splitRange(shard, shards, n int) (lo, hi int) {
	return shard * n / shards, (shard + 1) * n / shards
}

// clampShards bounds the requested shard count by the available rows.
func clampShards(shards, rows int) int {
	if shards > rows {
		shards = rows
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// conv2DTask is one dense direct convolution sharded over flattened
// (oc, oy) rows.
type conv2DTask struct {
	out, in *Tensor
	f       *Filter
}

var conv2DTasks = sync.Pool{New: func() any { return new(conv2DTask) }}

func (t *conv2DTask) RunShard(shard, shards int, _ *par.Scratch) {
	lo, hi := splitRange(shard, shards, t.f.OutC*t.out.H)
	convRows(t.out, t.in, t.f, lo, hi)
}

// Conv2DTiledInto is Conv2DInto executed across pool shards; results
// are bit-identical for every pool and shard count. shards <= 1 or a
// nil/serial pool computes all rows on the caller.
func Conv2DTiledInto(out, in *Tensor, f *Filter, pool *par.Pool, shards int) error {
	if f.Deconv {
		return SparseConv2DTiledInto(out, in, f, pool, shards)
	}
	if in.C != f.InC {
		return fmt.Errorf("sparse: conv input channels %d != filter %d", in.C, f.InC)
	}
	oh, _, err := checkOut(out, f, in.H, in.W)
	if err != nil {
		return err
	}
	if pool.Size() <= 1 || shards <= 1 {
		convRows(out, in, f, 0, f.OutC*oh)
		return nil
	}
	t := conv2DTasks.Get().(*conv2DTask)
	t.out, t.in, t.f = out, in, f
	pool.Run(clampShards(shards, f.OutC*oh), t)
	t.out, t.in, t.f = nil, nil, nil
	conv2DTasks.Put(t)
	return nil
}

// submanifoldTask is one submanifold convolution sharded over output
// rows; each shard zeroes and computes its own rows.
type submanifoldTask struct {
	out, in *Tensor
	f       *Filter
}

var submanifoldTasks = sync.Pool{New: func() any { return new(submanifoldTask) }}

func (t *submanifoldTask) RunShard(shard, shards int, _ *par.Scratch) {
	f, in, out := t.f, t.in, t.out
	lo, hi := splitRange(shard, shards, in.H)
	for oc := 0; oc < f.OutC; oc++ {
		base := (oc*out.H + lo) * out.W
		row := out.Data[base : base+(hi-lo)*out.W]
		for i := range row {
			row[i] = 0
		}
	}
	submanifoldRows(out, in, f, lo, hi)
}

// submanifoldRows runs the active-site scan over output rows [lo, hi)
// with the per-(oc, ic) weight-row bases hoisted out of the site loop.
// It is the shared inner body of SubmanifoldConv2DInto (full range)
// and the tiled variant (one shard's range); the accumulation order
// per site is (oc, ic, ky, kx) either way.
func submanifoldRows(out, in *Tensor, f *Filter, lo, hi int) {
	half := f.K / 2
	kk := f.K * f.K
	for oy := lo; oy < hi; oy++ {
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

// SubmanifoldConv2DTiledInto is SubmanifoldConv2DInto executed across
// pool shards over disjoint output-row ranges, bit-identical to the
// serial kernel.
func SubmanifoldConv2DTiledInto(out, in *Tensor, f *Filter, pool *par.Pool, shards int) error {
	if pool.Size() <= 1 || shards <= 1 {
		return SubmanifoldConv2DInto(out, in, f)
	}
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
	shards = clampShards(shards, in.H)
	t := submanifoldTasks.Get().(*submanifoldTask)
	t.out, t.in, t.f = out, in, f
	pool.Run(shards, t)
	t.out, t.in, t.f = nil, nil, nil
	submanifoldTasks.Put(t)
	return nil
}

// spmmTask is one CSR x dense product sharded over output rows.
type spmmTask struct {
	m   *CSR
	d   *Mat
	out *Mat
}

var spmmTasks = sync.Pool{New: func() any { return new(spmmTask) }}

func (t *spmmTask) RunShard(shard, shards int, _ *par.Scratch) {
	m, d, out := t.m, t.d, t.out
	lo, hi := splitRange(shard, shards, m.Rows)
	zero := out.Data[lo*out.Cols : hi*out.Cols]
	for i := range zero {
		zero[i] = 0
	}
	for i := lo; i < hi; i++ {
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			v := m.Vals[k]
			drow := d.Data[int(m.ColIdx[k])*d.Cols : (int(m.ColIdx[k])+1)*d.Cols]
			for j, dv := range drow {
				orow[j] += v * dv
			}
		}
	}
}

// SpMMTiledInto is SpMMInto executed across pool shards over disjoint
// output-row ranges, bit-identical to the serial kernel.
func (m *CSR) SpMMTiledInto(out, d *Mat, pool *par.Pool, shards int) error {
	if pool.Size() <= 1 || shards <= 1 {
		return m.SpMMInto(out, d)
	}
	if d.Rows != m.Cols {
		return fmt.Errorf("sparse: SpMM shape mismatch %dx%d x %dx%d", m.Rows, m.Cols, d.Rows, d.Cols)
	}
	if out.Rows != m.Rows || out.Cols != d.Cols {
		return fmt.Errorf("sparse: SpMM output %dx%d, want %dx%d", out.Rows, out.Cols, m.Rows, d.Cols)
	}
	shards = clampShards(shards, m.Rows)
	t := spmmTasks.Get().(*spmmTask)
	t.m, t.d, t.out = m, d, out
	pool.Run(shards, t)
	t.m, t.d, t.out = nil, nil, nil
	spmmTasks.Put(t)
	return nil
}
