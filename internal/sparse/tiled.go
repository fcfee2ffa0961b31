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
