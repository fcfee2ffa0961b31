package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"evedge/internal/nn"
	"evedge/internal/par"
	"evedge/internal/sparse"
)

// The par/rulebook experiments are repo-native (no counterpart in the
// paper): they characterize the tiled kernel library and the
// temporal-coherence rulebook cache directly. Nothing in the serving
// path runs either — these tables are about wall clock and cache
// behaviour, not about the simulated accelerators.

// measureNs times fn (which must already include any per-op loop) by
// repeating it until ~40ms of wall clock accumulates.
func measureNs(fn func()) float64 {
	fn() // warm caches, pools and the branch predictor's first guess
	start := time.Now()
	n := 0
	for time.Since(start) < 40*time.Millisecond {
		fn()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// parProjectNs is the work-span projection: shards split units with
// the kernels' splitRange arithmetic, the largest shard bounds the
// span, and the measured empty-dispatch cost rides on top.
func parProjectNs(serialNs float64, units, cpus, shards int, overheadNs float64) float64 {
	maxShard := 0
	for s := 0; s < shards; s++ {
		lo, hi := s*units/shards, (s+1)*units/shards
		if hi-lo > maxShard {
			maxShard = hi - lo
		}
	}
	span := serialNs * float64(maxShard) / float64(units)
	if ideal := serialNs / float64(cpus); ideal > span {
		span = ideal
	}
	return span + overheadNs
}

type parNoop struct{}

func (parNoop) RunShard(int, int, *par.Scratch) {}

// Par regenerates the core-scaling table: serial vs tiled sparse
// kernels across Config.CPUList. Measured wall time is whatever the
// host delivers (honest on any core count); the projected column is
// the deterministic work-span bound for the stated core count.
func Par(cfg Config) (*Result, error) {
	cpus := cfg.CPUList
	if len(cpus) == 0 {
		cpus = []int{1, 2, 4, 8}
	}
	for _, c := range cpus {
		if c < 1 {
			return nil, fmt.Errorf("experiments: cpu list entry %d < 1", c)
		}
	}
	size := 128
	if cfg.Quick {
		size = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := sparse.NewTensor(2, size, size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			if rng.Float64() < 0.05 {
				for c := 0; c < in.C; c++ {
					in.Set(c, y, x, rng.Float32())
				}
			}
		}
	}
	f := sparse.NewFilter(8, 2, 3, 1, 1)
	for i := range f.Weights {
		f.Weights[i] = rng.Float32() - 0.5
	}
	oh, ow := f.OutShape(in.H, in.W)
	outConv := sparse.NewTensor(f.OutC, oh, ow)

	kernels := []struct {
		name   string
		units  int
		serial func()
		tiled  func(pool *par.Pool, shards int)
	}{
		{"sparse_conv2d", f.OutC,
			func() { _ = sparse.SparseConv2DInto(outConv, in, f) },
			func(p *par.Pool, s int) { _ = sparse.SparseConv2DTiledInto(outConv, in, f, p, s) }},
		{"conv2d", f.OutC * oh * ow,
			func() { _ = sparse.Conv2DInto(outConv, in, f) },
			func(p *par.Pool, s int) { _ = sparse.Conv2DTiledInto(outConv, in, f, p, s) }},
	}

	res := &Result{
		ID:     "par",
		Title:  "Tiled sparse kernels: measured wall time and work-span core scaling",
		Header: []string{"kernel", "cpus", "serial us/op", "tiled wall us/op", "projected us/op", "projected speedup"},
		PaperRef: "repo-native (no paper counterpart): tiled kernels are bit-identical to serial, " +
			"so only host wall clock changes",
		Notes: []string{
			fmt.Sprintf("host has %d CPU core(s); measured tiled wall time shows real speedup only when the host has the stated cores", runtime.NumCPU()),
			"projected = max(serial/cpus, largest-shard share) + measured empty-dispatch overhead",
		},
	}
	for _, k := range kernels {
		serialNs := measureNs(k.serial)
		for _, c := range cpus {
			pool := par.New(c)
			shards := 2 * c
			overhead := 0.0
			if c > 1 {
				overhead = measureNs(func() { pool.Run(shards, parNoop{}) })
			}
			wallNs := measureNs(func() { k.tiled(pool, shards) })
			pool.Close()
			projNs := parProjectNs(serialNs, k.units, c, shards, overhead)
			res.addRow(k.name, fmt.Sprintf("%d", c),
				fmt.Sprintf("%.1f", serialNs/1e3),
				fmt.Sprintf("%.1f", wallNs/1e3),
				fmt.Sprintf("%.1f", projNs/1e3),
				fmt.Sprintf("%.2fx", serialNs/projNs))
		}
	}
	return res, nil
}

// Rulebook regenerates the temporal-coherence table: rulebook-cache
// hit rates over real scene streams (coherent tracker vs fast
// ego-motion), observed on their E2SF frames directly.
func Rulebook(cfg Config) (*Result, error) {
	res := &Result{
		ID:     "rulebook",
		Title:  "Rulebook cache temporal coherence: delta-revalidation hit rates",
		Header: []string{"workload", "frames", "hits", "misses", "hit rate", "sites carried", "saved scan elems"},
		PaperRef: "repo-native (no paper counterpart): coherence is a property of the event stream; " +
			"results are identical on hit and miss paths",
	}
	for _, name := range []string{nn.DOTIE, nn.SpikeFlowNet} {
		net, err := nn.ByName(name)
		if err != nil {
			return nil, err
		}
		frames, _, err := frameStats(cfg, net)
		if err != nil {
			return nil, err
		}
		cache := sparse.NewRulebookCache(3, 0)
		var saved uint64
		for _, fr := range frames {
			as, _ := cache.Observe(fr)
			if n := fr.H*fr.W - as.Sites(); n > 0 {
				saved += uint64(n)
			}
		}
		st := cache.Stats()
		res.addRow("scene/"+name,
			fmt.Sprintf("%d", st.Frames), fmt.Sprintf("%d", st.Hits), fmt.Sprintf("%d", st.Misses),
			fmt.Sprintf("%.3f", st.HitRate()),
			fmt.Sprintf("%d", st.SitesCarried), fmt.Sprintf("%d", saved))
	}
	return res, nil
}
