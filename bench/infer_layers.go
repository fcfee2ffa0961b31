package main

import (
	"math/rand"
	"time"

	"evedge/internal/par"
	"evedge/internal/sparse"
)

// nopTask is an empty sharded task: what is left of a dispatch when the
// work costs nothing.
type nopTask struct{}

func (nopTask) RunShard(int, int, *par.Scratch) {}

// layers times infer_numeric's Forward calls per network and probes the
// kernels under them on one of the workload's own inputs.
func (w *inferWorkload) layers(budgetS float64, t *tally) map[string]float64 {
	m := map[string]float64{}
	slice := seconds(budgetS / 8)

	tr, walls, outs := tracedPasses(w, slice, t)
	st := tr.summarize()
	w.trace = tr
	var nnS float64
	perCallMS := func(name string) float64 {
		s := st[name]
		if s == nil {
			return 0
		}
		nnS += s.total.Seconds() / float64(len(walls))
		durs := make([]float64, len(s.durs))
		for i, d := range s.durs {
			durs[i] = float64(d) / float64(time.Millisecond)
		}
		return median(durs)
	}
	for _, k := range w.tasks {
		m["nn.forward_ms_"+spanName(k.name)] = perCallMS("nn.forward_" + spanName(k.name))
	}
	m["nn.forward_dense_ms_"+spanName(w.dense.name)] = perCallMS("nn.forward_dense_" + spanName(w.dense.name))
	m["bench.infer_span_coverage_pct"] = 100 * tr.coverage("pass")
	last := outs[len(outs)-1]

	// sparse: the three convolution kernels on a DOTIE input with
	// DOTIE's layer geometry (5x5, stride 1, same padding — the shape
	// the submanifold kernel accepts) and seeded weights.
	dotie := w.tasks[len(w.tasks)-1]
	l := dotie.rt.Net.Layers[0]
	f := sparse.NewFilter(l.OutC, l.InC, l.K, l.Stride, l.Pad)
	r := rand.New(rand.NewSource(w.seed))
	for i := range f.Weights {
		f.Weights[i] = r.Float32()*2 - 1
	}
	f.Bias = make([]float32, l.OutC)
	in := dotie.inputs[len(dotie.inputs)/2]
	oh, ow := f.OutShape(in.H, in.W)
	out := sparse.NewTensor(f.OutC, oh, ow)
	sites := len(in.ActiveSites())
	var err error
	subNS := timeCalls(slice/2, 5, func() { err = sparse.SubmanifoldConv2DInto(out, in, f) })
	t.call("SubmanifoldConv2DInto", err)
	spNS := timeCalls(slice/2, 5, func() { err = sparse.SparseConv2DInto(out, in, f) })
	t.call("SparseConv2DInto", err)
	dnNS := timeCalls(slice/2, 5, func() { err = sparse.Conv2DInto(out, in, f) })
	t.call("Conv2DInto", err)
	if sites > 0 {
		m["sparse.submanifold_ns_per_site"] = subNS / float64(sites)
		m["sparse.sparseconv_ns_per_mac"] = spNS / float64(sparse.SparseConvMACs(sites, f))
	}
	m["sparse.conv2d_ns_per_mac"] = dnNS / float64(f.MACs(in.H, in.W))
	// Counts computed from tensor contents and sizes, not measured.
	var siteSum float64
	var nInputs int
	for _, k := range w.tasks {
		for _, x := range k.inputs {
			siteSum += float64(len(x.ActiveSites()))
			nInputs++
		}
	}
	m["sparse.active_sites_mean"] = siteSum / float64(nInputs)
	m["sparse.macs_per_frame"] = float64(sparse.SparseConvMACs(int(siteSum/float64(nInputs)), f))

	// Rulebook cache over consecutive DOTIE frames.
	var hit float64
	obsNS := timeCalls(slice/2, 3, func() {
		rb := sparse.NewRulebookCache(l.K, 0)
		for _, fr := range w.coherent {
			rb.Observe(fr)
		}
		hit = rb.Stats().HitRate()
		rb.Close()
	})
	m["sparse.rulebook_hit_ratio"] = hit
	m["sparse.rulebook_observe_ns"] = obsNS / float64(len(w.coherent))

	// par: the worker pool's fixed cost, and a tiled forward against a
	// serial one (timed rounds are serial; outputs must not differ).
	const width = 2
	pool := par.New(width)
	defer pool.Close()
	m["par.pool_width"] = width
	const dispatches = 1024
	m["par.empty_dispatch_ns"] = timeCalls(slice/4, 3, func() {
		for i := 0; i < dispatches; i++ {
			pool.Run(2*width, nopTask{})
		}
	}) / dispatches
	sfn := w.tasks[0]
	var serialSum, tiledSum uint64
	serialNS := timeCalls(slice/2, 3, func() {
		serialSum = 0
		_, err = sfn.forward(sfn.inputs[0], &serialSum)
	})
	t.call("Forward serial", err)
	sfn.rt.SetParallel(pool, 0)
	tiledNS := timeCalls(slice/2, 3, func() {
		tiledSum = 0
		_, err = sfn.forward(sfn.inputs[0], &tiledSum)
	})
	sfn.rt.SetParallel(nil, 1)
	t.call("Forward tiled", err)
	t.check(serialSum == tiledSum, "%s: tiled output checksum %016x != serial %016x", sfn.name, tiledSum, serialSum)
	m["par.tiled_forward_ratio"] = tiledNS / serialNS

	allocs, bytes := memDelta(func() { w.pass(nil, t, nil) })
	if last.frames > 0 {
		m["mem.infer_allocs_per_frame"] = allocs / float64(last.frames)
		m["mem.infer_bytes_per_frame"] = bytes / float64(last.frames)
	}

	m["share.infer.nn_pct"] = sharePct(nnS, median(walls))
	m["share.infer.e2sf_pct"] = 0
	m["share.infer.dsfa_pct"] = 0
	m["share.infer.nmp_pct"] = 0
	m["share.infer.events_pct"] = 0
	m["bench.rounds_run"] = float64(len(walls))
	return m
}
