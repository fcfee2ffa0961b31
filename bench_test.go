package evedge_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	evedge "evedge"
	"evedge/internal/dsfa"
	"evedge/internal/e2sf"
	"evedge/internal/hw"
	"evedge/internal/nmp"
	"evedge/internal/nn"
	"evedge/internal/perf"
	"evedge/internal/pipeline"
	"evedge/internal/scene"
	"evedge/internal/sparse"
	"evedge/internal/taskgraph"
)

// benchConfig sizes the experiment benchmarks. The harness uses the
// full DAVIS346 geometry; results are cached across b.N iterations by
// the experiments package, so the first iteration pays the simulation
// cost and the table below reflects steady-state regeneration.
func benchConfig() evedge.ExperimentConfig { return evedge.FullExperimentConfig() }

func ratioCell(b *testing.B, cell string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		b.Fatalf("bad ratio cell %q: %v", cell, err)
	}
	return v
}

// runExperiment executes one experiment per iteration and prints the
// regenerated table once.
func runExperiment(b *testing.B, id string) *evedge.ExperimentResult {
	b.Helper()
	var res *evedge.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = evedge.RunExperiment(id, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + evedge.RenderExperiment(res))
	return res
}

// BenchmarkTable1 regenerates the network summary (paper Table 1).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig1 regenerates Figure 1: events per frame vs operations
// expended for Adaptive-SpikeNet on IndoorFlying1.
func BenchmarkFig1(b *testing.B) {
	res := runExperiment(b, "fig1")
	waste := ratioCell(b, res.Rows[4][1])
	b.ReportMetric(waste, "waste-factor")
}

// BenchmarkFig3 regenerates Figure 3: per-network event-frame density.
func BenchmarkFig3(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig5 regenerates Figure 5: IndoorFlying2 temporal density.
func BenchmarkFig5(b *testing.B) {
	res := runExperiment(b, "fig5")
	b.ReportMetric(ratioCell(b, res.Rows[3][1]), "peak/mean")
}

// BenchmarkFig8 regenerates Figure 8: single-task speedups vs all-GPU
// at each optimization level (paper band 1.23x-2.05x).
func BenchmarkFig8(b *testing.B) {
	res := runExperiment(b, "fig8")
	var minAll, maxAll = 100.0, 0.0
	for _, row := range res.Rows {
		v := ratioCell(b, row[3])
		if v < minAll {
			minAll = v
		}
		if v > maxAll {
			maxAll = v
		}
	}
	b.ReportMetric(minAll, "min-speedup")
	b.ReportMetric(maxAll, "max-speedup")
}

// BenchmarkEnergy regenerates the Sec. 6 energy comparison (paper band
// 1.23x-2.15x).
func BenchmarkEnergy(b *testing.B) {
	res := runExperiment(b, "energy")
	var minR, maxR = 100.0, 0.0
	for _, row := range res.Rows {
		v := ratioCell(b, row[3])
		if v < minR {
			minR = v
		}
		if v > maxR {
			maxR = v
		}
	}
	b.ReportMetric(minR, "min-improvement")
	b.ReportMetric(maxR, "max-improvement")
}

// BenchmarkFig9 regenerates Figure 9: multi-task NMP vs round-robin
// (paper: 1.43x-1.81x over RR-Network, 1.24x-1.41x over RR-Layer).
func BenchmarkFig9(b *testing.B) {
	res := runExperiment(b, "fig9")
	for _, row := range res.Rows {
		b.ReportMetric(ratioCell(b, row[2]), row[0]+"-vs-RRNet")
	}
}

// BenchmarkFig10a regenerates Figure 10a: search convergence.
func BenchmarkFig10a(b *testing.B) {
	res := runExperiment(b, "fig10a")
	b.ReportMetric(ratioCell(b, res.Rows[3][1]), "convergence-gain")
}

// BenchmarkFig10b regenerates Figure 10b: evolutionary vs random
// search (paper: 1.42x).
func BenchmarkFig10b(b *testing.B) {
	res := runExperiment(b, "fig10b")
	b.ReportMetric(ratioCell(b, res.Rows[2][1]), "vs-random")
}

// BenchmarkTable2 regenerates the accuracy table.
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// ---------------------------------------------------------------------------
// Ablation benchmarks for the design choices README and EXPERIMENTS.md describe.
// ---------------------------------------------------------------------------

// BenchmarkAblationE2SFDirect compares direct event->sparse conversion
// against the dense-frame-then-sparsify detour whose encode overhead
// the paper's Sec. 4.1 motivates against.
func BenchmarkAblationE2SFDirect(b *testing.B) {
	stream := scene.GenerateUniform(346, 260, 400_000, 100_000, 1)
	conv, err := e2sf.NewFused(e2sf.Config{Width: 346, Height: 260, NumBins: 5}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := conv.ConvertGroupedAppend(nil, stream, 0, 100_000, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-then-sparsify", func(b *testing.B) {
		dense := sparse.NewTensor(2, 260, 346)
		for i := 0; i < b.N; i++ {
			frames, _, err := conv.ConvertGroupedAppend(nil, stream, 0, 100_000, 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range frames {
				f.DenseInto(dense)
				if _, err := sparse.FromDense(dense, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationSparseConv compares the dense and sparse
// convolution kernels at event-frame density.
func BenchmarkAblationSparseConv(b *testing.B) {
	in := sparse.NewTensor(2, 128, 128)
	in.FillRandomSparse(rand.New(rand.NewSource(3)), 0.05)
	f := sparse.NewFilter(16, 2, 3, 1, 1)
	for i := range f.Weights {
		f.Weights[i] = 0.01 * float32(i%7)
	}
	out := sparse.NewTensor(16, 128, 128)
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := sparse.Conv2DInto(out, in, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := sparse.SparseConv2DInto(out, in, f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDSFAModes measures the aggregator under each merge
// mode.
func BenchmarkAblationDSFAModes(b *testing.B) {
	frames := benchFrames(b)
	for _, mode := range []dsfa.CMode{dsfa.CAdd, dsfa.CAverage, dsfa.CBatch} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := dsfa.DefaultConfig()
				cfg.Mode = mode
				agg, err := dsfa.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range frames {
					agg.Push(f)
				}
				agg.Dispatch()
			}
		})
	}
}

// BenchmarkAblationDSFAThresholds sweeps the MtTh delay threshold and
// reports the achieved merge ratio.
func BenchmarkAblationDSFAThresholds(b *testing.B) {
	frames := benchFrames(b)
	for _, mtth := range []int64{2_000, 10_000, 50_000} {
		b.Run(fmt.Sprintf("MtTh=%dus", mtth), func(b *testing.B) {
			var mr float64
			for i := 0; i < b.N; i++ {
				cfg := dsfa.DefaultConfig()
				cfg.MtThUS = mtth
				agg, err := dsfa.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range frames {
					agg.Push(f)
				}
				agg.Dispatch()
				mr = agg.Stats().MergeRatio()
			}
			b.ReportMetric(mr, "merge-ratio")
		})
	}
}

// BenchmarkAblationCommAware compares scheduling with realistic
// unified-memory transfers against a free-communication idealization
// (the compute-only view some mapping frameworks take).
func BenchmarkAblationCommAware(b *testing.B) {
	for _, free := range []bool{false, true} {
		name := "comm-aware"
		platform := hw.Xavier()
		if free {
			name = "comm-free"
			platform.Link.BandwidthBps = 1e18
			platform.Link.LatencyUS = 0
		}
		model := perf.NewModel(platform)
		nets := []*nn.Network{nn.MustByName(nn.FusionFlowNet), nn.MustByName(nn.HALSIE)}
		db, err := perf.BuildProfileDB(model, nets, true, []float64{0.01, 0.2})
		if err != nil {
			b.Fatal(err)
		}
		asg, err := nmp.RRLayer(nets, platform)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				g, err := taskgraph.Build(db, model, asg)
				if err != nil {
					b.Fatal(err)
				}
				s, err := g.Run(platform)
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.MakespanUS
			}
			b.ReportMetric(makespan, "makespan-us")
		})
	}
}

// BenchmarkAblationNMPPopulation sweeps the population size at a fixed
// evaluation budget.
func BenchmarkAblationNMPPopulation(b *testing.B) {
	db, model := benchWorkload(b)
	for _, pop := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("pop=%d", pop), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				cfg := nmp.DefaultConfig()
				cfg.Population = pop
				cfg.Generations = 320 / pop
				mp, err := nmp.NewMapper(db, model, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := mp.Search()
				if err != nil {
					b.Fatal(err)
				}
				lat = res.LatencyUS
			}
			b.ReportMetric(lat, "latency-us")
		})
	}
}

// BenchmarkPipelineLevels measures one full streaming run per level
// for SpikeFlowNet at test scale.
func BenchmarkPipelineLevels(b *testing.B) {
	stream, err := evedge.GenerateSequence(scene.IndoorFlying2, evedge.HalfScale, 5, 800_000)
	if err != nil {
		b.Fatal(err)
	}
	net, err := evedge.LoadNetwork(evedge.SpikeFlowNet)
	if err != nil {
		b.Fatal(err)
	}
	for _, lvl := range []evedge.Level{evedge.LevelBaseline, evedge.LevelE2SF, evedge.LevelDSFA} {
		b.Run(lvl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := evedge.RunPipeline(evedge.PipelineConfig{
					Net: net, Level: lvl, Stream: stream,
					Scale: evedge.HalfScale, DurUS: 800_000, Seed: 5,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- helpers ---------------------------------------------------------------

func benchFrames(b *testing.B) []*sparse.Frame {
	b.Helper()
	stream := scene.GenerateUniform(173, 130, 200_000, 500_000, 2)
	net := nn.MustByName(nn.SpikeFlowNet)
	frames, _, err := pipeline.ConvertStream(net, stream, 500_000)
	if err != nil {
		b.Fatal(err)
	}
	return frames
}

func benchWorkload(b *testing.B) (*perf.ProfileDB, *perf.Model) {
	b.Helper()
	platform := hw.Xavier()
	model := perf.NewModel(platform)
	nets := []*nn.Network{nn.MustByName(nn.DOTIE), nn.MustByName(nn.SpikeFlowNet)}
	db, err := perf.BuildProfileDB(model, nets, true, []float64{0.005, 0.01})
	if err != nil {
		b.Fatal(err)
	}
	return db, model
}

// BenchmarkAblationCrossPlatform runs the same multi-task search on
// the Xavier and Orin platform models, demonstrating that the mapper
// ports across commodity platforms (and that the faster board shifts
// the optimum, not just scales it).
func BenchmarkAblationCrossPlatform(b *testing.B) {
	nets := []*nn.Network{nn.MustByName(nn.FusionFlowNet), nn.MustByName(nn.HALSIE)}
	for _, platName := range hw.Platforms() {
		platform, err := hw.PlatformByName(platName)
		if err != nil {
			b.Fatal(err)
		}
		model := perf.NewModel(platform)
		db, err := perf.BuildProfileDB(model, nets, true, []float64{0.01, 0.2})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(platName, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				cfg := nmp.DefaultConfig()
				cfg.Population = 16
				cfg.Generations = 20
				mp, err := nmp.NewMapper(db, model, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := mp.Search()
				if err != nil {
					b.Fatal(err)
				}
				lat = res.LatencyUS
			}
			b.ReportMetric(lat, "latency-us")
		})
	}
}

// BenchmarkAblationEnergyObjective compares the latency- and
// energy-objective searches (paper Sec. 4.3: "this procedure can be
// repeated to optimize for other objectives such as energy as well").
func BenchmarkAblationEnergyObjective(b *testing.B) {
	db, model := benchWorkload(b)
	for _, obj := range []nmp.Objective{nmp.MinLatency, nmp.MinEnergy} {
		name := "latency"
		if obj == nmp.MinEnergy {
			name = "energy"
		}
		b.Run(name, func(b *testing.B) {
			var lat, en float64
			for i := 0; i < b.N; i++ {
				cfg := nmp.DefaultConfig()
				cfg.Population = 16
				cfg.Generations = 20
				cfg.Objective = obj
				mp, err := nmp.NewMapper(db, model, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := mp.Search()
				if err != nil {
					b.Fatal(err)
				}
				lat, en = res.LatencyUS, res.EnergyJ
			}
			b.ReportMetric(lat, "latency-us")
			b.ReportMetric(en*1000, "energy-mJ")
		})
	}
}
