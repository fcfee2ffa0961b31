// Package pipeline is the end-to-end Ev-Edge inference runtime: event
// camera -> E2SF -> DSFA -> mapped execution on the heterogeneous
// platform (paper Fig. 4). It simulates the streaming behaviour the
// paper evaluates — frames arrive at sensor rate, the executor drains
// them at hardware rate, backlog builds during bursts — under four
// cumulative optimization levels:
//
//	LevelBaseline : dense event frames, all layers on the GPU at FP32,
//	                static framing, one inference per frame.
//	LevelE2SF     : sparse frames from the Event2Sparse Frame
//	                converter; each layer picks the faster of the
//	                dense and sparse kernels.
//	LevelDSFA     : + the Dynamic Sparse Frame Aggregator merging
//	                frames by input dynamics and hardware availability.
//	LevelNMP      : + the Network Mapper's searched per-layer device
//	                and precision assignment.
package pipeline

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"evedge/internal/dsfa"
	"evedge/internal/e2sf"
	"evedge/internal/events"
	"evedge/internal/hw"
	"evedge/internal/mem"
	"evedge/internal/nmp"
	"evedge/internal/nn"
	"evedge/internal/perf"
	"evedge/internal/quant"
	"evedge/internal/scene"
	"evedge/internal/sparse"
)

// Level is a cumulative optimization level.
type Level int

// Optimization levels (each includes the previous).
const (
	LevelBaseline Level = iota
	LevelE2SF
	LevelDSFA
	LevelNMP
)

// String names the level as in Fig. 8.
func (l Level) String() string {
	switch l {
	case LevelBaseline:
		return "all-GPU"
	case LevelE2SF:
		return "+E2SF"
	case LevelDSFA:
		return "+E2SF+DSFA"
	case LevelNMP:
		return "Ev-Edge (all)"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// ParseLevel parses an optimization-level name or number. Accepted
// spellings per level: 0|baseline|all-gpu, 1|e2sf, 2|dsfa, 3|nmp|all|
// ev-edge (case-insensitive). Anything else is an error naming the
// valid levels — never a silent fallback.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "0", "baseline", "all-gpu", "allgpu":
		return LevelBaseline, nil
	case "1", "e2sf", "+e2sf":
		return LevelE2SF, nil
	case "2", "dsfa", "+e2sf+dsfa":
		return LevelDSFA, nil
	case "3", "nmp", "all", "ev-edge", "evedge":
		return LevelNMP, nil
	}
	return 0, fmt.Errorf("pipeline: unknown optimization level %q %s", s, validLevels)
}

// validLevels names the levels in ParseLevel's and Run's errors.
const validLevels = "(valid: 0|all-gpu, 1|e2sf, 2|dsfa, 3|nmp)"

// Config describes one streaming run.
type Config struct {
	Net      *nn.Network
	Platform *hw.Platform
	Level    Level
	// NMP holds the search settings for LevelNMP; zero Population uses
	// nmp.DefaultConfig.
	NMP nmp.Config
	// Scale selects the camera resolution (scene.Full for experiments,
	// scene.Half for fast tests).
	Scale scene.Scale
	// DurUS is the simulated stream duration.
	DurUS int64
	Seed  int64
	// Stream, when non-nil, replaces the scene generator: a pre-generated
	// recording, such as the one stream several runs share. It must be
	// time-sorted. Run only reads it and keeps no reference to it once it
	// returns.
	Stream *events.Stream
}

// Report summarizes a streaming run.
type Report struct {
	Level        Level
	Network      string
	RawFrames    int // sparse frames produced by E2SF
	Invocations  int // inference launches (after DSFA merging)
	BatchedUnits int // model inputs inside those launches

	MeanLatencyUS float64 // per raw frame: completion - readiness
	P99LatencyUS  float64
	MakespanUS    float64
	EnergyJ       float64
	ThroughputFPS float64 // raw frames per second of makespan

	MeanDensity   float64 // mean spatial density of raw frames
	MergeRatio    float64 // raw frames per merged bucket (1 = no merge)
	DroppedFrames int

	// AccuracyDelta = quantization + merge degradation; Accuracy is
	// the resulting metric value (Table 2's Ev-Edge column).
	AccuracyDelta float64
	Accuracy      float64
	// Assignment records the NMP mapping at LevelNMP (nil otherwise).
	Assignment *nmp.Result
}

// TunedDSFA returns the per-task aggregator tuning ("both MtTh and
// MdTh need to be tuned for each task individually"). Segmentation
// keeps merging conservative because of its pixel-wise accuracy
// requirements; high-speed tracking uses cBatch to preserve temporal
// precision.
func TunedDSFA(net *nn.Network) dsfa.Config {
	cfg := dsfa.DefaultConfig()
	switch net.Task {
	case nn.SemanticSegmentation:
		cfg.MBSize = 2
		cfg.MdTh = 0.08
		cfg.MtThUS = 6_000
		cfg.Mode = dsfa.CAdd
	case nn.ObjectTracking:
		cfg.Mode = dsfa.CBatch
		cfg.EBufSize = 12
		cfg.QueueCap = 6
	default:
		cfg.MBSize = 4
		cfg.MdTh = 0.6
		cfg.MtThUS = 30_000
		cfg.Mode = dsfa.CAdd
	}
	return cfg
}

// runPools is what one offline run borrows its frames, accumulation
// grids and invocations from.
type runPools struct {
	frames *mem.FramePool
	invs   *mem.Pool[Invocation]
}

// idleRunPools recycles runPools across Run, RunFrames and RunMultiTask
// calls (see mem.Idle), so a warm run converts into and executes from
// the frames an earlier run returned. A run puts its pools back once
// every frame it borrowed has been returned.
var idleRunPools = mem.Idle[runPools]{New: func() *runPools {
	return &runPools{frames: mem.NewFramePool(), invs: NewInvocationPool()}
}}

// Run converts cfg's stream and runs RunFrames over the frames. Its
// frames, grids and invocations come from pools reused across runs,
// and every one is returned before Run does, on error exits too.
func Run(cfg Config) (*Report, error) {
	pools := idleRunPools.Get()
	rep, err := run(cfg, pools.frames, pools.invs)
	idleRunPools.Put(pools)
	return rep, err
}

// run is Run drawing from the given pools: it converts into pool and
// returns every frame there once the run has read them, and executes
// on the grids pool lends and the invocations invs does.
func run(cfg Config, pool *mem.FramePool, invs *mem.Pool[Invocation]) (*Report, error) {
	if err := resolve(&cfg); err != nil {
		return nil, err
	}
	stream := cfg.Stream
	if stream == nil {
		seq, err := scene.NewSequence(cfg.Net.Input.Preset, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		stream, err = seq.Generate(cfg.DurUS)
		if err != nil {
			return nil, err
		}
	} else if !sorted(stream, runtime.GOMAXPROCS(0)) {
		// E2SF's window slicing assumes timestamp order; reject early
		// rather than silently mis-binning user-provided streams.
		return nil, fmt.Errorf("pipeline: input stream is not time-sorted")
	}
	frames, err := convertStream(cfg.Net, stream, cfg.DurUS, pool, convertShards())
	if err != nil {
		return nil, err
	}
	rep, err := runFrames(cfg, frames, pool, invs)
	for _, f := range frames {
		pool.Put(f)
	}
	return rep, err
}

// resolve validates cfg and fills in its defaults.
func resolve(cfg *Config) error {
	if cfg.Net == nil {
		return fmt.Errorf("pipeline: no network")
	}
	if cfg.Level < LevelBaseline || cfg.Level > LevelNMP {
		return fmt.Errorf("pipeline: unknown optimization level %d %s", int(cfg.Level), validLevels)
	}
	if cfg.Platform == nil {
		cfg.Platform = hw.Xavier()
	}
	if cfg.DurUS <= 0 {
		cfg.DurUS = 1_000_000
	}
	return nil
}

// RunFrames executes the streaming simulation over frames converted
// from a stream of cfg.DurUS for cfg.Net, as ConvertStream converts
// them, and returns the report Run gives for that stream. cfg.Stream
// and cfg.Scale are ignored. It only reads the frames and releases
// none, so concurrent calls, at every level say, may share one set;
// its grids and invocations come from the pools Run reuses.
func RunFrames(cfg Config, frames []*sparse.Frame) (*Report, error) {
	pools := idleRunPools.Get()
	rep, err := runFrames(cfg, frames, pools.frames, pools.invs)
	idleRunPools.Put(pools)
	return rep, err
}

// runFrames is RunFrames borrowing grids from grids and invocations
// from invs.
func runFrames(cfg Config, frames []*sparse.Frame, grids *mem.FramePool, invs *mem.Pool[Invocation]) (*Report, error) {
	if err := resolve(&cfg); err != nil {
		return nil, err
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("pipeline: stream produced no frames")
	}
	density := meanDensity(frames)
	rep := &Report{
		Level:       cfg.Level,
		Network:     cfg.Net.Name,
		RawFrames:   len(frames),
		MeanDensity: density,
	}

	model := perf.NewModel(cfg.Platform)
	plan, nmpRes, mergePenalty, err := buildPlan(cfg, model, frames, density, grids)
	if err != nil {
		return nil, err
	}
	rep.Assignment = nmpRes

	// Accuracy: quantization delta (NMP level) plus merging penalty
	// (DSFA levels).
	quantDelta := 0.0
	if nmpRes != nil {
		quantDelta = nmpRes.Deltas[0]
	}
	rep.AccuracyDelta = quantDelta + mergePenalty
	rep.Accuracy = quant.EvEdgeAccuracy(cfg.Net, rep.AccuracyDelta)

	// The step a served session runs, on a synchronous clock: every
	// frame is held from the start, each invocation starts when the
	// stepper releases it and is done cost later. At LevelDSFA and above
	// frames formed while the hardware was busy merge — the paper's
	// backlog-clearing behaviour (Sec. 4.2). The stepper borrows grids
	// from grids and invocations from invs, as a session's does, and
	// only reads the frames.
	st, err := NewStepper(cfg.Level, TunedDSFA(cfg.Net))
	if err != nil {
		return nil, err
	}
	st.SetPools(invs, grids)
	for _, f := range frames {
		st.Push(f)
	}
	busyPerDev := make([]float64, len(cfg.Platform.Devices))
	latencies := make([]float64, 0, len(frames))
	for inv := st.Release(true); inv != nil; inv = st.Release(true) {
		end := inv.ReadyUS + invocationCost(model, cfg.Net, plan, inv, busyPerDev)
		for _, rr := range inv.PerRaw {
			for k := 0; k < rr.N; k++ {
				latencies = append(latencies, end-rr.ReadyUS)
			}
		}
		rep.Invocations++
		rep.BatchedUnits += len(inv.Inputs)
		invs.Put(inv)
		st.Done(end)
	}
	rep.MergeRatio = 1
	if cfg.Level >= LevelDSFA {
		stats := st.Stats()
		rep.MergeRatio = stats.MergeRatio()
		rep.DroppedFrames = stats.DroppedFrames
	}

	rep.MakespanUS = st.Clock()
	horizon := math.Max(rep.MakespanUS, float64(cfg.DurUS))
	rep.ThroughputFPS = float64(rep.RawFrames) / (horizon * 1e-6)
	var energy float64
	for _, d := range cfg.Platform.Devices {
		busy := busyPerDev[d.ID]
		if busy > horizon {
			busy = horizon
		}
		energy += d.ActiveWatts*busy*1e-6 + d.IdleWatts*(horizon-busy)*1e-6
	}
	rep.EnergyJ = energy

	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	if len(latencies) > 0 {
		rep.MeanLatencyUS = sum / float64(len(latencies))
		rep.P99LatencyUS = latencies[int(float64(len(latencies))*0.99)]
	}
	return rep, nil
}

// meanDensity is the frames' mean spatial density, summed in order.
func meanDensity(frames []*sparse.Frame) float64 {
	if len(frames) == 0 {
		return 0
	}
	var sum float64
	for _, f := range frames {
		sum += f.Density()
	}
	return sum / float64(len(frames))
}

// ConvertStream frames [0, durUS) of stream by the network's input
// spec (NewFramer): count framing's bursts raise the realized frame
// rate, time framing's does not. The frames are freshly allocated and
// the caller owns them; the float64 is their mean spatial density.
func ConvertStream(net *nn.Network, stream *events.Stream, durUS int64) ([]*sparse.Frame, float64, error) {
	frames, err := convertStream(net, stream, durUS, nil, convertShards())
	return frames, meanDensity(frames), err
}

// convertStream is ConvertStream taking its frames and accumulation
// grids from pool, or, when pool is nil, from a private pool of each
// converter's, which leaves the frames the caller's, and converting
// on up to shards goroutines. Its jobs — one window for time framing,
// one run of N events for count framing — each yield a known number of
// frames, so every shard frames a contiguous range of jobs with a
// framer of its own, seeded where the range starts, straight into its
// slots of the output: the frames are one framer's, bit for bit, in the
// same order. Everything that can fail is checked before any shard
// starts, so an error leaves nothing borrowed.
func convertStream(net *nn.Network, stream *events.Stream, durUS int64, pool *mem.FramePool, shards int) ([]*sparse.Frame, error) {
	in := net.Input
	w, h := stream.Width, stream.Height
	// A shard's NewFramer cannot fail once this one has not.
	if _, err := NewFramer(in, w, h, 0, pool); err != nil {
		return nil, err
	}
	evs := stream.Window(0, max(durUS, 0))
	if in.Framing == nn.FrameByCount {
		// Job j is events [j·count, (j+1)·count) and one frame; the last
		// may be partial and ends at durUS. A range starts where the
		// previous range's last run ended.
		count := in.EventsPerFrame(w, h)
		jobs := (len(evs) + count - 1) / count
		out := make([]*sparse.Frame, jobs)
		shard(jobs, shards, func(a, b int) {
			seed := int64(0)
			if a > 0 {
				seed = evs[a*count-1].TS + 1
			}
			fr, _ := NewFramer(in, w, h, seed, pool)
			fr.Close(out[a:a:b], evs[a*count:min(b*count, len(evs))], durUS)
		})
		return out, nil
	}
	windows := int(max(durUS, 0) / in.WindowUS)
	perWindow := (in.NumBins + in.GroupK - 1) / in.GroupK
	out := make([]*sparse.Frame, windows*perWindow)
	shard(windows, shards, func(a, b int) {
		t0, t1 := int64(a)*in.WindowUS, int64(b)*in.WindowUS
		fr, _ := NewFramer(in, w, h, t0, pool)
		fr.Close(out[a*perWindow:a*perWindow:b*perWindow], stream.Window(t0, t1), t1)
	})
	return out, nil
}

// NewFramer returns the framer of a network's input on a w x h stream,
// its first run or window starting at seed: a frame every N events (the
// zoo's InputSpec.EventsPerFrame at that geometry) or each window's
// Eq. 1 bins grouped into inference inputs, on frames and grids from
// pool (nil: fresh frames, the caller's). A served session frames
// through it too.
func NewFramer(in nn.InputSpec, w, h int, seed int64, pool *mem.FramePool) (*e2sf.Framer, error) {
	conv, err := e2sf.NewFused(e2sf.Config{Width: w, Height: h, NumBins: in.NumBins}, pool)
	if err != nil {
		return nil, err
	}
	if in.Framing == nn.FrameByCount {
		return e2sf.NewCountFramer(conv, seed, in.EventsPerFrame(w, h))
	}
	return e2sf.NewWindowFramer(conv, seed, in.WindowUS, in.GroupK)
}

// convertShards is the shard count of a run's conversion: one per core,
// at most 8. A shard holds a grid while it converts and mem.FramePool
// keeps 8 free ones, so a warm run on more shards would allocate the
// others anew every time.
func convertShards() int { return min(runtime.GOMAXPROCS(0), 8) }

// shard splits n jobs into min(p, n) contiguous ranges of near-equal
// length and runs fn(lo, hi) on each concurrently, range 0 on the
// calling goroutine; it returns once every range has.
func shard(n, p int, fn func(lo, hi int)) {
	p = min(p, n)
	if p <= 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(p - 1)
	for i := 1; i < p; i++ {
		go func() {
			defer wg.Done()
			fn(i*n/p, (i+1)*n/p)
		}()
	}
	fn(0, n/p)
	wg.Wait()
}

// sorted is Stream.Sorted checked on up to shards goroutines, each on
// its range and the event before it: neighbouring ranges overlap by one
// event, so an inversion across a range edge is seen.
func sorted(s *events.Stream, shards int) bool {
	var unsorted atomic.Bool
	shard(len(s.Events), shards, func(lo, hi int) {
		view := events.Stream{Events: s.Events[max(lo-1, 0):hi]}
		if !view.Sorted() {
			unsorted.Store(true)
		}
	})
	return !unsorted.Load()
}

// buildPlan decides mapping, precision and representation per level,
// returning the NMP result (LevelNMP) and the DSFA merge accuracy
// penalty (LevelDSFA and up). density is the frames' mean spatial
// density, which LevelNMP profiles the network at; the merge-ratio dry
// run borrows its grids from grids. It only reads the frames.
func buildPlan(cfg Config, model *perf.Model, frames []*sparse.Frame, density float64, grids *mem.FramePool) (*ExecPlan, *nmp.Result, float64, error) {
	net := cfg.Net
	// The all-GPU implementation deploys at half precision, TensorRT's
	// best practice on Xavier; Ev-Edge's precision gains come from
	// INT8, not from beating an artificially slow FP32 baseline.
	p, err := DefaultPlan(net, cfg.Platform, cfg.Level >= LevelE2SF)
	if err != nil {
		return nil, nil, 0, err
	}
	if cfg.Level == LevelBaseline {
		// Dense event-frame construction: full tensor stores per frame.
		p.FramingOps = int64(2 * frames[0].H * frames[0].W)
	}

	mergePenalty := 0.0
	if cfg.Level >= LevelDSFA {
		// Estimate the merge ratio by dry-running the aggregator with
		// every frame pushed and a single dispatch. The inference queue
		// sheds every bucket but the last QueueCap on the way, so the
		// ratio is that of the stream's tail, not an upper bound on
		// merging (ROADMAP item 22).
		agg, err := dsfa.New(TunedDSFA(cfg.Net))
		if err != nil {
			return nil, nil, 0, err
		}
		agg.SetPool(grids)
		for _, f := range frames {
			agg.Push(f)
		}
		agg.Dispatch()
		mergePenalty = quant.MergePenalty(net, agg.Stats().MergeRatio())
	}

	if cfg.Level < LevelNMP {
		return p, nil, mergePenalty, nil
	}

	// LevelNMP: search device + precision for the single task.
	db, err := perf.BuildProfileDB(model, []*nn.Network{net}, true, []float64{density})
	if err != nil {
		return nil, nil, 0, err
	}
	ncfg := cfg.NMP
	if ncfg.Population == 0 {
		ncfg = nmp.DefaultConfig()
		ncfg.Seed = cfg.Seed + 1
	}
	mapper, err := nmp.NewMapper(db, model, ncfg)
	if err != nil {
		return nil, nil, 0, err
	}
	// The merge penalty spends part of the Table 2 budget; the
	// quantization search gets the remainder.
	budget := quant.Table2Delta(net.Name) - mergePenalty
	if budget <= 0 {
		budget = 0.05 * quant.Table2Delta(net.Name)
	}
	if err := mapper.SetBudgets([]float64{budget}); err != nil {
		return nil, nil, 0, err
	}
	res, err := mapper.Search()
	if err != nil {
		return nil, nil, 0, err
	}
	copy(p.Device, res.Assignment.Device[0])
	copy(p.Prec, res.Assignment.Prec[0])
	return p, res, mergePenalty, nil
}
