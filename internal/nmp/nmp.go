// Package nmp implements the Network Mapper (paper Sec. 4.3): an
// offline evolutionary search that assigns every layer of one or more
// concurrently executing networks to a processing element *and* a
// precision, minimizing the maximum task latency subject to per-task
// accuracy-degradation bounds (Eq. 2):
//
//	min max_i Latency(T_i)  s.t.  ΔA_1..ΔA_n <= ΔA
//
// Candidate fitness uses the Eq. 3 list scheduler over profiled layer
// times plus the quantization accuracy model evaluated on a sampled
// validation subset; fitness values are cached per candidate, and new
// generations form by neighbor-pair crossover and random layer
// mutation, exactly following the paper's search description.
//
// A search is usable at session-create latency because a candidate
// costs only its own pricing. Each search run owns one evaluator — one
// taskgraph.Graph and one taskgraph.Schedule rebuilt in place per
// candidate (BuildInto, RunInto), nothing allocated once they have seen
// the workload — and the subset noise is quant's counter-based draw,
// keyed by Seed ^ hash(candidate) + task: the same candidate always
// reads the same deltas (so the fitness cache is sound), different
// tasks read independent ones, and no generator is seeded per call.
//
// The package also provides the comparison policies of the evaluation:
// the all-GPU baseline, coarse round-robin over networks (RR-Network),
// fine round-robin over layers (RR-Layer), the full-precision-only
// search variant (Ev-Edge-NMP-FP), and generation-matched random
// search (Fig. 10b).
package nmp

import (
	"fmt"
	"math/rand"
	"sort"

	"evedge/internal/nn"
	"evedge/internal/perf"
	"evedge/internal/quant"
	"evedge/internal/taskgraph"
)

// Objective selects what the search minimizes.
type Objective int

// Objectives ("this procedure can be repeated to optimize for other
// objectives such as energy as well").
const (
	MinLatency Objective = iota
	MinEnergy
)

// Config tunes the evolutionary search.
type Config struct {
	Population  int
	Generations int
	Seed        int64
	Objective   Objective
	// FullPrecisionOnly excludes quantized (INT8) execution — the
	// Ev-Edge-NMP-FP variant, which "exclusively maps to full precision
	// cores to prevent any accuracy degradation". FP32 and FP16 both
	// count as full precision on Jetson-class accelerators.
	FullPrecisionOnly bool
}

const (
	// mutationLayers is the number of layers per task whose mapping is
	// randomized in each child ("a specified number of layers in each
	// task is replaced with a random mapping resource and precision").
	mutationLayers = 2
	// sampleFrac is the validation-subset fraction used for accuracy
	// evaluation (the paper's first search optimization).
	sampleFrac = 0.25
)

// DefaultConfig returns the search settings used by the experiments.
func DefaultConfig() Config {
	return Config{
		Population:  24,
		Generations: 40,
		Seed:        1,
		Objective:   MinLatency,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Population < 2 {
		return fmt.Errorf("nmp: population must be >= 2, got %d", c.Population)
	}
	if c.Generations < 1 {
		return fmt.Errorf("nmp: generations must be >= 1, got %d", c.Generations)
	}
	return nil
}

// Result is the outcome of a search or baseline policy.
type Result struct {
	Assignment *taskgraph.Assignment
	// LatencyUS is max task latency (the Eq. 2 objective).
	LatencyUS float64
	EnergyJ   float64
	// Deltas holds each task's achieved accuracy degradation.
	Deltas []float64
	// Feasible reports whether all deltas are within budget.
	Feasible bool
	// FitnessHistory records the best fitness per generation (Fig 10a).
	FitnessHistory []float64
	Evaluations    int
	CacheHits      int
}

// Mapper runs searches over one profiled workload. It holds no
// per-candidate state — each search run prices its candidates through
// an evaluator of its own — so Evaluate, Predict, EvaluatePolicy and
// the searches may run concurrently on one Mapper; AddSeed and
// SetBudgets configure it and must not race them.
type Mapper struct {
	db     *perf.ProfileDB
	model  *perf.Model
	acc    []*quant.Model
	budget []float64
	cfg    Config
	seeds  []*taskgraph.Assignment
	// precs[d] is what a random mapping may give a layer on device d
	// (searchPrecisions), computed once.
	precs [][]nn.Precision
}

// AddSeed injects an extra candidate into the initial population —
// e.g. warm-starting the full search with the NMP-FP result so the
// superset search never converges below it.
func (mp *Mapper) AddSeed(asg *taskgraph.Assignment) {
	mp.seeds = append(mp.seeds, asg.Clone())
}

// NewMapper builds a mapper. Accuracy budgets default to each
// network's Table 2 delta.
func NewMapper(db *perf.ProfileDB, m *perf.Model, cfg Config) (*Mapper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nets := db.Networks()
	mp := &Mapper{db: db, model: m, cfg: cfg}
	for _, net := range nets {
		mp.acc = append(mp.acc, quant.NewModel(net))
		mp.budget = append(mp.budget, quant.Table2Delta(net.Name))
	}
	mp.precs = searchPrecisions(db.Platform(), cfg.FullPrecisionOnly)
	return mp, nil
}

// Budgets returns the per-task accuracy-degradation bounds.
func (mp *Mapper) Budgets() []float64 { return append([]float64(nil), mp.budget...) }

// SetBudgets overrides the per-task accuracy bounds (the pipeline
// shrinks them by the accuracy already spent on DSFA merging).
func (mp *Mapper) SetBudgets(b []float64) error {
	if len(b) != len(mp.budget) {
		return fmt.Errorf("nmp: %d budgets for %d tasks", len(b), len(mp.budget))
	}
	for i, v := range b {
		if v <= 0 {
			return fmt.Errorf("nmp: budget %d must be positive, got %f", i, v)
		}
	}
	mp.budget = append([]float64(nil), b...)
	return nil
}

// evaluation is a cached fitness record.
type evaluation struct {
	fitness  float64
	latency  float64
	energy   float64
	deltas   []float64
	feasible bool
}

// evaluator prices candidates for one search run: it owns the one task
// graph and schedule that every candidate of the run is rebuilt into,
// so a candidate costs its node and edge visits and no heap traffic
// beyond the evaluation record it returns. Not safe for concurrent use;
// the Mapper it reads from is.
type evaluator struct {
	mp    *Mapper
	graph taskgraph.Graph
	sched taskgraph.Schedule
}

// Evaluate computes a candidate's fitness: the objective value scaled
// up steeply when any task violates its accuracy budget.
func (mp *Mapper) Evaluate(asg *taskgraph.Assignment) (*evaluation, error) {
	e := evaluator{mp: mp}
	return e.evaluate(asg, hashAssignment(asg))
}

// evaluate prices asg, whose hashAssignment — the search's
// fitness-cache key — the caller already holds as h.
func (e *evaluator) evaluate(asg *taskgraph.Assignment, h uint64) (*evaluation, error) {
	mp := e.mp
	if err := e.graph.BuildInto(mp.db, mp.model, asg); err != nil {
		return nil, err
	}
	if err := e.graph.RunInto(mp.db.Platform(), &e.sched); err != nil {
		return nil, err
	}
	ev := &evaluation{
		latency:  e.sched.MakespanUS,
		energy:   e.sched.EnergyJ,
		deltas:   make([]float64, len(mp.acc)),
		feasible: true,
	}
	// Deterministic per-candidate sampling seed keeps the cache
	// consistent ("fitness scores are cached for each new candidate and
	// reused if the same candidate emerges from different parents").
	penalty := 0.0
	for t, acc := range mp.acc {
		d, err := acc.DeltaSampled(asg.Prec[t], sampleFrac, mp.cfg.Seed^int64(h)+int64(t))
		if err != nil {
			return nil, err
		}
		ev.deltas[t] = d
		if d > mp.budget[t] {
			ev.feasible = false
			penalty += (d - mp.budget[t]) / mp.budget[t]
		}
	}
	obj := ev.latency
	if mp.cfg.Objective == MinEnergy {
		obj = ev.energy * 1e6 // joules -> comparable magnitude
	}
	ev.fitness = obj * (1 + 10*penalty)
	return ev, nil
}

// Predict prices an assignment without searching: the Eq. 3 makespan
// and whether every task stays inside its accuracy budget. The online
// remap planner uses it to compare a live assignment against a
// warm-started candidate.
func (mp *Mapper) Predict(asg *taskgraph.Assignment) (latencyUS float64, feasible bool, err error) {
	ev, err := mp.Evaluate(asg)
	if err != nil {
		return 0, false, err
	}
	return ev.latency, ev.feasible, nil
}

// hashAssignment is 64-bit FNV-1a over each layer's (device, precision)
// byte pair in task order, written out so that it allocates nothing.
func hashAssignment(a *taskgraph.Assignment) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for t := range a.Device {
		for l := range a.Device[t] {
			h = (h ^ uint64(byte(a.Device[t][l]))) * prime64
			h = (h ^ uint64(byte(a.Prec[t][l]))) * prime64
		}
	}
	return h
}

// randomCandidate draws a uniformly random feasible-by-construction
// assignment (device support respected; accuracy feasibility is the
// search's job).
func (mp *Mapper) randomCandidate(r *rand.Rand) *taskgraph.Assignment {
	nets := mp.db.Networks()
	platform := mp.db.Platform()
	asg := taskgraph.NewAssignment(nets)
	for t := range nets {
		for l := range nets[t].Layers {
			d := platform.Devices[r.Intn(len(platform.Devices))]
			asg.Device[t][l] = d.ID
			asg.Prec[t][l] = mp.randomPrecision(r, d.ID)
		}
	}
	return asg
}

func (mp *Mapper) randomPrecision(r *rand.Rand, devID int) nn.Precision {
	ps := mp.precs[devID]
	return ps[r.Intn(len(ps))]
}

// mutate replaces mutationLayers random layers in each task with a
// random device and precision.
func (mp *Mapper) mutate(r *rand.Rand, asg *taskgraph.Assignment) {
	platform := mp.db.Platform()
	for t := range asg.Device {
		for k := 0; k < mutationLayers; k++ {
			l := r.Intn(len(asg.Device[t]))
			d := platform.Devices[r.Intn(len(platform.Devices))]
			asg.Device[t][l] = d.ID
			asg.Prec[t][l] = mp.randomPrecision(r, d.ID)
		}
	}
}

// member pairs a candidate with its evaluation.
type member struct {
	asg *taskgraph.Assignment
	ev  *evaluation
}

// incumbents tracks the fittest member a run has priced and the fittest
// feasible one (nil asg until a feasible candidate emerges). The
// penalty only steers a search: a member a hair over budget can
// outscore every feasible one, and must not be what is deployed.
type incumbents struct {
	best, feasible member
}

// offer considers a priced candidate, cloning it when it displaces an
// incumbent (the caller may go on to reuse or mutate asg).
func (in *incumbents) offer(asg *taskgraph.Assignment, ev *evaluation) {
	if in.best.asg == nil || ev.fitness < in.best.ev.fitness {
		in.best = member{asg.Clone(), ev}
	}
	if ev.feasible && (in.feasible.asg == nil || ev.fitness < in.feasible.ev.fitness) {
		in.feasible = member{asg.Clone(), ev}
	}
}

// deployable returns the best feasible member, or the best overall if
// none was feasible.
func (in *incumbents) deployable() member {
	if in.feasible.asg != nil {
		return in.feasible
	}
	return in.best
}

// evolve runs the generational loop over an initial population and
// returns the run's incumbents. res accumulates evaluation and cache
// counters plus the fitness history.
func (mp *Mapper) evolve(r *rand.Rand, pop []*taskgraph.Assignment, generations int, res *Result) (in incumbents, err error) {
	cache := make(map[uint64]*evaluation)
	e := evaluator{mp: mp}
	evalCached := func(asg *taskgraph.Assignment) (*evaluation, error) {
		// One hash per candidate: the cache key, and on a miss the
		// evaluation's sampling seed.
		h := hashAssignment(asg)
		if ev, ok := cache[h]; ok {
			res.CacheHits++
			return ev, nil
		}
		ev, err := e.evaluate(asg, h)
		if err != nil {
			return nil, err
		}
		res.Evaluations++
		cache[h] = ev
		return ev, nil
	}

	for gen := 0; gen < generations; gen++ {
		// Evaluate the whole generation; candidates inherited from the
		// previous generation (and duplicates emerging from different
		// parents) resolve through the fitness cache.
		members := make([]member, len(pop))
		for i, asg := range pop {
			ev, err := evalCached(asg)
			if err != nil {
				return in, err
			}
			members[i] = member{asg, ev}
		}
		sort.SliceStable(members, func(i, j int) bool { return members[i].ev.fitness < members[j].ev.fitness })
		for _, m := range members {
			in.offer(m.asg, m.ev)
		}
		res.FitnessHistory = append(res.FitnessHistory, in.best.ev.fitness)
		if gen == generations-1 {
			break
		}

		// Parents: fitter half. Children: for each neighboring parent
		// pair, clone one of the two with equal likelihood, then mutate.
		parents := members[:len(pop)/2]
		next := make([]*taskgraph.Assignment, 0, len(pop))
		for _, p := range parents {
			next = append(next, p.asg)
		}
		for len(next) < len(pop) {
			i := (len(next) - len(parents)) % len(parents)
			j := (i + 1) % len(parents)
			src := parents[i].asg
			if r.Intn(2) == 1 {
				src = parents[j].asg
			}
			child := src.Clone()
			mp.mutate(r, child)
			next = append(next, child)
		}
		pop = next
	}
	return in, nil
}

// Search runs the evolutionary loop and returns the best feasible
// candidate found (or the best overall if none was feasible).
func (mp *Mapper) Search() (*Result, error) {
	r := rand.New(rand.NewSource(mp.cfg.Seed))
	res := &Result{}

	pop := make([]*taskgraph.Assignment, mp.cfg.Population)
	for i := range pop {
		pop[i] = mp.randomCandidate(r)
	}
	// Seed a few trivial mappings alongside the random candidates so
	// the search never converges below the obvious baselines (the
	// all-GPU deployment and the round-robin policies).
	platform := mp.db.Platform()
	nets := mp.db.Networks()
	if g, err := AllGPU(nets, platform, nn.FP16); err == nil && len(pop) > 0 {
		pop[0] = g
	}
	if rr, err := RRNetwork(nets, platform); err == nil && len(pop) > 1 {
		pop[1] = rr
	}
	if rr, err := RRLayer(nets, platform); err == nil && len(pop) > 2 {
		pop[2] = rr
	}
	for i, s := range mp.seeds {
		if 3+i < len(pop) {
			pop[3+i] = s.Clone()
		}
	}

	in, err := mp.evolve(r, pop, mp.cfg.Generations, res)
	if err != nil {
		return nil, err
	}
	best := in.deployable()
	return mp.finish(res, best.asg, best.ev), nil
}

// SearchFrom runs a warm-started incremental search seeded from the
// live assignment — the control plane's online remap. Instead of the
// full offline population, the initial generation is the current
// assignment, the always-feasible all-GPU/FP16 fallback, and mutated
// neighbors of the current assignment; budget caps the generations so
// the remap completes at control-loop latency. The result is
// deterministic for a given (cfg.Seed, current) pair, always validates
// against the workload, and is never accuracy-infeasible: if no
// feasible candidate emerges, the FP32 all-GPU mapping (zero
// quantization delta) is returned, and if even that violates the
// budgets, SearchFrom errors rather than handing the executor an
// infeasible plan.
func (mp *Mapper) SearchFrom(current *taskgraph.Assignment, budget int) (*Result, error) {
	nets := mp.db.Networks()
	platform := mp.db.Platform()
	if current == nil {
		return nil, fmt.Errorf("nmp: SearchFrom needs a current assignment")
	}
	if err := current.Validate(nets, platform); err != nil {
		return nil, err
	}
	if budget < 1 {
		budget = 1
	}
	// Mixing the seed with the warm-start point keeps repeated remaps
	// deterministic per input while decorrelating successive searches.
	r := rand.New(rand.NewSource(mp.cfg.Seed ^ int64(hashAssignment(current))))
	res := &Result{}

	// The FP32 all-GPU mapping has (near-)zero quantization delta, so it
	// is the feasibility anchor; the FP16 variant usually matches it on
	// accuracy at much better latency, so seed it too when there is room.
	fallback, err := AllGPU(nets, platform, nn.FP32)
	if err != nil {
		return nil, err
	}
	pop := make([]*taskgraph.Assignment, mp.cfg.Population)
	pop[0] = current.Clone()
	pop[1] = fallback
	next := 2
	if next < len(pop) {
		if g, err := AllGPU(nets, platform, nn.FP16); err == nil {
			pop[next] = g
			next++
		}
	}
	for i := next; i < len(pop); i++ {
		child := current.Clone()
		mp.mutate(r, child)
		pop[i] = child
	}

	in, err := mp.evolve(r, pop, budget, res)
	if err != nil {
		return nil, err
	}
	bestFeasible := in.feasible
	if bestFeasible.asg == nil {
		// Not even the all-GPU/FP16 fallback fits the accuracy budgets;
		// no assignment this mapper can produce would be feasible.
		return nil, fmt.Errorf("nmp: no feasible assignment within accuracy budgets %v", mp.budget)
	}
	return mp.finish(res, bestFeasible.asg, bestFeasible.ev), nil
}

// RandomSearch draws the same number of candidates as the evolutionary
// run (population x generations) independently at random and, like
// Search, returns the best feasible one (the best overall if none was
// feasible) — the Fig. 10b comparison.
func (mp *Mapper) RandomSearch() (*Result, error) {
	r := rand.New(rand.NewSource(mp.cfg.Seed))
	res := &Result{}
	e := evaluator{mp: mp}
	var in incumbents
	total := mp.cfg.Population * mp.cfg.Generations
	for i := 0; i < total; i++ {
		asg := mp.randomCandidate(r)
		ev, err := e.evaluate(asg, hashAssignment(asg))
		if err != nil {
			return nil, err
		}
		res.Evaluations++
		in.offer(asg, ev)
		if (i+1)%mp.cfg.Population == 0 {
			res.FitnessHistory = append(res.FitnessHistory, in.best.ev.fitness)
		}
	}
	best := in.deployable()
	return mp.finish(res, best.asg, best.ev), nil
}

func (mp *Mapper) finish(res *Result, asg *taskgraph.Assignment, ev *evaluation) *Result {
	res.Assignment = asg
	res.LatencyUS = ev.latency
	res.EnergyJ = ev.energy
	res.Deltas = append([]float64(nil), ev.deltas...)
	res.Feasible = ev.feasible
	return res
}
