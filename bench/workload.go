package main

import (
	"fmt"
	"math"
	"sync"
)

// tally counts the outside calls and per-pass checks a run attempted
// and how many failed; it is the `attempted`/`failed` of the result
// line. Safe for the HTTP workload's two client goroutines.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     string // first failure, for the report
}

// call records one outside call; a non-nil err is a failed operation.
func (t *tally) call(what string, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == "" {
			t.first = fmt.Sprintf("%s: %v", what, err)
		}
		return false
	}
	return true
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if t.first == "" {
			t.first = fmt.Sprintf(format, args...)
		}
	}
}

// simOut is what the simulated platform (internal/perf cost model on
// Xavier, virtual time) reported for one pass. All times are simulated
// microseconds; none of it is host time.
type simOut struct {
	framesPerS float64 // raw frames per simulated second
	meanUS     float64 // mean per-frame latency
	p99US      float64 // tail per-frame latency
	framesIn   float64 // raw frames E2SF produced
	framesDone float64 // raw frames that completed inference
}

// equal reports whether two passes simulated exactly the same thing.
func (s simOut) equal(o simOut) bool { return s == o }

func (s simOut) delivered() float64 {
	if s.framesIn == 0 {
		return 0
	}
	return s.framesDone / s.framesIn
}

// passOut is the work one pass completed.
type passOut struct {
	events int64 // raw events consumed
	// frames is the raw sparse frames the pass put through the program:
	// completed (serve_pump_batch), produced by E2SF and accounted for
	// at close (serve_http_mixed), priced by RunPipeline, or inferred.
	frames int64
	sim    simOut
	// extra carries workload-specific results (all simulated or counts)
	// that must repeat exactly on deterministic workloads.
	extra map[string]float64
}

// workload is one named set of inputs and the pass that runs them.
type workload interface {
	// setup builds every input from the seed; its wall time is setup_s.
	setup(seed int64) error
	// pass runs the workload once. opMS collects the host latency of
	// each unit operation; tr is nil while end-to-end metrics are
	// measured.
	pass(tr *tracer, t *tally, opMS *[]float64) passOut
	// deterministic reports whether simulated results must repeat
	// exactly from pass to pass.
	deterministic() bool
	// layers replays the workload's recorded inputs through the public
	// functions of each layer for about budgetS seconds and returns the
	// per-layer metrics it owns.
	layers(budgetS float64, t *tally) map[string]float64
	// lastTrace is the recorder of the last layers call (for -trace-out).
	lastTrace() *tracer
	close()
}

// workloadDef is the registry entry: the name and why of
// BENCHMARK.json plus how many passes make one timed round.
type workloadDef struct {
	name   string
	why    string
	passes int
	// frames makes a raw sparse frame the workload's unit of work for
	// host_work_per_s; the three workloads fed event streams count events.
	frames bool
	make   func() workload
}

var workloads = []workloadDef{
	{
		name:   "serve_pump_batch",
		why:    "8 SpikeFlowNet sessions through the single-threaded virtual-clock serving core: fused by-count E2SF and DSFA merge dominate; no NMP, wire codec or HTTP",
		passes: 8,
		make:   func() workload { return &pumpWorkload{} },
	},
	{
		name:   "serve_http_mixed",
		why:    "4 mixed networks behind net/http, NMP placement, 2 closed-loop clients: time-window E2SF, EVAR codec, placement search and HTTP; little DSFA",
		passes: 3,
		make:   func() workload { return &httpWorkload{} },
	},
	{
		name:   "paper_levels",
		why:    "offline Fig. 8 and Fig. 9 reproduction: unfused E2SF, full NMP search, profile DB and task graph; no serve, sched, codec or HTTP",
		passes: 1,
		make:   func() workload { return &paperWorkload{} },
	},
	{
		name:   "infer_numeric",
		why:    "numeric nn.Runtime.Forward on real E2SF frames: only sparse kernels and nn are timed, so a kernel change shows here and nowhere else",
		passes: 1,
		frames: true,
		make:   func() workload { return &inferWorkload{} },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
