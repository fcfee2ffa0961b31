package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its inputs; setup_s is
// the median, so one slow scene generation does not move it. A variable
// only so the smoke test can lower it.
var setupRepeats = 3

// minRounds is the floor on timed rounds however short --seconds is.
const minRounds = 3

// estimateOf is the median of a sample with the quartiles behind it.
func estimateOf(vals []float64, unit string) metricOut {
	return metricOut{Value: median(vals), Unit: unit, Q1: quantile(vals, 0.25), Q3: quantile(vals, 0.75), Samples: len(vals)}
}

// runInfo is what a result file records beside the numbers so they can
// be explained from the file alone.
type runInfo struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Rounds       int     `json:"rounds"`
	PassesPerRnd int     `json:"passes_per_round"`
	SetupRepeats int     `json:"setup_repeats"`
	Estimator    string  `json:"estimator"`
	HostCPUs     int     `json:"host_cpus"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	// SpeedFactor is refNominalS over the run's median reference-kernel
	// time: below 1 the host ran slower than the reference host.
	SpeedFactor   float64 `json:"host_speed_factor,omitempty"`
	FirstFailure  string  `json:"first_failure,omitempty"`
	WallBudgetHit bool    `json:"wall_budget_hit,omitempty"`
}

const estimatorText = "throughput: work/wall per round, median over rounds; latency: median of samples pooled over rounds; " +
	"setup_s: median of repeated set-ups; times in calibrated seconds (wall x refNominalS / the run's median reference-kernel time); " +
	"GC on, runtime.GC between rounds outside the timed window"

func newRunInfo(def workloadDef, seed int64, seconds float64) runInfo {
	return runInfo{
		Workload: def.name, Seed: seed, Seconds: seconds,
		PassesPerRnd: def.passes, SetupRepeats: setupRepeats, Estimator: estimatorText,
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitID(),
	}
}

// setupTimed builds the workload's inputs `repeats` times from the same
// seed and returns the wall time of each.
func setupTimed(w workload, seed int64, repeats int) ([]float64, error) {
	var out []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// passChecker applies the cross-pass checks: on a deterministic
// workload every pass must simulate exactly what the first did.
type passChecker struct {
	ref  *passOut
	det  bool
	name string
}

func (c *passChecker) observe(t *tally, p passOut) {
	t.check(p.frames > 0 && p.events > 0, "%s: pass completed %d frames from %d events", c.name, p.frames, p.events)
	if !c.det {
		return
	}
	if c.ref == nil {
		c.ref = &p
		return
	}
	same := p.sim.equal(c.ref.sim) && p.frames == c.ref.frames && p.events == c.ref.events && len(p.extra) == len(c.ref.extra)
	var diff []string
	for k, v := range c.ref.extra {
		if p.extra[k] != v {
			same = false
			diff = append(diff, k)
		}
	}
	t.check(same, "%s: simulated results differ from the first pass (%s)", c.name, strings.Join(diff, ","))
}

// measured is the raw material of the end-to-end metrics.
type measured struct {
	setupS     []float64
	eventsPerS []float64 // per round
	framesPerS []float64 // per round
	refS       []float64 // reference-kernel seconds: around set-up, after each round
	allocPerEv []float64 // per round: heap bytes allocated per event
	allocPerFr []float64 // per round: heap bytes allocated per frame
	opMS       []float64 // pooled
	passes     []passOut // every timed pass
	rounds     int
	budgetHit  bool
}

// measure runs the end-to-end phase: repeated set-up, one untimed
// warm-up pass, then timed rounds of def.passes passes with tracing off
// until `seconds` have been measured. wallBudget (0 = none) ends the
// rounds early rather than letting a slow host hang the command.
func measure(def workloadDef, w workload, seed int64, seconds float64, wallBudget time.Duration, t *tally) (*measured, error) {
	begin := time.Now()
	m := &measured{}
	var err error
	m.refS = append(m.refS, refSeconds())
	if m.setupS, err = setupTimed(w, seed, setupRepeats); err != nil {
		return nil, err
	}
	m.refS = append(m.refS, refSeconds())
	chk := &passChecker{det: w.deterministic(), name: def.name}
	chk.observe(t, w.pass(nil, t, nil)) // warm-up: caches, pools, lazy init
	if t.failed > 0 {
		return m, nil
	}
	start := time.Now()
	for {
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		var ev, fr int64
		outs := make([]passOut, 0, def.passes)
		for i := 0; i < def.passes; i++ {
			p := w.pass(nil, t, &m.opMS)
			ev += p.events
			fr += p.frames
			outs = append(outs, p)
		}
		wall := time.Since(t0).Seconds()
		m.refS = append(m.refS, refSeconds())
		runtime.ReadMemStats(&ms1)
		alloc := float64(ms1.TotalAlloc - ms0.TotalAlloc)
		m.allocPerEv = append(m.allocPerEv, alloc/float64(ev))
		m.allocPerFr = append(m.allocPerFr, alloc/float64(fr))
		for _, p := range outs {
			chk.observe(t, p)
		}
		m.passes = append(m.passes, outs...)
		m.eventsPerS = append(m.eventsPerS, float64(ev)/wall)
		m.framesPerS = append(m.framesPerS, float64(fr)/wall)
		m.rounds++
		if wallBudget > 0 && time.Since(begin) > wallBudget {
			m.budgetHit = true
			break
		}
		if m.rounds >= minRounds && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	return m, nil
}
