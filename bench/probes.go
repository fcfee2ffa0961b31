package main

import (
	"runtime"
	"time"
)

// Layer probes time calls into a layer's public functions on inputs the
// workload recorded. Everything here measures from outside: the probes
// know a layer's exported API and nothing of its internals.

// timeCalls runs fn repeatedly for about budget (at least minCalls
// times) and returns the median wall time of one call in nanoseconds.
func timeCalls(budget time.Duration, minCalls int, fn func()) float64 {
	var durs []float64
	deadline := time.Now().Add(budget)
	for len(durs) < minCalls || time.Now().Before(deadline) {
		t0 := time.Now()
		fn()
		durs = append(durs, float64(time.Since(t0)))
	}
	return median(durs)
}

// seconds converts a float budget into a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// memDelta measures the heap allocations fn makes.
func memDelta(fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// tracedPasses runs the workload's pass with the span recorder on for
// about budget (at least twice) and returns the recorder, the passes'
// wall times in seconds and their outputs.
func tracedPasses(w workload, budget time.Duration, t *tally) (*tracer, []float64, []passOut) {
	tr := newTracer()
	var walls []float64
	var outs []passOut
	deadline := time.Now().Add(budget)
	for len(walls) < 2 || time.Now().Before(deadline) {
		t0 := time.Now()
		p := w.pass(tr, t, nil)
		walls = append(walls, time.Since(t0).Seconds())
		outs = append(outs, p)
	}
	return tr, walls, outs
}

// untracedPassWall is the median wall time of n passes with tracing
// off, the base of the share table and of the span overhead.
func untracedPassWall(w workload, n int, t *tally) float64 {
	var walls []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		w.pass(nil, t, nil)
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls)
}

// sharePct is replayed layer time as a percentage of a pass.
func sharePct(layerS, passS float64) float64 {
	if passS <= 0 {
		return 0
	}
	return 100 * layerS / passS
}

// spanMS is a span name's total time per pass in milliseconds.
func spanMS(st map[string]*spanTotals, name string, passes int) float64 {
	s := st[name]
	if s == nil || passes == 0 {
		return 0
	}
	return float64(s.total) / float64(time.Millisecond) / float64(passes)
}
