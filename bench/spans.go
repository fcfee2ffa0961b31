package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one outside call into the program: its name ("layer.call"),
// the pass it belongs to, the span that caused it (-1 for a pass root)
// and its extent on the recorder's clock.
type span struct {
	name       string
	pass       int
	parent     int
	start, end time.Duration
}

// tracer is the benchmark's own span recorder. It lives in memory,
// costs two clock reads and one append per span, and is nil while
// end-to-end metrics are measured: every method is a no-op on a nil
// receiver, so call sites need no branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	pass  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextPass opens a new pass: spans started afterwards share its id.
func (t *tracer) nextPass() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pass++
	t.mu.Unlock()
}

// start opens a span under parent (-1 for none) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, pass: t.pass, parent: parent, start: now})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// finish closes the span.
func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// spanTotals is the per-name roll-up of a traced phase.
type spanTotals struct {
	total time.Duration // sum of span durations
	self  time.Duration // total minus the time covered by child spans
	durs  []time.Duration
}

// summarize rolls the recorded spans up by name. A span's self time is
// its duration minus its children's (children of one parent do not
// overlap except under the two-client HTTP pass, whose root is
// measured by wall time instead).
func (t *tracer) summarize() map[string]*spanTotals {
	out := map[string]*spanTotals{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanTotals{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.total += d
		st.durs = append(st.durs, d)
		if self := d - child[i]; self > 0 {
			st.self += self
		}
	}
	return out
}

// coverage is the share of the root spans' time that their direct
// children cover — how much of a pass the trace explains.
func (t *tracer) coverage(root string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var rootDur, covered time.Duration
	for _, s := range t.spans {
		if s.name == root {
			rootDur += s.end - s.start
		}
	}
	// Children may run on two client goroutines at once; merge their
	// extents per root before summing.
	byRoot := map[int][][2]time.Duration{}
	for _, s := range t.spans {
		if s.parent >= 0 && t.spans[s.parent].name == root {
			byRoot[s.parent] = append(byRoot[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	for _, iv := range byRoot {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		curS, curE := iv[0][0], iv[0][1]
		for _, x := range iv[1:] {
			if x[0] > curE {
				covered += curE - curS
				curS, curE = x[0], x[1]
			} else if x[1] > curE {
				curE = x[1]
			}
		}
		covered += curE - curS
	}
	if rootDur == 0 {
		return 0
	}
	return float64(covered) / float64(rootDur)
}

// writeChrome writes the spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto): one complete event per span, the pass
// as the process id so passes fold separately.
func (t *tracer) writeChrome(w io.Writer) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	if t == nil {
		return nil
	}
	t.mu.Lock()
	evs := make([]ev, len(t.spans))
	for i, s := range t.spans {
		evs[i] = ev{
			Name: s.name, Ph: "X",
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			PID: s.pass, TID: 0,
			Args: map[string]int{"span": i, "parent": s.parent},
		}
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs})
}
