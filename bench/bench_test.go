package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// shrink sizes the workloads for a smoke run: 0.2 s streams, one
// set-up, the minimum number of rounds.
func shrink(t *testing.T) {
	t.Helper()
	dur, reps := streamDurUS, setupRepeats
	streamDurUS, setupRepeats = 200_000, 1
	t.Cleanup(func() { streamDurUS, setupRepeats = dur, reps })
}

func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 {
		t.Errorf("%s trace=%d: %d of %d checks failed: %s", res.Info.Workload, res.Trace, res.Failed, res.Attempted, res.Info.FirstFailure)
	}
	if res.Attempted < 1 {
		t.Errorf("%s: attempted %d", res.Info.Workload, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s trace=%d: %d metrics emitted, %d defined", res.Info.Workload, res.Trace, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", res.Info.Workload, d.name)
		case m.Unit != d.unit || m.Unit == "":
			t.Errorf("%s: metric %s has unit %q, want %q", res.Info.Workload, d.name, m.Unit, d.unit)
		case !finite(m.Value):
			t.Errorf("%s: metric %s is %v", res.Info.Workload, d.name, m.Value)
		}
	}
	if res.Info.HostCPUs < 1 || res.Info.GOMAXPROCS < 1 || res.Info.GoVersion == "" || res.Info.Estimator == "" {
		t.Errorf("%s: run info incomplete: %+v", res.Info.Workload, res.Info)
	}
}

// TestSmoke runs every workload end to end and the per-layer profile at
// smoke size and checks that every name in BENCHMARK.json is emitted
// with its unit, no end-to-end metric is zero, and all checks pass.
func TestSmoke(t *testing.T) {
	shrink(t)
	for _, def := range workloads {
		res, err := runEndToEnd(def, 7, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		checkResult(t, res, endToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", def.name, name, m.Value)
			}
		}
		var buf bytes.Buffer
		if err := contractLine(&buf, res); err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatalf("contract line: %v", err)
		}
		if len(line) != 4 {
			t.Errorf("contract line has keys %v, want correct, attempted, failed, metrics", line)
		}
	}
	res, err := runProfile(workloads[0], 7, 0.5, filepath.Join(t.TempDir(), "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, perLayer)
}

// TestSpec checks the definitions against the contract's limits and
// against BENCHMARK.json at the repository root.
func TestSpec(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2-8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1-16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1-128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q: letters, digits, _ . - only, at most 64", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") || w.why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if w.passes < 1 {
			t.Errorf("workload %s: %d passes per round", w.name, w.passes)
		}
	}
	var setup bool
	for _, d := range endToEnd {
		name("end-to-end", d.name)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		if d.name == "setup_s" {
			setup = d.unit == "s" && d.better == "lower"
		}
	}
	if !setup {
		t.Error("end-to-end metrics need setup_s in s, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
	}
	for _, d := range perLayer {
		name("per-layer", d.name)
	}

	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(file) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, contract allows 64 KiB", len(file))
	}
	if want := specJSON() + "\n"; string(file) != want {
		t.Error("BENCHMARK.json differs from the program's definitions; regenerate it with `bash bench/run.sh -print-spec > BENCHMARK.json`")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", runSeconds)
	}
}

// TestCompare checks the three verdicts on hand-made result files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, framesPerS, q1, q3 float64) string {
		path := filepath.Join(dir, name)
		for _, def := range workloads {
			res := result{Info: runInfo{Workload: def.name}, Metrics: map[string]metricOut{}}
			for _, d := range endToEnd {
				res.Metrics[d.name] = metricOut{Value: 1, Unit: d.unit}
			}
			res.Metrics["host_work_per_s"] = metricOut{Value: framesPerS, Unit: "1/s", Q1: q1, Q3: q3}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	a := write("a.jsonl", 100, 98, 102)
	for _, tc := range []struct {
		name    string
		b       string
		code    int
		verdict string
	}{
		{"same", write("same.jsonl", 99, 97, 101), 0, "ok"},
		{"slower", write("slower.jsonl", 60, 59, 61), 1, "regressed"},
		{"noisy", write("noisy.jsonl", 95, 60, 130), 0, "unresolved"},
	} {
		var out, errb bytes.Buffer
		if code := compareFiles(&out, &errb, spec, a, tc.b); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: no %q row in\n%s", tc.name, tc.verdict, out.String())
		}
	}
}

// TestStats pins the estimator's arithmetic.
func TestStats(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	if m := median(v); m != 3 {
		t.Errorf("median = %v", m)
	}
	if q1, q3 := quantile(v, 0.25), quantile(v, 0.75); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if s := spread(v); s != 1 { // Python: quantiles([1..5], n=4) == [1.5, 3, 4.5]
		t.Errorf("spread = %v", s)
	}
	if g := geomean([]float64{2, 8}); g < 3.999 || g > 4.001 {
		t.Errorf("geomean = %v", g)
	}
	if v[0] != 4 {
		t.Error("quantile sorted its argument in place")
	}
}
