package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one contract run measures.
const runSeconds = 10

// specJSON renders BENCHMARK.json from the definitions in this
// program, so the file and the program cannot drift apart unnoticed
// (the test compares them).
func specJSON() string {
	s := benchSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		s.EndToEnd = append(s.EndToEnd, specMetric{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		s.PerLayer = append(s.PerLayer, specLayer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return string(b)
}

func loadSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var firstErr error
	for _, p := range candidates {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// loadResults reads a result file (one run per line) and groups the
// end-to-end runs' values by workload and metric.
func loadResults(path string) (map[string]map[string][]metricOut, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]metricOut{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		byMetric := out[r.Info.Workload]
		if byMetric == nil {
			byMetric = map[string][]metricOut{}
			out[r.Info.Workload] = byMetric
		}
		for k, m := range r.Metrics {
			byMetric[k] = append(byMetric[k], m)
		}
	}
	return out, sc.Err()
}

// side summarises one file's runs of one (metric, workload): the
// median of the runs' values, and the quartile spread as a share of it
// — across runs when there are at least four, else the single run's
// own quartiles over its rounds.
func side(runs []metricOut) (med, spr float64) {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Value
	}
	med = median(vals)
	if len(runs) >= 4 {
		return med, spread(vals)
	}
	for _, r := range runs {
		if r.Value != 0 && (r.Q1 != 0 || r.Q3 != 0) {
			spr = max(spr, (r.Q3-r.Q1)/r.Value)
		}
	}
	return med, spr
}

// compareFiles prints one row per (end-to-end metric, workload): ok when
// B's median is no worse than A's by more than the bound, regressed
// when it is, unresolved when either side's spread is wider than the
// bound (unless every run of B beats every run of A). Exit code 1 on
// any regression.
func compareFiles(stdout, stderr io.Writer, specPath, pathA, pathB string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: BENCHMARK.json: %v\n", err)
		return 2
	}
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-18s %-20s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "A median", "B median", "change", "A iqr", "B iqr", "bound", "verdict")
	code := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			ra, rb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(ra) == 0 || len(rb) == 0 {
				fmt.Fprintf(stdout, "%-18s %-20s missing in %s\n", w.Name, m.Name, map[bool]string{true: pathA, false: pathB}[len(ra) == 0])
				code = 1
				continue
			}
			ma, sa := side(ra)
			mb, sb := side(rb)
			// worse is B's worsening as a share of A's median.
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			case (sa > m.Bound || sb > m.Bound) && !allBetter(ra, rb, m.Better):
				verdict = "unresolved"
			}
			fmt.Fprintf(stdout, "%-18s %-20s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return code
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []metricOut, better string) bool {
	va := make([]float64, len(a))
	vb := make([]float64, len(b))
	for i, r := range a {
		va[i] = r.Value
	}
	for i, r := range b {
		vb[i] = r.Value
	}
	sort.Float64s(va)
	sort.Float64s(vb)
	if better == "higher" {
		return vb[0] > va[len(va)-1]
	}
	return vb[len(vb)-1] < va[0]
}
