// Command bench is the Ev-Edge benchmark: four named workloads, the
// end-to-end metrics a user of the system sees, and per-layer probes,
// all measured from outside by timing calls into public functions. See
// README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	go run -C bench . --workload serve_pump_batch --seed 7 --seconds 10 --trace 0
//	go run -C bench .                          # every workload, then the per-layer profile
//	go run -C bench . -compare a.jsonl b.jsonl # apply BENCHMARK.json's bounds to two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// wallBudget ends a workload's timed rounds early rather than letting a
// slow host hang the command; the run then reports fewer rounds.
const wallBudget = 45 * time.Second

// metricOut is one reported number. Q1, Q3 and Samples describe the
// sample behind an estimate and are left out of the contract line.
type metricOut struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run: what a result file holds per line.
type result struct {
	Info      runInfo              `json:"info"`
	Trace     int                  `json:"trace"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
	// Extra holds what is reported beside the contract's metrics.
	Extra map[string]metricOut `json:"extra,omitempty"`
}

func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// spanName is a network name as span and metric names spell it.
func spanName(net string) string { return strings.ToLower(net) }

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(def workloadDef, seed int64, secs float64) (result, error) {
	res := result{Info: newRunInfo(def, seed, secs), Metrics: map[string]metricOut{}, Extra: map[string]metricOut{}}
	w := def.make()
	defer w.close()
	t := &tally{}
	m, err := measure(def, w, seed, secs, wallBudget, t)
	if err != nil {
		return res, err
	}
	// k scales wall seconds to calibrated seconds (see calib.go).
	k := refNominalS / median(m.refS)
	res.Info.SpeedFactor = k
	scale := func(vals []float64, f float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v * f
		}
		return out
	}
	units := unitsOf(endToEnd)
	e2e := func(name string, vals []float64) { res.Metrics[name] = estimateOf(vals, units[name]) }
	e2e("setup_s", scale(m.setupS, k))
	work, alloc := m.eventsPerS, m.allocPerEv
	if def.frames {
		work, alloc = m.framesPerS, m.allocPerFr
	}
	e2e("host_work_per_s", scale(work, 1/k))
	e2e("host_alloc_b_per_work", alloc)
	// Beside the contract's metrics, for the human listing and result
	// files: both throughputs, the unit operation's latency (on
	// paper_levels the seed's scene sizes set it, so it has no bound) and
	// the uncalibrated figures.
	res.Extra["host_events_per_s"] = estimateOf(scale(m.eventsPerS, 1/k), "1/s")
	res.Extra["host_frames_per_s"] = estimateOf(scale(m.framesPerS, 1/k), "1/s")
	opMS := scale(m.opMS, k)
	res.Extra["op_p50_ms"] = estimateOf(opMS, "ms")
	res.Extra["op_p90_ms"] = metricOut{Value: quantile(opMS, 0.9), Unit: "ms", Samples: len(opMS)}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Extra["host_mem_mb"] = metricOut{Value: float64(ms.Sys) / (1 << 20), Unit: "MB", Samples: 1}
	res.Extra["raw_setup_s"] = estimateOf(m.setupS, "s")
	res.Extra["raw_host_events_per_s"] = estimateOf(m.eventsPerS, "1/s")
	res.Extra["raw_host_frames_per_s"] = estimateOf(m.framesPerS, "1/s")
	res.Extra["raw_op_p50_ms"] = estimateOf(m.opMS, "ms")
	res.Extra["raw_op_p90_ms"] = metricOut{Value: quantile(m.opMS, 0.9), Unit: "ms", Samples: len(m.opMS)}
	res.Extra["ref_kernel_ms"] = estimateOf(scale(m.refS, 1e3), "ms")
	res.Info.Rounds = m.rounds
	res.Info.WallBudgetHit = m.budgetHit
	finish(&res, t, endToEnd)
	return res, nil
}

// runProfile is the traced run: every workload is set up once, warmed,
// traced and probed, and together they yield every per-layer metric.
// The focus workload gets twice the others' share of the time.
func runProfile(focus workloadDef, seed int64, secs float64, traceOut string) (result, error) {
	res := result{Info: newRunInfo(focus, seed, secs), Trace: 1, Metrics: map[string]metricOut{}}
	res.Info.SetupRepeats = 1
	t := &tally{}
	units := unitsOf(perLayer)
	var peakHeap uint64
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rounds := 0
	for _, def := range workloads {
		share := secs / float64(len(workloads)+1)
		if def.name == focus.name {
			share *= 2
		}
		w := def.make()
		if _, err := setupTimed(w, seed, 1); err != nil {
			w.close()
			return res, fmt.Errorf("%s: %w", def.name, err)
		}
		w.pass(nil, t, nil) // warm-up
		for name, v := range w.layers(share, t) {
			if name == "bench.rounds_run" {
				rounds += int(v) // traced passes, summed over workloads
				continue
			}
			res.Metrics[name] = metricOut{Value: v, Unit: units[name]}
		}
		if traceOut != "" && def.name == focus.name {
			if err := writeTrace(traceOut, w); err != nil {
				w.close()
				return res, err
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		peakHeap = max(peakHeap, ms.HeapInuse)
		w.close()
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.Metrics["mem.heap_inuse_peak_mb"] = metricOut{Value: float64(peakHeap) / (1 << 20), Unit: units["mem.heap_inuse_peak_mb"]}
	if gcs := ms1.NumGC - ms0.NumGC; gcs > 0 {
		res.Metrics["mem.gc_pause_ms"] = metricOut{
			Value: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / float64(gcs),
			Unit:  units["mem.gc_pause_ms"],
		}
	}
	res.Metrics["bench.rounds_run"] = metricOut{Value: float64(rounds), Unit: units["bench.rounds_run"]}
	finish(&res, t, perLayer)
	return res, nil
}

// writeTrace writes the workload's last traced phase as Chrome trace
// JSON.
func writeTrace(path string, w workload) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := w.lastTrace().writeChrome(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// finish folds the tally into the result and fails it when a metric the
// definitions promise is missing or not a finite number.
func finish(res *result, t *tally, defs []metricDef) {
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Info.FirstFailure = t.first
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; !ok || !finite(m.Value) {
			res.Failed++
			res.Attempted++
			if res.Info.FirstFailure == "" {
				res.Info.FirstFailure = "metric " + d.name + " missing"
			}
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	res.Correct = res.Failed == 0
}

// contractLine prints the one JSON object the driver reads: exactly
// correct, attempted, failed and metrics, each metric a value and unit.
func contractLine(w io.Writer, res result) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for k, m := range res.Metrics {
		out.Metrics[k] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// printHuman lists every metric by name with its unit.
func printHuman(w io.Writer, res result) {
	fmt.Fprintf(w, "# %s  seed=%d trace=%d rounds=%d passes/round=%d host_cpus=%d GOMAXPROCS=%d %s commit=%s\n",
		res.Info.Workload, res.Info.Seed, res.Trace, res.Info.Rounds, res.Info.PassesPerRnd,
		res.Info.HostCPUs, res.Info.GOMAXPROCS, res.Info.GoVersion, res.Info.Commit)
	if res.Info.SpeedFactor != 0 {
		fmt.Fprintf(w, "# host_speed_factor=%.4f (times below are calibrated seconds; raw_* are wall clock)\n", res.Info.SpeedFactor)
	}
	for _, set := range []map[string]metricOut{res.Metrics, res.Extra} {
		names := make([]string, 0, len(set))
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := set[k]
			line := fmt.Sprintf("%-42s %16.6g %-9s", k, m.Value, m.Unit)
			if m.Samples > 0 {
				line += fmt.Sprintf(" n=%d", m.Samples)
			}
			if m.Q1 != 0 || m.Q3 != 0 {
				line += fmt.Sprintf(" q1=%.6g q3=%.6g", m.Q1, m.Q3)
			}
			fmt.Fprintln(w, line)
		}
	}
	fmt.Fprintf(w, "checks: attempted=%d failed=%d", res.Attempted, res.Failed)
	if res.Info.FirstFailure != "" {
		fmt.Fprintf(w, " first failure: %s", res.Info.FirstFailure)
	}
	fmt.Fprintln(w)
}

// appendResult adds the run as one JSON line to a result file.
func appendResult(path string, res result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all, then the per-layer profile)")
	seed := fs.Int64("seed", 7, "seed for every scene, weight and search")
	secs := fs.Float64("seconds", 5, "seconds of timed rounds per run")
	trace := fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	out := fs.String("out", "", "append each run as a JSON line to this file")
	traceOut := fs.String("trace-out", "", "write the traced run's spans as Chrome trace JSON to this file")
	compare := fs.Bool("compare", false, "compare two result files: -compare A B")
	spec := fs.String("spec", "", "path of BENCHMARK.json for -compare (default: ./ then ../)")
	printSpec := fs.Bool("print-spec", false, "print BENCHMARK.json as the definitions in this program give it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printSpec {
		fmt.Fprintln(stdout, specJSON())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(stdout, stderr, *spec, fs.Arg(0), fs.Arg(1))
	}
	if *secs <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}

	// Contract mode: one workload, one phase, the result as the last line.
	if *name != "" {
		def, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		var res result
		var err error
		if *trace == 1 {
			res, err = runProfile(def, *seed, *secs, *traceOut)
		} else {
			res, err = runEndToEnd(def, *seed, *secs)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
			return 1
		}
		printHuman(stdout, res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		if err := contractLine(stdout, res); err != nil {
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	// Everything: each workload's end-to-end phase, then the profile.
	code := 0
	var all []result
	for _, def := range workloads {
		if *trace == 1 {
			break
		}
		res, err := runEndToEnd(def, *seed, *secs)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
			return 1
		}
		all = append(all, res)
	}
	if *trace != 0 {
		res, err := runProfile(workloads[0], *seed, *secs, *traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "bench: profile: %v\n", err)
			return 1
		}
		res.Info.Workload = "all"
		all = append(all, res)
	}
	for _, res := range all {
		printHuman(stdout, res)
		fmt.Fprintln(stdout)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
