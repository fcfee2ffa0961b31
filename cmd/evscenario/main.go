// Command evscenario runs the deterministic scenario-fleet harness:
// scripted chaos and soak scenarios (session churn, traffic bursts,
// scene-dynamics shifts, node kill/drain/revive) executed against an
// embedded serving fleet on a virtual clock with a seeded RNG, with
// system-wide invariants checked on the recorded timeline.
//
// Usage:
//
//	evscenario -list
//	evscenario -scenario flash-crowd [-seed 7] [-json] [-trace out.json] [-cpuprofile file]
//
// The same (scenario, seed) pair always produces a byte-identical
// -json timeline — diff two runs to prove a change is behaviour-
// neutral, or commit one as a golden regression record. Exit status:
// 0 all invariants and scenario expectations hold, 1 a violation or
// run error, 2 bad flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	evedge "evedge"
	"evedge/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evscenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "", "scenario to run (see -list)")
		list     = fs.Bool("list", false, "list the scenario library and exit")
		seed     = fs.Int64("seed", 7, "RNG seed; same seed => byte-identical -json timeline")
		asJSON   = fs.Bool("json", false, "emit the full recorded timeline as JSON")
		trace    = fs.String("trace", "", "force tracing on and write the run's Chrome trace-event JSON here (byte-identical per scenario+seed)")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stopProfile, err := obs.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintln(stderr, "evscenario: -cpuprofile:", err)
		return 1
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(stderr, "evscenario: -cpuprofile:", err)
		}
	}()

	if *list {
		for _, name := range evedge.ScenarioNames() {
			sc, err := evedge.ScenarioByName(name)
			if err != nil {
				fmt.Fprintln(stderr, "evscenario:", err)
				return 1
			}
			target := sc.Nodes
			if target == "" {
				target = "single-server"
			}
			fmt.Fprintf(stdout, "%-20s %-18s %s\n", name, target, sc.Notes)
		}
		return 0
	}
	if *scenario == "" {
		fmt.Fprintln(stderr, "evscenario: pick a scenario with -scenario, or -list to see them")
		return 2
	}

	sc, err := evedge.ScenarioByName(*scenario)
	if err != nil {
		fmt.Fprintln(stderr, "evscenario:", err)
		return 1
	}
	var res *evedge.ScenarioResult
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(stderr, "evscenario:", err)
			return 1
		}
		res, err = evedge.RunScenarioTraced(sc, *seed, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "evscenario:", err)
			return 1
		}
	} else {
		res, err = evedge.RunScenario(sc, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "evscenario:", err)
			return 1
		}
	}
	violations := evedge.CheckScenario(res)
	violations = append(violations, evedge.CheckScenarioExpect(sc, res)...)

	if *asJSON {
		out, err := res.Encode()
		if err != nil {
			fmt.Fprintln(stderr, "evscenario:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		f := res.Final
		fmt.Fprintf(stdout, "scenario:    %s (seed %d)\n", res.Scenario, res.Seed)
		fmt.Fprintf(stdout, "             %s\n", sc.Notes)
		fmt.Fprintf(stdout, "virtual run: %d ticks x %.0f ms (%.1f s), %d timeline entries\n",
			res.Ticks, float64(res.TickUS)/1000, float64(res.Ticks)*float64(res.TickUS)*1e-6, len(res.Timeline))
		fmt.Fprintf(stdout, "sessions:    %d served, %d session finals recorded\n", f.Totals.Sessions, len(res.Sessions))
		fmt.Fprintf(stdout, "frames:      %d in, %d done, %d queue-dropped, %d dsfa-dropped, %d shed on failover\n",
			f.Totals.FramesIn, f.Totals.RawFramesDone, f.Totals.FramesDropped, f.Totals.FramesDroppedDSFA, f.ShedFrames)
		fmt.Fprintf(stdout, "adaptation:  %d retunes, %d remaps\n", f.Totals.Retunes, f.Totals.Remaps)
		fmt.Fprintf(stdout, "fleet:       %d failovers, %d migrations, %d lost\n", f.Failovers, f.Migrations, f.Lost)
		for _, n := range f.Nodes {
			fmt.Fprintf(stdout, "  node %-10s %-8s residual %d+%d frames\n",
				n.Name, n.State, n.ResidualQueued+n.RetiredQueued, n.ResidualAgg+n.RetiredAgg)
		}
		for _, s := range res.Stages {
			fmt.Fprintf(stdout, "  stage %-6s %7d samples, mean %8.0f us, p50 %8.0f us, p99 %8.0f us\n",
				s.Stage, s.Count, s.MeanUS, s.P50US, s.P99US)
		}
		if len(violations) == 0 {
			fmt.Fprintf(stdout, "invariants:  PASS (conservation, monotonic totals, drain-lossless, cooldown)\n")
		}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stderr, "evscenario: FAIL", v)
		}
		return 1
	}
	return 0
}
