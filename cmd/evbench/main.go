// Command evbench regenerates the paper's tables and figures.
//
// Usage:
//
//	evbench [-run all|table1,fig8,...] [-quick] [-seed N] [-dur us]
//	        [-list] [-cpuprofile file]
//
// Each experiment prints an aligned text table plus the paper's
// reference band, so the output can be compared against the paper (and
// is the source for EXPERIMENTS.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	evedge "evedge"
	"evedge/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runExperiment regenerates one experiment; tests see the configuration
// run hands it.
var runExperiment = evedge.RunExperiment

// run parses flags and regenerates the selected experiments; it
// returns the process exit status so the flag and experiment-selection
// error paths are testable (2 = bad flag syntax, 1 = bad -dur or
// experiment).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs = fs.String("run", "all", "comma-separated experiment IDs, or 'all'")
		quick  = fs.Bool("quick", false, "reduced fidelity (half-scale camera, smaller search)")
		seed   = fs.Int64("seed", 7, "random seed for all stochastic components")
		dur    = fs.Int64("dur", 0, "simulated stream duration in microseconds (default 2000000, 1200000 with -quick)")
		list   = fs.Bool("list", false, "list experiment IDs and exit")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if given["dur"] && *dur <= 0 {
		fmt.Fprintf(stderr, "evbench: -dur must be positive, got %d\n", *dur)
		return 1
	}
	stopProfile, err := obs.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintln(stderr, "evbench: -cpuprofile:", err)
		return 1
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(stderr, "evbench: -cpuprofile:", err)
		}
	}()

	if *list {
		for _, id := range evedge.Experiments() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	cfg := evedge.FullExperimentConfig()
	if *quick {
		cfg = evedge.QuickExperimentConfig()
	}
	cfg.Seed = *seed
	if given["dur"] {
		cfg.DurUS = *dur
	}

	ids := evedge.Experiments()
	if *runIDs != "all" {
		ids = strings.Split(*runIDs, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		res, err := runExperiment(id, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "evbench: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprint(stdout, evedge.RenderExperiment(res))
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	return 0
}
