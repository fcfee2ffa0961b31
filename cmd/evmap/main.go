// Command evmap runs the Network Mapper on a workload and prints the
// resulting per-layer assignment, a device-occupancy Gantt chart, and
// optionally the mapped graph in Graphviz DOT format.
//
// Usage:
//
//	evmap [-nets Fusion-FlowNet,HALSIE,DOTIE,HidalgoDepth]
//	      [-platform xavier|orin] [-objective latency|energy]
//	      [-fp] [-seed N] [-dot]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"evedge/internal/hw"
	"evedge/internal/nmp"
	"evedge/internal/nn"
	"evedge/internal/perf"
	"evedge/internal/taskgraph"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses flags and maps the workload; it returns the process exit
// status so the flag error paths are testable (2 = bad flag syntax,
// 1 = bad configuration or search failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		netsFlag = fs.String("nets", strings.Join([]string{
			nn.FusionFlowNet, nn.HALSIE, nn.DOTIE, nn.HidalgoDepth}, ","),
			"comma-separated workload networks")
		platName  = fs.String("platform", "xavier", "platform preset (xavier, orin)")
		objective = fs.String("objective", "latency", "search objective: latency or energy")
		fp        = fs.Bool("fp", false, "full-precision-only search (Ev-Edge-NMP-FP)")
		seed      = fs.Int64("seed", 11, "search seed")
		density   = fs.Float64("density", 0.05, "input event-frame density per task")
		dot       = fs.Bool("dot", false, "emit the mapped graph in Graphviz DOT")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "evmap:", err)
		return 1
	}

	platform, err := hw.PlatformByName(*platName)
	if err != nil {
		return fail(err)
	}
	var nets []*nn.Network
	var dens []float64
	for _, name := range strings.Split(*netsFlag, ",") {
		net, err := nn.ByName(strings.TrimSpace(name))
		if err != nil {
			return fail(err)
		}
		nets = append(nets, net)
		dens = append(dens, *density)
	}
	model := perf.NewModel(platform)
	db, err := perf.BuildProfileDB(model, nets, true, dens)
	if err != nil {
		return fail(err)
	}
	cfg := nmp.DefaultConfig()
	cfg.Seed = *seed
	cfg.FullPrecisionOnly = *fp
	switch *objective {
	case "latency":
		cfg.Objective = nmp.MinLatency
	case "energy":
		cfg.Objective = nmp.MinEnergy
	default:
		return fail(fmt.Errorf("unknown objective %q", *objective))
	}
	mapper, err := nmp.NewMapper(db, model, cfg)
	if err != nil {
		return fail(err)
	}
	res, err := mapper.Search()
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "platform: %s, objective: %s, FP-only: %v\n", platform.Name, *objective, *fp)
	fmt.Fprintf(stdout, "searched: %d evaluations (%d cache hits)\n", res.Evaluations, res.CacheHits)
	fmt.Fprintf(stdout, "latency:  %.2f ms (feasible=%v), energy %.2f J\n\n",
		res.LatencyUS/1000, res.Feasible, res.EnergyJ)

	g, err := taskgraph.Build(db, model, res.Assignment)
	if err != nil {
		return fail(err)
	}
	if *dot {
		fmt.Fprint(stdout, g.DOT())
		return 0
	}
	fmt.Fprint(stdout, g.MappingTable())

	// Re-run the schedule recording the timeline for the Gantt chart.
	sched, err := g.Run(platform)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout)
	var spans []hw.Span
	for _, n := range g.Nodes {
		name := "UM"
		if n.Kind == taskgraph.ComputeNode {
			name = platform.Devices[n.Dev].Name
		}
		spans = append(spans, hw.Span{
			Device: name, Tag: g.Label(n.ID),
			Start: sched.NodeStart[n.ID], End: sched.NodeEnd[n.ID],
		})
	}
	fmt.Fprint(stdout, hw.Gantt(platform, spans, 100))
	fmt.Fprintln(stdout)
	for t, lat := range sched.TaskLatencyUS {
		fmt.Fprintf(stdout, "  task %d (%s): %.2f ms, ΔA %.3f (budget %.3f)\n",
			t, nets[t].Name, lat/1000, res.Deltas[t], mapper.Budgets()[t])
	}
	return 0
}
