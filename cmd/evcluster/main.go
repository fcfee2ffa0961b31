// Command evcluster runs the sharded multi-node serving fleet: N
// embedded evserve nodes (heterogeneous mixes of simulated Xavier and
// Orin platforms) behind a router that owns session placement,
// proxies the session lifecycle to the owning node, probes node
// health, and fails sessions over to survivors when a node dies or
// drains. The router speaks the same HTTP API as a single evserve
// node, so evload and serve clients work against it unchanged.
//
// Usage:
//
//	evcluster [-addr :7734] [-nodes xavier:4,orin:4]
//	          [-policy least-loaded|hash] [-probe 1s]
//	          [-workers 4] [-queue 64] [-drop drop-oldest]
//	          [-mapper rr|nmp] [-batch-max 8]
//	          [-adapt] [-rebalance-gap 0.25] [-rebalance-queue 8]
//	          [-rebalance-cooldown 5s] [-journal]
//
// -adapt enables each node's online control plane (DSFA retuning, and
// NMP remaps under -mapper nmp). -rebalance-gap > 0 additionally lets
// the router consume the same node-load signals to migrate sessions
// off hot nodes mid-run (gracefully; one session per cooldown),
// instead of only reacting to kill/drain.
//
// -journal turns on per-session event journals: every ingest chunk is
// replicated to a deterministic buddy node, so a kill replays the
// un-acknowledged backlog through the survivor instead of shedding it,
// and clients can follow results over SSE (GET
// /v1/sessions/{id}/stream?since=<seq>) across the failover.
//
// Fleet admin (beyond the single-node API):
//
//	GET  /v1/nodes                 per-node health
//	POST /v1/nodes/{name}/kill     simulate a node failure
//	POST /v1/nodes/{name}/drain    graceful drain + migration
//	POST /v1/nodes/{name}/revive   restart a killed node (fresh server)
//	POST /v1/nodes/{name}/undrain  return a draining node to service
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	evedge "evedge"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run parses flags and serves the fleet; it returns the process exit
// status so the flag error paths are testable (2 = bad flag syntax,
// 1 = bad configuration or serve failure).
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("evcluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":7734", "listen address")
		nodes    = fs.String("nodes", "xavier:2", "fleet spec: comma-separated platform[:count] groups, e.g. xavier:4,orin:4")
		policy   = fs.String("policy", "least-loaded", "session placement policy: least-loaded or hash")
		probe    = fs.Duration("probe", time.Second, "health probe interval (failover latency bound)")
		workers  = fs.Int("workers", 4, "worker pool size per node")
		queue    = fs.Int("queue", 64, "default per-session ingest queue capacity (frames)")
		drop     = fs.String("drop", "drop-oldest", "default queue shed policy: drop-oldest or drop-newest")
		mapper   = fs.String("mapper", "rr", "per-node session placement: rr (round-robin) or nmp (evolutionary search)")
		batchMax = fs.Int("batch-max", 8, "max compatible invocations coalesced per micro-batch on each node (1 = serialized)")
		adapt    = fs.Bool("adapt", false, "enable each node's online control plane (DSFA retuning; NMP remaps under -mapper nmp)")
		journal  = fs.Bool("journal", false, "enable per-session event journals with buddy replication (lossless failover; SSE at /v1/sessions/{id}/stream)")
		gap      = fs.Float64("rebalance-gap", 0, "node-utilization spread that triggers a load-driven session migration (0 disables)")
		queueTh  = fs.Int("rebalance-queue", 0, "pending-invocation spread across nodes that also triggers a migration (0 disables; needs -rebalance-gap > 0)")
		cooldown = fs.Duration("rebalance-cooldown", 5*time.Second, "minimum time between load-driven migrations")
		trace    = fs.String("trace", "", "enable fleet-wide frame-lifecycle tracing and write merged Chrome trace-event JSON here on shutdown (also served live at /v1/trace)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	specs, err := evedge.ParseNodeSpecs(*nodes)
	if err != nil {
		fmt.Fprintln(stderr, "evcluster:", err)
		return 1
	}
	pol, err := evedge.ParsePlacementPolicy(*policy)
	if err != nil {
		fmt.Fprintln(stderr, "evcluster:", err)
		return 1
	}
	node := evedge.DefaultServeConfig()
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", *workers}, {"queue", *queue}, {"batch-max", *batchMax}} {
		if f.v < 1 {
			fmt.Fprintf(stderr, "evcluster: -%s must be >= 1, got %d\n", f.name, f.v)
			return 1
		}
	}
	node.Workers = *workers
	node.QueueCap = *queue
	node.Mapper = evedge.MapperPolicy(*mapper)
	node.BatchMax = *batchMax
	node.DropPolicy, err = evedge.ParseDropPolicy(*drop)
	if err != nil {
		fmt.Fprintln(stderr, "evcluster:", err)
		return 1
	}
	if *adapt {
		node.Adapt = evedge.ServeAdaptConfig{
			Retune: true,
			Remap:  node.Mapper == evedge.MapperNMP,
		}
	}
	if *trace != "" {
		node.Trace = evedge.TraceConfig{Enabled: true}
	}
	node.Journal = *journal

	c, err := evedge.NewCluster(evedge.ClusterConfig{
		Nodes:               specs,
		Policy:              pol,
		ProbeInterval:       *probe,
		RebalanceGap:        *gap,
		RebalanceQueueDepth: *queueTh,
		RebalanceCooldown:   *cooldown,
		Node:                node,
	})
	if err != nil {
		fmt.Fprintln(stderr, "evcluster:", err)
		return 1
	}
	hs := &http.Server{Addr: *addr, Handler: c.Handler()}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Println("evcluster: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		if *trace != "" {
			if err := writeTraceFile(c, *trace); err != nil {
				log.Println("evcluster:", err)
			} else {
				log.Printf("evcluster: wrote merged trace to %s", *trace)
			}
		}
		c.Close()
	}()

	log.Printf("evcluster: listening on %s (nodes=[%s], policy=%s, probe=%s, workers/node=%d)",
		*addr, strings.Join(c.NodeNames(), ","), pol, *probe, *workers)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "evcluster:", err)
		return 1
	}
	<-done
	return 0
}

// writeTraceFile dumps the fleet's merged frame-lifecycle trace (every
// node incarnation plus the router's fleet track) as Chrome trace-event
// JSON.
func writeTraceFile(c *evedge.Cluster, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	if err := c.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
