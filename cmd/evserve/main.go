// Command evserve runs the multi-tenant streaming inference server: a
// long-lived HTTP service that accepts AER event streams into
// per-client sessions and multiplexes them onto one shared simulated
// Jetson Xavier AGX through the Ev-Edge pipeline.
//
// Usage:
//
//	evserve [-addr :7733] [-platform xavier|orin] [-workers 4]
//	        [-queue 64] [-drop drop-oldest] [-mapper rr|nmp]
//	        [-batch-max 8]
//	        [-adapt] [-adapt-interval 50ms] [-remap-cooldown 250ms]
//	        [-journal] [-cpuprofile file]
//
// Execution flows through the shared scheduler (internal/sched):
// per-device run queues coalesce compatible invocations from
// concurrent sessions into micro-batches, and the worker that submits
// an invocation dispatches it. -batch-max caps members per batch
// (1 = serialized baseline); a batch takes only work already queued,
// never waiting for more. Occupancy is exposed in /metrics
// (evserve_sched_batch_occupancy).
//
// -adapt turns on the online control plane: per-session DSFA retuning
// that tracks scene dynamics and backlog, and (under -mapper nmp)
// warm-started NMP remaps that re-place layers as load shifts. Retune
// and remap activity is exposed in /metrics (evserve_retunes_total,
// evserve_control_remap_*).
//
// -cpuprofile writes a runtime/pprof CPU profile of the process from
// start-up to graceful shutdown (SIGINT or SIGTERM); a path that cannot
// be created exits 1 before the server listens.
//
// API:
//
//	POST   /v1/sessions              {"network":"DOTIE","level":2}
//	POST   /v1/sessions/{id}/events  EVAR binary or JSON chunk
//	GET    /v1/sessions[/{id}]       session stats
//	GET    /v1/sessions/{id}/stream  SSE result stream (needs -journal; ?since=<seq> catch-up)
//	POST   /v1/sessions/{id}/close   flush + final stats
//	DELETE /v1/sessions/{id}         same as close
//	GET    /healthz                  liveness + session counts
//	GET    /metrics                  Prometheus text exposition
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
	"syscall"
	"time"

	evedge "evedge"
	"evedge/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run parses flags and serves; it returns the process exit status so
// the flag error paths are testable (2 = bad flag syntax, 1 = bad
// configuration or serve failure).
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("evserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":7733", "listen address")
		platform = fs.String("platform", "xavier", "platform model: xavier or orin")
		workers  = fs.Int("workers", 4, "worker pool size")
		queue    = fs.Int("queue", 64, "default per-session ingest queue capacity (frames)")
		drop     = fs.String("drop", "drop-oldest", "default queue shed policy: drop-oldest or drop-newest")
		mapper   = fs.String("mapper", "rr", "session placement policy: rr (round-robin) or nmp (evolutionary search)")
		batchMax = fs.Int("batch-max", 8, "max compatible invocations coalesced per micro-batch (1 = serialized)")
		adapt    = fs.Bool("adapt", false, "enable the online control plane (DSFA retuning; NMP remaps under -mapper nmp)")
		journal  = fs.Bool("journal", false, "enable per-session event journals (SSE result streaming at /v1/sessions/{id}/stream)")
		adaptInt = fs.Duration("adapt-interval", 50*time.Millisecond, "minimum stream time between retune decisions")
		cooldown = fs.Duration("remap-cooldown", 250*time.Millisecond, "minimum virtual time between NMP remaps")
		trace    = fs.String("trace", "", "enable frame-lifecycle tracing and write Chrome trace-event JSON here on shutdown (also served live at /v1/trace)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the process to this file, stopped on graceful shutdown")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stopProfile, err := obs.StartCPUProfile(*cpuProf)
	if err != nil {
		fmt.Fprintln(stderr, "evserve: -cpuprofile:", err)
		return 1
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(stderr, "evserve: -cpuprofile:", err)
		}
	}()

	cfg := evedge.DefaultServeConfig()
	p, err := evedge.PlatformByName(*platform)
	if err != nil {
		fmt.Fprintln(stderr, "evserve:", err)
		return 1
	}
	cfg.Platform = p
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", *workers}, {"queue", *queue}, {"batch-max", *batchMax}} {
		if f.v < 1 {
			fmt.Fprintf(stderr, "evserve: -%s must be >= 1, got %d\n", f.name, f.v)
			return 1
		}
	}
	cfg.Workers = *workers
	cfg.QueueCap = *queue
	cfg.Mapper = evedge.MapperPolicy(*mapper)
	cfg.BatchMax = *batchMax
	cfg.DropPolicy, err = evedge.ParseDropPolicy(*drop)
	if err != nil {
		fmt.Fprintln(stderr, "evserve:", err)
		return 1
	}
	if *adapt {
		cfg.Adapt = evedge.ServeAdaptConfig{
			Retune: true,
			Remap:  cfg.Mapper == evedge.MapperNMP,
			DSFA:   evedge.RetunerConfig{DecideEveryUS: adaptInt.Microseconds()},
			Planner: evedge.RemapPlannerConfig{
				CooldownUS: float64(cooldown.Microseconds()),
			},
		}
	}
	if *trace != "" {
		cfg.Trace = evedge.TraceConfig{Enabled: true, Node: "server"}
	}
	cfg.Journal = *journal

	srv, err := evedge.NewServer(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "evserve:", err)
		return 1
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Println("evserve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		if *trace != "" {
			if err := writeTraceFile(srv, *trace); err != nil {
				log.Println("evserve:", err)
			} else {
				log.Printf("evserve: wrote trace to %s", *trace)
			}
		}
		srv.Close()
	}()

	log.Printf("evserve: listening on %s (platform=%s, workers=%d, queue=%d, mapper=%s, batch-max=%d, adapt=%v)",
		*addr, cfg.Platform.Name, cfg.Workers, cfg.QueueCap, cfg.Mapper, cfg.BatchMax, *adapt)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "evserve:", err)
		return 1
	}
	<-done
	return 0
}

// writeTraceFile dumps the server's frame-lifecycle trace as Chrome
// trace-event JSON (load in chrome://tracing or Perfetto).
func writeTraceFile(srv *evedge.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	if err := srv.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
