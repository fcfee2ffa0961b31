// Command evload replays synthetic event-camera sequences against a
// running evserve instance and reports per-session and aggregate
// latency/throughput — the closed-loop "how many cameras can one
// Xavier serve" experiment.
//
// Usage:
//
//	evload [-addr http://localhost:7733] [-sessions 4] [-nets a,b,...]
//	       [-level 2] [-dur us] [-chunk us] [-rate eps] [-speed x]
//	       [-wire evar|json] [-seed N] [-json] [-stream] [-cpuprofile file]
//
// Each concurrent session streams its network's scene preset in
// chunk-sized pieces. -rate subsamples events to approximate a target
// events/second; -speed paces replay relative to sensor time (1 =
// real time, 0 = as fast as possible).
//
// -stream additionally subscribes each session to the server-push SSE
// result stream (the server must run -journal) and reports how many
// results and frames arrived over the push path alongside the polled
// final stats.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	evedge "evedge"
	"evedge/internal/obs"
)

type sessionReport struct {
	Session       string  `json:"session"`
	Node          string  `json:"node,omitempty"`
	Network       string  `json:"network"`
	Events        int     `json:"events"`
	Chunks        int     `json:"chunks"`
	FramesIn      uint64  `json:"frames_in"`
	FramesDropped uint64  `json:"frames_dropped"`
	Invocations   uint64  `json:"invocations"`
	MergeRatio    float64 `json:"merge_ratio"`
	ThroughputFPS float64 `json:"throughput_fps"`
	// Retunes counts DSFA tuning changes the online controller applied
	// (0 unless the server runs -adapt). Remaps counts execution plans
	// installed after the first — session-churn rebalances as well as
	// load-driven adaptive remaps.
	Retunes uint64 `json:"retunes"`
	Remaps  uint64 `json:"remaps"`
	// StreamedResults/StreamedFrames count what arrived over the SSE
	// push stream (-stream against a -journal server); zero otherwise.
	StreamedResults uint64  `json:"streamed_results,omitempty"`
	StreamedFrames  uint64  `json:"streamed_frames,omitempty"`
	SimP50MS        float64 `json:"sim_p50_ms"`
	SimP99MS        float64 `json:"sim_p99_ms"`
	WallP50MS       float64 `json:"wall_p50_ms"`
	WallP99MS       float64 `json:"wall_p99_ms"`
	Err             string  `json:"error,omitempty"`
}

// nodeDist is one row of the per-node session-distribution table,
// populated when the target is a cluster (session snapshots carry a
// node name).
type nodeDist struct {
	Node          string `json:"node"`
	Sessions      int    `json:"sessions"`
	Events        int    `json:"events"`
	FramesIn      uint64 `json:"frames_in"`
	FramesDropped uint64 `json:"frames_dropped"`
}

type loadReport struct {
	Sessions           []sessionReport `json:"sessions"`
	TotalEvents        int             `json:"total_events"`
	TotalFramesIn      uint64          `json:"total_frames_in"`
	TotalFramesDropped uint64          `json:"total_frames_dropped"`
	// ShedRate is the aggregate ingest-queue loss:
	// frames_dropped / frames_in over all sessions.
	ShedRate     float64 `json:"shed_rate"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	MaxSimP99MS  float64 `json:"max_sim_p99_ms"`
	// RetunesPerSession/RemapsPerSession average the control-plane
	// activity over successful sessions.
	RetunesPerSession float64 `json:"retunes_per_session"`
	RemapsPerSession  float64 `json:"remaps_per_session"`
	// TotalStreamed* aggregate the SSE push path (-stream runs only).
	TotalStreamedResults uint64     `json:"total_streamed_results,omitempty"`
	TotalStreamedFrames  uint64     `json:"total_streamed_frames,omitempty"`
	Nodes                []nodeDist `json:"nodes,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses flags and drives the load; it returns the process exit
// status so the flag error paths are testable (2 = bad flag syntax,
// 1 = bad configuration, unreachable server or a failed session).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "http://localhost:7733", "evserve base URL")
		sessions = fs.Int("sessions", 4, "concurrent sessions")
		netsFlag = fs.String("nets", "DOTIE,HALSIE,SpikeFlowNet,HidalgoDepth",
			"comma-separated networks, cycled over sessions")
		level   = fs.String("level", "2", "optimization level by name or number: 0|all-gpu, 1|e2sf, 2|dsfa, 3|nmp")
		dur     = fs.Int64("dur", 1_000_000, "sensor-time duration per session (us)")
		chunk   = fs.Int64("chunk", 25_000, "chunk duration per POST (us)")
		rate    = fs.Float64("rate", 0, "subsample to ~N events/s (0 = native rate)")
		speed   = fs.Float64("speed", 0, "replay speed vs sensor time (1 = real time, 0 = flat out)")
		wire    = fs.String("wire", "evar", "wire format: evar (binary) or json")
		seed    = fs.Int64("seed", 42, "base random seed")
		jsonOut = fs.Bool("json", false, "emit the report as JSON")
		stream  = fs.Bool("stream", false, "follow each session's SSE result stream (server must run -journal)")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *sessions < 1 {
		fmt.Fprintf(stderr, "evload: -sessions must be >= 1, got %d\n", *sessions)
		return 1
	}
	// A session posts a chunk per -chunk µs up to -dur: below 1 it
	// would post the same empty chunk forever.
	if *chunk < 1 {
		fmt.Fprintf(stderr, "evload: -chunk must be >= 1, got %d\n", *chunk)
		return 1
	}
	if *dur < 1 {
		fmt.Fprintf(stderr, "evload: -dur must be >= 1, got %d\n", *dur)
		return 1
	}
	if *wire != "evar" && *wire != "json" {
		fmt.Fprintf(stderr, "evload: unknown wire format %q\n", *wire)
		return 1
	}
	lvl, err := evedge.ParseLevel(*level)
	if err != nil {
		fmt.Fprintln(stderr, "evload:", err)
		return 1
	}
	stopProfile, err := obs.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintln(stderr, "evload: -cpuprofile:", err)
		return 1
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(stderr, "evload: -cpuprofile:", err)
		}
	}()

	names := strings.Split(*netsFlag, ",")
	cl := evedge.NewServeClient(*addr, nil)
	if _, err := cl.Health(); err != nil {
		fmt.Fprintf(stderr, "evload: server not reachable: %v\n", err)
		return 1
	}
	// The SSE stream outlives the default 30s client deadline, so the
	// streaming client runs without one (lifetime bounded by context).
	var streamCl *evedge.ServeClient
	if *stream {
		streamCl = evedge.NewServeClient(*addr, &http.Client{})
	}

	reports := make([]sessionReport, *sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := strings.TrimSpace(names[i%len(names)])
			reports[i] = runSession(cl, streamCl, name, int(lvl), *dur, *chunk, *rate, *speed, *wire, *seed+int64(i))
		}(i)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	rep := loadReport{Sessions: reports, WallSeconds: wall}
	failed := false
	byNode := map[string]*nodeDist{}
	var nodeOrder []string
	var ok, retunes, remaps int
	for _, r := range reports {
		if r.Err != "" {
			failed = true
			continue
		}
		ok++
		retunes += int(r.Retunes)
		remaps += int(r.Remaps)
		rep.TotalEvents += r.Events
		rep.TotalFramesIn += r.FramesIn
		rep.TotalFramesDropped += r.FramesDropped
		rep.TotalStreamedResults += r.StreamedResults
		rep.TotalStreamedFrames += r.StreamedFrames
		if r.SimP99MS > rep.MaxSimP99MS {
			rep.MaxSimP99MS = r.SimP99MS
		}
		if r.Node != "" {
			d, ok := byNode[r.Node]
			if !ok {
				d = &nodeDist{Node: r.Node}
				byNode[r.Node] = d
				nodeOrder = append(nodeOrder, r.Node)
			}
			d.Sessions++
			d.Events += r.Events
			d.FramesIn += r.FramesIn
			d.FramesDropped += r.FramesDropped
		}
	}
	if rep.TotalFramesIn > 0 {
		rep.ShedRate = float64(rep.TotalFramesDropped) / float64(rep.TotalFramesIn)
	}
	if ok > 0 {
		rep.RetunesPerSession = float64(retunes) / float64(ok)
		rep.RemapsPerSession = float64(remaps) / float64(ok)
	}
	sort.Strings(nodeOrder)
	for _, n := range nodeOrder {
		rep.Nodes = append(rep.Nodes, *byNode[n])
	}
	if wall > 0 {
		rep.EventsPerSec = float64(rep.TotalEvents) / wall
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "evload:", err)
			return 1
		}
	} else {
		printReport(stdout, rep)
	}
	if failed {
		return 1
	}
	return 0
}

// runSession streams one session end to end and collapses it into a
// report row. A non-nil streamCl additionally follows the session's
// SSE result stream for its whole lifetime.
func runSession(cl, streamCl *evedge.ServeClient, name string, level int, dur, chunkUS int64, rate, speed float64, wire string, seed int64) sessionReport {
	rep := sessionReport{Network: name}
	fail := func(err error) sessionReport {
		rep.Err = err.Error()
		return rep
	}
	net, err := evedge.LoadNetwork(name)
	if err != nil {
		return fail(err)
	}
	stream, err := evedge.GenerateSequence(net.Input.Preset, evedge.HalfScale, seed, dur)
	if err != nil {
		return fail(err)
	}
	if rate > 0 {
		stream = subsample(stream, rate, dur)
	}

	snap, err := cl.CreateSession(evedge.ServeSessionConfig{Network: name, Level: level})
	if err != nil {
		return fail(err)
	}
	rep.Session = snap.ID

	// The push subscription rides alongside ingest; CloseSession ends
	// the journal, which ends the stream (event: close -> nil).
	streamDone := make(chan error, 1)
	if streamCl != nil {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			streamDone <- streamCl.StreamResults(ctx, snap.ID, 0, func(ev evedge.ResultEvent) error {
				rep.StreamedResults++
				rep.StreamedFrames += uint64(ev.Frames)
				return nil
			})
		}()
	}

	var wallUS []float64
	for t0 := int64(0); t0 < dur; t0 += chunkUS {
		c := stream.Slice(t0, t0+chunkUS)
		req := time.Now()
		var err error
		if wire == "json" {
			_, err = cl.SendEventsJSON(snap.ID, c)
		} else {
			_, err = cl.SendEvents(snap.ID, c)
		}
		if err != nil {
			return fail(err)
		}
		wallUS = append(wallUS, float64(time.Since(req).Microseconds()))
		rep.Events += c.Len()
		rep.Chunks++
		if speed > 0 {
			if lag := time.Duration(float64(chunkUS)/speed)*time.Microsecond - time.Since(req); lag > 0 {
				time.Sleep(lag)
			}
		}
	}

	fin, err := cl.CloseSession(snap.ID)
	if err != nil {
		return fail(err)
	}
	if streamCl != nil {
		select {
		case serr := <-streamDone:
			if serr != nil {
				return fail(fmt.Errorf("result stream: %w", serr))
			}
		case <-time.After(10 * time.Second):
			return fail(errors.New("result stream did not close with the session"))
		}
	}
	rep.Node = fin.Node
	rep.FramesIn = fin.FramesIn
	rep.FramesDropped = fin.FramesDropped
	rep.Invocations = fin.Invocations
	rep.MergeRatio = fin.MergeRatio
	rep.ThroughputFPS = fin.ThroughputFPS
	rep.Retunes = fin.Retunes
	rep.Remaps = fin.Remaps
	rep.SimP50MS = fin.Latency.P50US / 1000
	rep.SimP99MS = fin.Latency.P99US / 1000
	sort.Float64s(wallUS)
	rep.WallP50MS = pick(wallUS, 0.50) / 1000
	rep.WallP99MS = pick(wallUS, 0.99) / 1000
	return rep
}

// subsample thins the stream to approximately targetEPS events/s.
func subsample(s *evedge.Stream, targetEPS float64, durUS int64) *evedge.Stream {
	native := float64(s.Len()) / (float64(durUS) * 1e-6)
	if native <= targetEPS || native == 0 {
		return s
	}
	keepEvery := native / targetEPS
	out := &evedge.Stream{Width: s.Width, Height: s.Height}
	next := 0.0
	for i, e := range s.Events {
		if float64(i) >= next {
			out.Events = append(out.Events, e)
			next += keepEvery
		}
	}
	return out
}

// pick reads a quantile from a sorted sample.
func pick(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func printReport(w io.Writer, rep loadReport) {
	clustered := len(rep.Nodes) > 0
	node := func(r sessionReport) string {
		if !clustered {
			return ""
		}
		return fmt.Sprintf(" %-10s", r.Node)
	}
	head := ""
	if clustered {
		head = fmt.Sprintf(" %-10s", "node")
	}
	fmt.Fprintf(w, "%-6s%s %-18s %9s %8s %7s %7s %7s %7s %9s %9s %9s %9s\n",
		"sess", head, "network", "events", "frames", "drops", "invoc", "retunes", "remaps", "fps", "sim p50", "sim p99", "wall p99")
	for _, r := range rep.Sessions {
		if r.Err != "" {
			fmt.Fprintf(w, "%-6s%s %-18s ERROR: %s\n", r.Session, node(r), r.Network, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-6s%s %-18s %9d %8d %7d %7d %7d %7d %9.1f %7.2fms %7.2fms %7.2fms\n",
			r.Session, node(r), r.Network, r.Events, r.FramesIn, r.FramesDropped, r.Invocations,
			r.Retunes, r.Remaps, r.ThroughputFPS, r.SimP50MS, r.SimP99MS, r.WallP99MS)
	}
	fmt.Fprintf(w, "\ntotal: %d events in %.2fs (%.0f events/s), worst sim p99 %.2f ms\n",
		rep.TotalEvents, rep.WallSeconds, rep.EventsPerSec, rep.MaxSimP99MS)
	fmt.Fprintf(w, "shed:  %d of %d frames dropped (%.2f%% shed rate)\n",
		rep.TotalFramesDropped, rep.TotalFramesIn, rep.ShedRate*100)
	fmt.Fprintf(w, "adapt: %.1f retunes/session, %.1f remaps/session\n",
		rep.RetunesPerSession, rep.RemapsPerSession)
	if rep.TotalStreamedResults > 0 {
		fmt.Fprintf(w, "push:  %d results (%d frames) delivered over SSE\n",
			rep.TotalStreamedResults, rep.TotalStreamedFrames)
	}
	if clustered {
		fmt.Fprintf(w, "\n%-10s %9s %9s %8s %7s\n", "node", "sessions", "events", "frames", "drops")
		for _, d := range rep.Nodes {
			fmt.Fprintf(w, "%-10s %9d %9d %8d %7d\n", d.Node, d.Sessions, d.Events, d.FramesIn, d.FramesDropped)
		}
	}
}
