// Package evedge is a reproduction of "Ev-Edge: Efficient Execution of
// Event-based Vision Algorithms on Commodity Edge Platforms"
// (Sridharan et al., DAC 2024).
//
// Ev-Edge boosts event-camera perception pipelines on heterogeneous
// edge SoCs with three optimizations integrated into the inference
// pipeline:
//
//   - E2SF, an Event2Sparse Frame converter that turns raw AER event
//     streams directly into sparse COO-style frames;
//   - DSFA, a Dynamic Sparse Frame Aggregator that merges sparse
//     frames at runtime based on input dynamics and hardware
//     availability;
//   - NMP, a Network Mapper that evolutionarily searches per-layer
//     device placement and precision for concurrently executing
//     networks under accuracy-degradation bounds.
//
// This package is the public facade: it exposes the network zoo
// (paper Table 1), the Jetson Xavier AGX-like platform model, the
// end-to-end streaming pipeline with its cumulative optimization
// levels, the Network Mapper with its round-robin baselines, and the
// experiment harness that regenerates every table and figure of the
// paper's evaluation. See README.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package evedge

import (
	"io"
	"net/http"

	"evedge/internal/cluster"
	"evedge/internal/control"
	"evedge/internal/events"
	"evedge/internal/experiments"
	"evedge/internal/harness"
	"evedge/internal/hw"
	"evedge/internal/nmp"
	"evedge/internal/nn"
	"evedge/internal/obs"
	"evedge/internal/perf"
	"evedge/internal/pipeline"
	"evedge/internal/scene"
	"evedge/internal/sched"
	"evedge/internal/serve"
)

// Core type aliases: the implementation lives in internal packages;
// these aliases form the supported public surface.
type (
	// Network is a layer DAG plus task metadata (paper Table 1).
	Network = nn.Network
	// Platform is a heterogeneous edge platform model.
	Platform = hw.Platform
	// Stream is an AER event stream.
	Stream = events.Stream
	// PipelineConfig configures an end-to-end streaming run.
	PipelineConfig = pipeline.Config
	// PipelineReport summarizes a streaming run.
	PipelineReport = pipeline.Report
	// Level is a cumulative optimization level of the pipeline.
	Level = pipeline.Level
	// MapperConfig tunes the evolutionary search.
	MapperConfig = nmp.Config
	// ExperimentConfig sizes an experiment run.
	ExperimentConfig = experiments.Config
	// ExperimentResult is one regenerated table or figure.
	ExperimentResult = experiments.Result
	// ScenePreset names a synthetic dataset-like sequence.
	ScenePreset = scene.Preset
	// SceneScale selects the camera resolution.
	SceneScale = scene.Scale
)

// Optimization levels (each includes the previous).
const (
	LevelBaseline = pipeline.LevelBaseline
	LevelE2SF     = pipeline.LevelE2SF
	LevelDSFA     = pipeline.LevelDSFA
	LevelNMP      = pipeline.LevelNMP
)

// Camera scales.
const (
	FullScale = scene.Full
	HalfScale = scene.Half
)

// Canonical network names.
const (
	SpikeFlowNet     = nn.SpikeFlowNet
	FusionFlowNet    = nn.FusionFlowNet
	AdaptiveSpikeNet = nn.AdaptiveSpikeNet
	HALSIE           = nn.HALSIE
	HidalgoDepth     = nn.HidalgoDepth
	DOTIE            = nn.DOTIE
	EVFlowNet        = nn.EVFlowNet
)

// Networks lists every network in the zoo.
func Networks() []string { return nn.AllNames() }

// Table1Networks lists exactly the networks of the paper's Table 1.
func Table1Networks() []string { return nn.Table1Names() }

// LoadNetwork constructs a network by canonical name.
func LoadNetwork(name string) (*Network, error) { return nn.ByName(name) }

// Xavier returns the Jetson Xavier AGX-like platform model (CPU, GPU,
// two DLAs, unified memory).
func Xavier() *Platform { return hw.Xavier() }

// PlatformByName returns a built-in platform preset: "xavier", or
// "orin", the Jetson AGX Orin-like model — roughly twice the Xavier per
// device class — used to show Ev-Edge porting across commodity
// platforms and to build heterogeneous serving fleets.
func PlatformByName(name string) (*Platform, error) { return hw.PlatformByName(name) }

// GenerateSequence simulates an event-camera sequence for one of the
// dataset-like presets.
func GenerateSequence(p ScenePreset, sc SceneScale, seed, durUS int64) (*Stream, error) {
	seq, err := scene.NewSequence(p, sc, seed)
	if err != nil {
		return nil, err
	}
	return seq.Generate(durUS)
}

// Presets lists the available synthetic sequences.
func Presets() []ScenePreset { return scene.AllPresets() }

// RunPipeline executes the end-to-end streaming pipeline.
func RunPipeline(cfg PipelineConfig) (*PipelineReport, error) { return pipeline.Run(cfg) }

// ParseLevel parses an optimization level by number or name (0|all-gpu,
// 1|e2sf, 2|dsfa, 3|nmp); unknown spellings are an error naming the
// valid levels, never a silent fallback.
func ParseLevel(s string) (Level, error) { return pipeline.ParseLevel(s) }

// Multi-task streaming aliases.
type (
	// MultiTaskConfig configures a concurrent streaming run of several
	// networks sharing the platform.
	MultiTaskConfig = pipeline.MultiTaskConfig
	// MultiTaskReport summarizes a concurrent streaming run.
	MultiTaskReport = pipeline.MultiTaskReport
)

// RunMultiTask streams several networks' frames through the shared
// platform under a mapper (or baseline) assignment, with cross-task
// queue contention.
func RunMultiTask(cfg MultiTaskConfig) (*MultiTaskReport, error) {
	return pipeline.RunMultiTask(cfg)
}

// NewMapper profiles the given networks on the platform (at the given
// per-task input event densities) and returns a Network Mapper ready
// to Search. Pass nil densities to profile fully dense.
func NewMapper(p *Platform, nets []*Network, densities []float64, cfg MapperConfig) (*nmp.Mapper, error) {
	model := perf.NewModel(p)
	db, err := perf.BuildProfileDB(model, nets, true, densities)
	if err != nil {
		return nil, err
	}
	return nmp.NewMapper(db, model, cfg)
}

// DefaultMapperConfig returns the search settings used by the
// experiments.
func DefaultMapperConfig() MapperConfig { return nmp.DefaultConfig() }

// Experiments lists the regenerable tables and figures.
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table or figure.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentResult, error) {
	return experiments.Run(id, cfg)
}

// RenderExperiment formats a result as an aligned text table.
func RenderExperiment(r *ExperimentResult) string { return experiments.RenderText(r) }

// FullExperimentConfig returns the full-fidelity experiment settings
// (DAVIS346 geometry, 2 s streams).
func FullExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// QuickExperimentConfig returns reduced settings for fast iteration.
func QuickExperimentConfig() ExperimentConfig { return experiments.QuickConfig() }

// Serving aliases: the multi-tenant streaming inference server
// (cmd/evserve) and its client (cmd/evload).
type (
	// ServeConfig tunes the streaming inference server.
	ServeConfig = serve.Config
	// Server multiplexes client sessions onto one shared platform.
	Server = serve.Server
	// ServeClient talks to a running evserve instance.
	ServeClient = serve.Client
	// ServeSessionConfig is a session creation request.
	ServeSessionConfig = serve.SessionConfig
	// SessionSnapshot is the observable state of a serving session.
	SessionSnapshot = serve.SessionSnapshot
	// ResultEvent is one journaled inference result, as delivered on the
	// SSE stream at /v1/sessions/{id}/stream (ServeConfig.Journal).
	ResultEvent = serve.ResultEvent
	// DropPolicy selects what a full session ingest queue sheds.
	DropPolicy = serve.DropPolicy
	// MapperPolicy selects how sessions are placed on the platform.
	MapperPolicy = serve.MapperPolicy
	// ServeAdaptConfig enables the online adaptation plane on a server:
	// per-session DSFA retuning and warm-started NMP remaps.
	ServeAdaptConfig = serve.AdaptConfig
	// RetunerConfig tunes the per-session DSFA retune controller.
	RetunerConfig = control.DSFAConfig
	// RemapPlannerConfig tunes the remap/migration gate.
	RemapPlannerConfig = control.RemapConfig
	// SchedStats is the execution scheduler's counter snapshot:
	// submissions, micro-batch dispatches, coalesced members and the
	// derived batch occupancy (Server.SchedStats, Cluster.SchedTotals).
	SchedStats = sched.Stats
	// TraceConfig enables the frame-lifecycle tracer on a server or
	// fleet (ServeConfig.Trace): bounded per-session span rings,
	// per-stage latency histograms on /metrics, and Chrome trace-event
	// JSON on /v1/trace.
	TraceConfig = obs.Config
)

// Session placement policies.
const (
	MapperNMP = serve.MapperNMP
	MapperRR  = serve.MapperRR
)

// DefaultServeConfig returns the server defaults (Xavier platform,
// round-robin placement, 4 workers).
func DefaultServeConfig() ServeConfig { return serve.DefaultConfig() }

// ParseDropPolicy parses a queue shed policy name ("", "drop-oldest",
// "oldest", "drop-newest", "newest").
func ParseDropPolicy(s string) (DropPolicy, error) { return serve.ParseDropPolicy(s) }

// NewServer starts the worker pool and returns the streaming server;
// mount NewServer(...).Handler() on an HTTP listener and Close it on
// shutdown.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// NewServeClient returns a client for the server at base (e.g.
// "http://localhost:7733"). A nil http.Client uses a 30 s timeout.
func NewServeClient(base string, hc *http.Client) *ServeClient { return serve.NewClient(base, hc) }

// Cluster aliases: the sharded multi-node serving fleet (cmd/evcluster)
// that fronts N embedded Servers with load-aware routing and
// health-driven failover. The router speaks the same HTTP API as a
// single node, so ServeClient and evload work against it unchanged.
type (
	// ClusterConfig tunes the fleet: node specs, placement policy,
	// probe interval and the base per-node server config.
	ClusterConfig = cluster.Config
	// Cluster is the sharded serving fleet.
	Cluster = cluster.Cluster
	// ClusterNodeSpec describes one fleet node.
	ClusterNodeSpec = cluster.NodeSpec
	// PlacementPolicy selects how the router places sessions on nodes.
	PlacementPolicy = cluster.PlacementPolicy
)

// NewCluster starts every node's worker pool plus the health-probe
// loop and returns the fleet; mount NewCluster(...).Handler() on an
// HTTP listener and Close it on shutdown.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// ParseNodeSpecs parses the -nodes flag syntax ("xavier:4,orin:4").
func ParseNodeSpecs(s string) ([]ClusterNodeSpec, error) { return cluster.ParseNodeSpecs(s) }

// ParsePlacementPolicy parses a placement policy name ("" =
// least-loaded).
func ParsePlacementPolicy(s string) (PlacementPolicy, error) {
	return cluster.ParsePlacementPolicy(s)
}

// Scenario-harness aliases: the deterministic chaos/soak engine
// (cmd/evscenario) that scripts fleets of sessions, bursts, dynamics
// shifts and node kill/drain/revive against an embedded cluster (or a
// single server) on a virtual clock, and checks system-wide invariants
// on the recorded timeline.
type (
	// Scenario is a declarative chaos/soak script.
	Scenario = harness.Script
	// ScenarioResult is a recorded run: timeline + terminal state.
	ScenarioResult = harness.Result
	// ScenarioViolation is one failed invariant or expectation.
	ScenarioViolation = harness.Violation
)

// ScenarioNames lists the built-in scenario library.
func ScenarioNames() []string { return harness.Names() }

// ScenarioByName returns a built-in scenario script.
func ScenarioByName(name string) (Scenario, error) { return harness.Get(name) }

// RunScenario executes a scenario script under a seed. The run is
// deterministic: same (script, seed), byte-identical Encode output.
func RunScenario(sc Scenario, seed int64) (*ScenarioResult, error) { return harness.Run(sc, seed) }

// RunScenarioTraced is RunScenario with frame-lifecycle tracing forced
// on: the Chrome trace-event JSON is written to w (load it in
// chrome://tracing or Perfetto). Under the virtual clock the trace is
// byte-identical per (scenario, seed).
func RunScenarioTraced(sc Scenario, seed int64, w io.Writer) (*ScenarioResult, error) {
	sc.Trace = true
	return harness.RunTraced(sc, seed, w)
}

// CheckScenario verifies the system-wide invariants (frame
// conservation, monotonic totals, no loss on drain, migration
// cooldown) on a recorded run.
func CheckScenario(res *ScenarioResult) []ScenarioViolation { return harness.Check(res) }

// CheckScenarioExpect verifies the scenario's own outcome contract.
func CheckScenarioExpect(sc Scenario, res *ScenarioResult) []ScenarioViolation {
	return harness.CheckExpect(sc, res)
}
