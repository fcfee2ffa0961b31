package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"evedge/internal/control"
	"evedge/internal/events"
	"evedge/internal/hw"
	"evedge/internal/mem"
	"evedge/internal/nmp"
	"evedge/internal/nn"
	"evedge/internal/obs"
	"evedge/internal/perf"
	"evedge/internal/pipeline"
	"evedge/internal/sched"
	"evedge/internal/sparse"
	"evedge/internal/taskgraph"
)

// MapperPolicy selects how active sessions are placed on the platform.
type MapperPolicy string

// Placement policies: the Network Mapper's evolutionary search, or the
// coarse round-robin baseline (network i on accelerator i mod N).
const (
	MapperNMP MapperPolicy = "nmp"
	MapperRR  MapperPolicy = "rr"
)

// Config tunes the server.
type Config struct {
	// Platform is the shared heterogeneous platform model; nil uses the
	// Xavier AGX model.
	Platform *hw.Platform
	// Workers sizes the worker pool draining session queues (default 4).
	Workers int
	// QueueCap is the default per-session ingest queue bound in frames
	// (default 64).
	QueueCap int
	// DropPolicy is the default shedding policy for full queues.
	DropPolicy DropPolicy
	// Mapper places active sessions' layers on devices: MapperRR
	// (default) or MapperNMP. The policy re-runs on every session
	// create and close.
	Mapper MapperPolicy
	// BatchMax caps how many compatible invocations — same (device,
	// network, precision plan) — the execution scheduler coalesces into
	// one micro-batched inference (default sched.DefaultMaxBatch; 1
	// disables coalescing, the serialized baseline).
	BatchMax int
	// ManualDrain disables the background worker pool: sessions queue
	// work as usual, but nothing executes until the owner calls Pump.
	// A single-threaded driver (the scenario harness) uses it to drain
	// queues at deterministic points on a virtual clock; a production
	// server leaves it false.
	ManualDrain bool
	// Adapt wires the online adaptation plane (internal/control) into
	// the server; the zero value leaves both loops off, freezing the
	// DSFA tuning and the placement at session creation as before.
	Adapt AdaptConfig
	// Trace wires the frame-lifecycle tracing layer (internal/obs):
	// spans for ingest, queue wait, DSFA aggregation, batch-coalesce
	// wait, per-device execution, UM transfers and completion, exported
	// as Chrome trace-event JSON at GET /v1/trace and as per-stage
	// latency histograms in /metrics. Off by default — a disabled
	// server carries a nil tracer and pays one pointer check per path.
	Trace obs.Config
	// Journal enables the per-session event journal: every ingest chunk
	// and emitted result gets a monotonic sequence number, results are
	// retained for SSE catch-up (GET /v1/sessions/{id}/stream) and the
	// cluster replicates unacknowledged chunks to a buddy node for
	// lossless failover replay. Off by default — the steady-state frame
	// path stays allocation-free and sessions carry a nil journal.
	Journal bool
	// OnResult, when set alongside Journal, observes every journaled
	// result right after it is appended: the session's local ID, the
	// event (with its assigned sequence number) and the journal's
	// chunk-ack watermark at that instant. The cluster router uses it
	// to replicate results to the session's buddy node so a failover
	// can re-seed the resumed journal's sequence counter and catch-up
	// ring. Called outside the session lock; must not block on the
	// session's own serving path.
	OnResult func(sessionID string, ev ResultEvent, ackSeq uint64)
}

// AdaptConfig enables the per-node control loop.
type AdaptConfig struct {
	// Retune lets the per-session controller swap DSFA tunings
	// mid-stream (sessions at LevelDSFA and above).
	Retune bool
	// Remap lets the node run warm-started incremental NMP searches
	// and install better plans mid-stream. Requires MapperNMP.
	Remap bool
	// DSFA sets how often the retune controller decides; zero takes
	// control.DefaultDSFAConfig. Its hysteresis and widening cap are
	// constants of internal/control.
	DSFA control.DSFAConfig
	// Planner sets the remap gate's cooldown and triggers; zero fields
	// take control.DefaultRemapConfig. The gain a plan must deliver and
	// the warm search's generation budget are constants of
	// internal/control.
	Planner control.RemapConfig
}

// MaxBodyBytes bounds one ingest request body, at a node and at the
// cluster router alike; a longer body is answered 413.
const MaxBodyBytes = 64 << 20

// MaxClosed bounds how many closed sessions are retained for stats and
// /metrics before the oldest are evicted, keeping a long-lived server's
// memory and scrape size bounded. The cluster router bounds its closed
// routes and a replica store its fences by it too.
const MaxClosed = 64

// ErrNoSession reports an unknown session ID.
var ErrNoSession = errors.New("serve: no such session")

// ErrChunkTooLarge is returned by Ingest for a chunk that is well-formed
// but asks the server for unbounded work: a first chunk declaring a
// sensor larger than maxSessionPixels, or one whose time span makes
// time framing emit more than maxFramesPerIngest frames in one call, or
// one with a timestamp within one window (count framing: one
// microsecond) of either end of int64, where framing would overflow.
// The session is left untouched; HTTP answers 400.
var ErrChunkTooLarge = errors.New("serve: chunk exceeds ingest work bounds")

// ErrDraining reports a session create refused by a draining node.
var ErrDraining = Unavailable("serve: node is draining")

// ErrServerClosed reports an ingest or create against a server whose
// Close already ran. A killed node must refuse new work: accepting a
// chunk onto a corpse would silently strand its frames in a queue
// nothing will ever drain — and recycle them into the dead node's own
// arena while failover re-creates the session elsewhere.
var ErrServerClosed = Unavailable("serve: server is closed")

// DefaultConfig returns the server defaults.
func DefaultConfig() Config {
	return Config{
		Workers:  4,
		QueueCap: 64,
		Mapper:   MapperRR,
	}
}

// serveNMPConfig is the reduced search MapperNMP runs: small enough to
// run at session-create latency, large enough to beat round-robin
// placements.
func serveNMPConfig() nmp.Config {
	cfg := nmp.DefaultConfig()
	cfg.Population = 12
	cfg.Generations = 8
	return cfg
}

// Health is the /healthz payload.
type Health struct {
	Status         string  `json:"status"`
	UptimeS        float64 `json:"uptime_s"`
	SessionsActive int     `json:"sessions_active"`
	SessionsTotal  int     `json:"sessions_total"`
	Workers        int     `json:"workers"`
	Platform       string  `json:"platform"`
	Mapper         string  `json:"mapper"`
}

// NodeLoad is the server's load signal: what a fleet router needs to
// place sessions across heterogeneous nodes. Cost is the sum of the
// active sessions' per-inference dense MACs; Capacity is the
// platform's aggregate peak MAC rate at each device's best precision,
// so Utilization compares fairly across e.g. a Xavier and an Orin
// (the same session set loads the bigger platform less).
type NodeLoad struct {
	SessionsActive int     `json:"sessions_active"`
	QueuedFrames   int     `json:"queued_frames"`
	CostMACs       float64 `json:"cost_macs"`
	CapacityMACs   float64 `json:"capacity_macs"`
	Utilization    float64 `json:"utilization"`
	// PendingInvocations counts invocations sitting in the execution
	// scheduler's run queues right now — the live queue-depth signal
	// the fleet rebalancer consumes on top of the capacity-weighted
	// utilization. BacklogUS is the cumulative drain-time spread
	// between the node's busiest and idlest device (virtual us): it
	// grows over the node's lifetime and never decays, so it is an
	// operator-facing imbalance gauge, not a live backlog — the
	// migration gate must not compare it against time thresholds.
	PendingInvocations int     `json:"pending_invocations"`
	BacklogUS          float64 `json:"backlog_us"`
}

// SessionTotals is the monotonic roll-up of session counters: active
// sessions summed live plus the final counters of every session ever
// closed, whether or not its snapshot is still retained. Fleet-level
// scrapers aggregate these instead of per-session series so totals do
// not depend on scrape timing or closed-session eviction.
type SessionTotals struct {
	Sessions          uint64  `json:"sessions"`
	EventsIn          uint64  `json:"events_in"`
	FramesIn          uint64  `json:"frames_in"`
	FramesDropped     uint64  `json:"frames_dropped"`
	FramesDroppedDSFA uint64  `json:"frames_dropped_dsfa"`
	Invocations       uint64  `json:"invocations"`
	RawFramesDone     uint64  `json:"raw_frames_done"`
	Retunes           uint64  `json:"retunes"`
	Remaps            uint64  `json:"remaps"`
	LatencySumUS      float64 `json:"latency_sum_us"`
	LatencyCount      uint64  `json:"latency_count"`
}

// add folds one session's counters into the totals.
func (t *SessionTotals) add(s SessionSnapshot) {
	t.Sessions++
	t.EventsIn += s.EventsIn
	t.FramesIn += s.FramesIn
	t.FramesDropped += s.FramesDropped
	t.FramesDroppedDSFA += s.FramesDroppedDSFA
	t.Invocations += s.Invocations
	t.RawFramesDone += s.RawFramesDone
	t.Retunes += s.Retunes
	t.Remaps += s.Remaps
	t.LatencySumUS += s.Latency.MeanUS * float64(s.Latency.Count)
	t.LatencyCount += s.Latency.Count
}

// Merge folds another roll-up into the totals: a late-execute delta on
// the close path, or a whole node incarnation's totals when a fleet
// aggregates across revives.
func (t *SessionTotals) Merge(d SessionTotals) {
	t.Sessions += d.Sessions
	t.EventsIn += d.EventsIn
	t.FramesIn += d.FramesIn
	t.FramesDropped += d.FramesDropped
	t.FramesDroppedDSFA += d.FramesDroppedDSFA
	t.Invocations += d.Invocations
	t.RawFramesDone += d.RawFramesDone
	t.Retunes += d.Retunes
	t.Remaps += d.Remaps
	t.LatencySumUS += d.LatencySumUS
	t.LatencyCount += d.LatencyCount
}

// Server multiplexes client sessions onto one shared platform. The
// ingest path (HTTP) converts events to frames and enqueues them; the
// worker pool drains queues through each session's Stepper, which
// submits invocations to the shared execution scheduler
// (internal/sched). The scheduler owns per-device run queues,
// coalesces compatible cross-session invocations into micro-batches,
// and dispatches them on the internally-synchronized engine — the
// serving analogue of the paper's multi-task runs, without the old
// global engine lock.
type Server struct {
	cfg   Config
	model *perf.Model
	mux   *http.ServeMux
	start time.Time

	// engine is the shared discrete-event executor; it synchronizes
	// internally per device, so no server-side lock guards it. All
	// execution flows through sched, never by submitting directly.
	engine *hw.Engine
	sched  *sched.Scheduler

	// arena pools the objects the steady-state frame path churns
	// through: sparse frames flow ingest→DSFA→dispatch→release and are
	// recycled by the scheduler's Release hook; invocation and request
	// structs cycle through invPool/pendPool the same way. Sessions
	// share the arena, so frames released by one session's completions
	// feed another's ingest.
	arena    *mem.Arena
	invPool  *mem.Pool[pipeline.Invocation]
	pendPool *mem.Pool[pendingInv]
	// dispatchScr recycles the per-dispatch merge scratch; a sync.Pool
	// because workers pump the scheduler concurrently.
	dispatchScr sync.Pool

	// tracer records frame-lifecycle spans; nil when tracing is off
	// (every obs method is a no-op on nil). devTrackH holds one
	// per-device lane ("dev/GPU") and the other obs.Track handles the
	// fixed lanes, resolved once so the dispatch path never builds a
	// lane name or pays a map lookup.
	tracer     *obs.Tracer
	devTrackH  []*obs.Track
	umTrack    *obs.Track
	schedTrack *obs.Track
	ctlTrack   *obs.Track

	// sessMu guards the session table and placement bookkeeping. The
	// placement search itself runs outside it (see rebalance).
	sessMu      sync.Mutex
	sessions    map[string]*Session
	order       []string // active sessions in creation order (placement)
	closedOrder []string // retained closed sessions, oldest first
	// placeGen increments whenever the active set changes; rebalance
	// uses it to detect that a concurrently computed placement is stale.
	placeGen uint64
	// lastAsg is the multi-task assignment behind the installed plans,
	// in order-index task positions — the warm-start seed for online
	// remaps. nil until the first successful rebalance.
	lastAsg *taskgraph.Assignment
	// closedUnscraped holds final snapshots not yet emitted to /metrics
	// — each is exposed exactly once. Guarded by sessMu.
	closedUnscraped []SessionSnapshot

	// totalsMu guards closedTotals, which accumulates final counters of
	// every closed session (including ones later evicted) so totals
	// never depend on scrape timing. It is a leaf lock: execute folds
	// late deltas under sess.mu, the close path and readers take it
	// after sessMu — never the other way around.
	totalsMu     sync.Mutex
	closedTotals SessionTotals

	// planner gates online remaps (nil when Adapt.Remap is off).
	planner *control.RemapPlanner

	runq    runQueue
	stopped chan struct{}
	stop    sync.Once
	wg      sync.WaitGroup
	nextID  atomic.Uint64

	// draining refuses new sessions while existing ones keep running —
	// the fleet router flips it before migrating sessions off a node.
	draining atomic.Bool

	// replicas holds other nodes' replicated journal entries when this
	// server acts as a buddy; zero-value ready, keyed by fleet session
	// ID (see journal.go).
	replicas replicaStore

	// capacityMACs caches the platform's aggregate peak MAC rate.
	capacityMACs float64
}

// New validates cfg, starts the worker pool and returns the server.
// Call Close to stop the workers.
func New(cfg Config) (*Server, error) {
	def := DefaultConfig()
	if cfg.Platform == nil {
		cfg.Platform = hw.Xavier()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = def.Workers
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = def.QueueCap
	}
	switch cfg.Mapper {
	case "":
		cfg.Mapper = MapperRR
	case MapperRR, MapperNMP:
	default:
		return nil, fmt.Errorf("serve: unknown mapper policy %q", cfg.Mapper)
	}
	if cfg.Platform.GPUDevice() == nil {
		return nil, fmt.Errorf("serve: platform %q has no GPU", cfg.Platform.Name)
	}
	s := &Server{
		cfg:      cfg,
		model:    perf.NewModel(cfg.Platform),
		engine:   hw.NewEngine(cfg.Platform, false),
		tracer:   obs.NewTracer(cfg.Trace),
		arena:    mem.NewArena(),
		invPool:  pipeline.NewInvocationPool(),
		sessions: map[string]*Session{},
		stopped:  make(chan struct{}),
		start:    time.Now(),
	}
	s.runq.ready.L = &s.runq.mu
	s.pendPool = mem.NewPool(func(p *pendingInv) {
		p.sess = nil
		p.req.Session = ""
		p.req.Key = sched.Key{}
		p.req.Units = 0
		p.payload.inv = nil
		p.payload.net = nil
		p.payload.plan = pipeline.ExecPlan{}
		p.payload.trackH = nil
	})
	s.dispatchScr.New = func() any { return &dispatchScratch{} }
	schedCfg := sched.Config{
		Dispatch: s.dispatchBatch,
		MaxBatch: cfg.BatchMax,
		Release:  s.releaseRequest,
	}
	if s.tracer != nil {
		schedCfg.Observe = s.observeDispatch
		s.devTrackH = make([]*obs.Track, len(cfg.Platform.Devices))
		for i := range s.devTrackH {
			s.devTrackH[i] = s.tracer.Track("dev/" + cfg.Platform.DeviceName(i))
		}
		s.umTrack = s.tracer.Track("um")
		s.schedTrack = s.tracer.Track("sched")
		s.ctlTrack = s.tracer.Track("ctl")
	}
	scheduler, err := sched.New(schedCfg)
	if err != nil {
		return nil, err
	}
	s.sched = scheduler
	for _, d := range cfg.Platform.Devices {
		s.capacityMACs += d.PeakMACs[d.BestPrecision()]
	}
	if cfg.Adapt.Remap {
		if cfg.Mapper != MapperNMP {
			return nil, fmt.Errorf("serve: adaptive remap requires the %q mapper, have %q", MapperNMP, cfg.Mapper)
		}
		s.planner = control.NewRemapPlanner(cfg.Adapt.Planner)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	s.mux.HandleFunc("POST /v1/sessions/{id}/events", IngestHandler(s.IngestChunk))
	s.mux.HandleFunc("GET /v1/sessions/{id}/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/sessions/{id}/close", s.handleClose)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleClose)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	if !cfg.ManualDrain {
		for i := 0; i < cfg.Workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
	return s, nil
}

// Handler returns the HTTP handler (mountable under httptest or a
// real listener).
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the worker pool and the execution scheduler. In-flight
// work finishes; queued frames of never-closed sessions are abandoned
// in place — a closed server rejects further ingest (ErrServerClosed),
// so its arena-owned frames stay frozen in their queues and are never
// recycled across arenas by a concurrent failover.
func (s *Server) Close() {
	s.stop.Do(func() {
		close(s.stopped)
		s.runq.close()
	})
	s.wg.Wait()
	s.sched.Close()
	// Recycle trace ring storage (export traces before Close).
	s.tracer.Close()
}

// stoppedNow reports whether Close has run.
func (s *Server) stoppedNow() bool {
	select {
	case <-s.stopped:
		return true
	default:
		return false
	}
}

// worker drains scheduled sessions until the server stops, pumping
// the scheduler after each: the worker that submitted a session's
// invocations dispatches them, unless another worker is dispatching on
// that device already and picks them up when its batch is done.
func (s *Server) worker() {
	defer s.wg.Done()
	for sess := s.runq.pop(true); sess != nil; sess = s.runq.pop(true) {
		s.drainSession(sess)
		s.sched.Pump()
	}
}

// Pump synchronously drains every session currently scheduled on the
// run queue, dispatches the scheduler's pending micro-batches, and
// loops until both are quiescent. Only meaningful under
// Config.ManualDrain, where no background goroutines exist: the
// caller owns execution order — run-queue FIFO, then scheduler
// submission order — deterministic for a single-threaded driver.
// Completion callbacks re-schedule sessions that still hold frames
// (the session's next invocation can go), hence the loop.
func (s *Server) Pump() {
	for {
		worked := false
		for sess := s.runq.pop(false); sess != nil; sess = s.runq.pop(false) {
			s.drainSession(sess)
			worked = true
		}
		if s.sched.Pump() {
			worked = true
		}
		if !worked {
			return
		}
	}
}

// schedule puts the session on the run queue at most once.
func (s *Server) schedule(sess *Session) {
	if sess.scheduled.CompareAndSwap(false, true) {
		s.runq.push(sess)
	}
}

// drainSession runs one execute pass for the session. Clearing the
// scheduled flag first guarantees no lost wakeup: an ingest or a
// completion that lands after the flag clears re-enqueues the session.
func (s *Server) drainSession(sess *Session) {
	sess.scheduled.Store(false)
	s.execute(sess, false)
	s.maybeRemap()
}

// invPayload is what a session submission carries through the
// scheduler to dispatch: the invocation (ready time already shifted
// into engine virtual time) and a snapshot of the plan it priced
// under.
type invPayload struct {
	inv  *pipeline.Invocation
	net  *nn.Network
	plan pipeline.ExecPlan
	// trackH is the submitting session's cached trace-ring handle (nil,
	// a no-op, when tracing is off).
	trackH *obs.Track
	// pend points back at the pooled submission this payload is part
	// of, so the scheduler's Release hook can recycle the whole unit.
	pend *pendingInv
}

// pendingInv is one pooled scheduler submission: the request, its
// payload and the completion closure live in a single recycled struct,
// so the steady-state execute path allocates none of them. The Done
// closure is bound once, at the struct's first use, and captures only
// the struct pointer; resets preserve it.
type pendingInv struct {
	srv     *Server
	sess    *Session
	req     sched.Request
	payload invPayload
}

// newPending borrows a submission unit and ensures its one-time
// self-referential bindings are in place.
func (s *Server) newPending() *pendingInv {
	p := s.pendPool.Get()
	if p.req.Done == nil {
		p.srv = s
		p.payload.pend = p
		p.req.Payload = &p.payload
		p.req.Done = func(end float64) {
			p.srv.complete(p.sess, p.payload.inv.PerRaw, end)
		}
	}
	return p
}

// releaseRequest is the scheduler's Release hook: after a request's
// batch dispatched and every callback ran, its raw frames — a
// dispatched bucket's members and the frames DSFA shed since its
// previous dispatch, which the stepper and the aggregator only read —
// go back to the arena, the invocation to the invocation pool, and the
// submission unit to the pending pool. A frame that entered the
// stepper goes back to the arena here and nowhere else.
func (s *Server) releaseRequest(r *sched.Request) {
	p := r.Payload.(*invPayload)
	inv := p.inv
	for _, f := range inv.Frames {
		s.arena.Frames.Put(f)
	}
	s.invPool.Put(inv)
	s.pendPool.Put(p.pend)
}

// dispatchScratch is the per-dispatch merge state (pooled: workers
// pumping the scheduler dispatch for different devices concurrently).
type dispatchScratch struct {
	inv  pipeline.Invocation
	invs []*pipeline.Invocation
	ids  []string
}

// planSig fingerprints a plan's pricing-relevant identity — device and
// precision per layer, sparse path, framing overhead — so the
// scheduler coalesces only invocations that cost identically.
func planSig(p *pipeline.ExecPlan) string {
	return fmt.Sprintf("%v|%v|%v|%d", p.Device, p.Prec, p.Sparse, p.FramingOps)
}

// execute submits the one invocation the session's stepper releases,
// if any, to the execution scheduler. It runs under the session lock,
// so whenever that lock is free every frame in is held, in the
// aggregator or counted done or dropped — a close's final snapshot
// never misses frames a worker holds. flush ends the stream (session
// close): open aggregator buckets go too. Execution is asynchronous:
// completion lands in complete, which records latencies, reports the
// completion to the stepper and re-schedules the session while it
// holds frames.
// Invocation-side counters (invocs, rawDone, batched) advance at
// submission — the frames have irrevocably left the stepper — so frame
// conservation holds at every scheduler-quiescent point.
func (s *Server) execute(sess *Session, flush bool) {
	traced := s.tracer != nil
	sess.mu.Lock()
	// A worker scheduled before CloseSession can still get here after
	// the close's final flush ran. Serving in flush mode keeps whatever
	// it finds from being stranded in open aggregator buckets — and if the
	// close already folded the session's finals into the server totals,
	// this call's deltas are folded directly so no counter is lost.
	if sess.closed {
		flush = true
	}
	tallied := sess.tallied
	var preDrops, preRetunes uint64
	if tallied {
		preDrops = uint64(sess.stepper.Stats().DroppedFrames)
		if sess.retuner != nil {
			preRetunes = sess.retuner.Retunes()
		}
	}
	// The control plane swaps plans and DSFA tunings only at this
	// boundary: queued frames are never dropped by an adaptation, they
	// simply execute under the new decision.
	s.adaptLocked(sess)
	released := sess.stepper.Clock()
	inv := sess.stepper.Release(flush)
	if traced {
		// Queue-wait spans: a frame became available at its T1 and left
		// the hold at the later of T1 and the clock that released it.
		// Bulk direct-write API: per-frame volume is the hot spot.
		left := sess.stepper.Left()
		sess.trackH.SpansFunc(obs.StageQueue, "queue", len(left),
			func(i int) (float64, float64, int64) {
				t1 := float64(left[i].T1)
				return t1 + sess.epochUS, max(released-t1, 0), 1
			})
	}
	var p *pendingInv
	if inv != nil {
		plan := sess.plan.Load()
		if traced && len(inv.PerRaw) > 0 {
			// DSFA bucket residency: earliest member frame ready to the
			// invocation's release.
			first := inv.PerRaw[0].ReadyUS
			for _, rr := range inv.PerRaw {
				first = min(first, rr.ReadyUS)
			}
			sess.trackH.Span(obs.StageAgg, "agg", first+sess.epochUS, inv.ReadyUS+sess.epochUS, int64(inv.Raw))
		}
		// Shift the invocation into the engine's virtual timeline; the
		// completion path attributes latencies back in stream time
		// (PerRaw keeps unshifted ready times). The stepper handed the
		// invocation over, so the shift mutates in place — no copy. The
		// plan is snapshotted by value so a later SetFramingOps cannot
		// race the worker that dispatches this invocation.
		inv.ReadyUS += sess.epochUS
		for _, d := range plan.Device {
			sess.usedDevs[d] = true
		}
		sess.invocs++
		sess.batched += uint64(len(inv.Inputs))
		sess.rawDone += uint64(inv.Raw)
		if sess.sigPlan != plan {
			// Plan swaps install a new pointer; FramingOps is fixed before
			// the first invocation, so pointer identity keys the cache.
			sess.sigPlan, sess.planSig = plan, planSig(plan)
		}
		p = s.newPending()
		p.sess = sess
		p.payload.inv = inv
		p.payload.net = sess.Net
		p.payload.plan = *plan
		p.payload.trackH = sess.trackH
		p.req.Session = sess.ID
		p.req.Key = sched.Key{Device: plan.Device[0], Net: sess.Net.Name, Sig: sess.planSig}
		p.req.Units = inv.Raw
	}
	if traced {
		// DSFA shed marks: the aggregator's bounded inference queue
		// dropped raw frames since the last pass.
		if drops := uint64(sess.stepper.Stats().DroppedFrames); drops > sess.lastDSFADrops {
			sess.trackH.Instant(obs.StageAgg, "dsfa-drop",
				sess.stepper.Clock()+sess.epochUS, int64(drops-sess.lastDSFADrops))
			sess.lastDSFADrops = drops
		}
	}
	if tallied {
		// The session's finals were already folded into the closed
		// roll-up; contribute this pass's submission-side deltas directly
		// (completion-side latency deltas fold in complete).
		d := SessionTotals{
			FramesDroppedDSFA: uint64(sess.stepper.Stats().DroppedFrames) - preDrops,
		}
		if inv != nil {
			d.Invocations, d.RawFramesDone = 1, uint64(inv.Raw)
		}
		if sess.retuner != nil {
			d.Retunes = sess.retuner.Retunes() - preRetunes
		}
		if d != (SessionTotals{}) {
			s.totalsMu.Lock()
			s.closedTotals.Merge(d)
			s.totalsMu.Unlock()
		}
	}
	sess.mu.Unlock()
	// Submit outside sess.mu: the pump that follows completes requests
	// on this goroutine, and complete re-acquires the session lock. The
	// pending struct is NOT returned here — the scheduler's Release hook
	// recycles it after its batch completes.
	if p != nil {
		s.sched.Submit(&p.req)
	}
}

// dispatchBatch executes one scheduler micro-batch: compatible
// invocations (same network, identical plan) merge into a single
// batched inference priced once on the shared engine. All members
// complete at the batch end — early members pay the coalescing delay,
// which is exactly the latency/throughput trade MaxBatch bounds.
func (s *Server) dispatchBatch(batch []*sched.Request) float64 {
	first := batch[0].Payload.(*invPayload)
	inv := first.inv
	// Span tags only matter when someone records them; with tracing and
	// engine recording both off the join would be a per-dispatch
	// allocation nobody reads.
	named := s.tracer != nil || s.engine.Recording()
	tag := batch[0].Session
	var scr *dispatchScratch
	if len(batch) > 1 {
		scr = s.dispatchScr.Get().(*dispatchScratch)
		scr.invs = scr.invs[:0]
		for _, r := range batch {
			scr.invs = append(scr.invs, r.Payload.(*invPayload).inv)
		}
		scr.inv.Inputs = scr.inv.Inputs[:0]
		scr.inv.PerRaw = scr.inv.PerRaw[:0]
		scr.inv.Raw, scr.inv.ReadyUS = 0, 0
		inv = pipeline.MergeInvocationsInto(&scr.inv, scr.invs)
		if named {
			scr.ids = scr.ids[:0]
			for _, r := range batch {
				scr.ids = append(scr.ids, r.Session)
			}
			tag = strings.Join(scr.ids, "+")
		}
		defer func() {
			for i := range scr.invs {
				scr.invs[i] = nil
			}
			s.dispatchScr.Put(scr)
		}()
	}
	// Traced dispatch: the execution observer folds the per-layer
	// callbacks into one busy span per device (first layer start to
	// last layer end on that device, Count = layers) plus the UM-bus
	// transfers; afterwards each batch member gets a coalesce-wait
	// span from its own readiness to the batch's first engine start
	// (early members pay the coalescing delay — exactly the
	// latency/throughput trade MaxBatch bounds). Untraced, observe
	// stays nil and execStart negative.
	var devs []devExtent
	execStart := -1.0
	var observe pipeline.ExecObserver
	if s.tracer != nil {
		devs = make([]devExtent, len(s.devTrackH))
		observe = func(dev int, name string, startUS, endUS float64, um bool) {
			if um {
				s.umTrack.Span(obs.StageComms, name, startUS, endUS, 0)
				return
			}
			if execStart < 0 || startUS < execStart {
				execStart = startUS
			}
			d := &devs[dev]
			if d.layers == 0 || startUS < d.start {
				d.start = startUS
			}
			if endUS > d.end {
				d.end = endUS
			}
			d.layers++
		}
	}
	end := pipeline.ScheduleOnEngine(s.engine, s.model, first.net, &first.plan, inv, tag, observe)
	if execStart >= 0 {
		name := "batch:" + tag
		for i := range devs {
			if devs[i].layers > 0 {
				s.devTrackH[i].Span(obs.StageExec, name, devs[i].start, devs[i].end, devs[i].layers)
			}
		}
		for _, r := range batch {
			p := r.Payload.(*invPayload)
			p.trackH.Span(obs.StageBatch, name, p.inv.ReadyUS, execStart, int64(r.Units))
		}
	}
	return end
}

// devExtent accumulates one device's busy extent across a dispatch's
// per-layer execution callbacks.
type devExtent struct {
	start, end float64
	layers     int64
}

// observeDispatch is the scheduler's post-dispatch hook under tracing:
// one instant per micro-batch on the scheduler track, carrying the
// member count in its name and the raw-frame units in Count — the
// occupancy signal, span-aligned with the exec spans it produced.
func (s *Server) observeDispatch(batch []*sched.Request, endUS float64) {
	var units int64
	for _, r := range batch {
		units += int64(r.Units)
	}
	s.schedTrack.Instant(obs.StageCtl, dispatchName(len(batch)), endUS, units)
}

// dispatchNames caches the scheduler-instant labels for common batch
// sizes so observeDispatch never formats in the dispatch path.
var dispatchNames = [...]string{
	"dispatch[0]", "dispatch[1]", "dispatch[2]", "dispatch[3]",
	"dispatch[4]", "dispatch[5]", "dispatch[6]", "dispatch[7]",
	"dispatch[8]", "dispatch[9]", "dispatch[10]", "dispatch[11]",
	"dispatch[12]", "dispatch[13]", "dispatch[14]", "dispatch[15]",
	"dispatch[16]",
}

func dispatchName(n int) string {
	if n >= 0 && n < len(dispatchNames) {
		return dispatchNames[n]
	}
	return "dispatch[" + strconv.Itoa(n) + "]"
}

// complete is the scheduler's completion callback for one session
// submission: attribute per-raw-frame latencies in stream time, report
// the completion to the stepper, and re-schedule the session while it
// holds frames, so its next invocation goes. A session already handed
// off to the closed roll-up folds its latency deltas into the server
// totals directly.
func (s *Server) complete(sess *Session, perRaw []pipeline.RawRef, engEnd float64) {
	sess.mu.Lock()
	end := engEnd - sess.epochUS
	var dCount uint64
	var dSum float64
	for _, rr := range perRaw {
		lat := end - rr.ReadyUS
		for k := 0; k < rr.N; k++ {
			sess.lat.observe(lat)
		}
		dCount += uint64(rr.N)
		dSum += lat * float64(rr.N)
	}
	if s.tracer != nil {
		// End-to-end frame spans: stream readiness to completion, in
		// engine time so they nest under the session's other lanes.
		sess.trackH.SpansFunc(obs.StageFrame, "frame", len(perRaw),
			func(i int) (float64, float64, int64) {
				rr := perRaw[i]
				return rr.ReadyUS + sess.epochUS, end - rr.ReadyUS, int64(rr.N)
			})
	}
	sess.stepper.Done(end)
	pending := sess.stepper.Pending() > 0
	var resultEv ResultEvent
	var resultAck uint64
	if sess.journal != nil && dCount > 0 {
		// One journaled result per completed batch: completion instant in
		// stream time, mean per-raw latency, raw frames served. The
		// append wakes SSE subscribers; the ack sweep keeps the chunk
		// watermark fresh for replica trimming.
		resultEv = ResultEvent{DoneUS: end, LatUS: dSum / float64(dCount), Frames: int(dCount)}
		resultEv.Seq = sess.journal.appendResult(resultEv.DoneUS, resultEv.LatUS, resultEv.Frames)
		resultAck = sess.journal.ack(sess.completedLocked())
	}
	tallied := sess.tallied
	sess.mu.Unlock()
	if resultEv.Seq > 0 && s.cfg.OnResult != nil {
		// Outside sess.mu: the hook takes cluster-side locks to ship the
		// result to the buddy node.
		s.cfg.OnResult(sess.ID, resultEv, resultAck)
	}
	if tallied && dCount > 0 {
		s.totalsMu.Lock()
		s.closedTotals.Merge(SessionTotals{LatencyCount: dCount, LatencySumUS: dSum})
		s.totalsMu.Unlock()
	}
	if pending {
		s.schedule(sess)
	}
}

// adaptLocked runs one retune decision for the session; callers hold
// sess.mu. Decisions are rate-limited by the controller itself
// (DecideEveryUS of stream time), so calling per invocation is cheap.
func (s *Server) adaptLocked(sess *Session) {
	if sess.retuner == nil {
		return
	}
	if cfg, ok := sess.retuner.Observe(sess.sampleLocked()); ok {
		// The derived tuning is valid by construction; a failed retune
		// would leave the old tuning in place, which is safe.
		if sess.stepper.Retune(cfg) == nil {
			s.ctlTrack.Instant(obs.StageCtl, "retune:"+sess.ID, sess.stepper.Clock()+sess.epochUS, 1)
		}
	}
}

// CreateSession registers a session programmatically (the HTTP create
// handler goes through here too) and rebalances placement.
func (s *Server) CreateSession(cfg SessionConfig) (*Session, error) {
	if s.stoppedNow() {
		return nil, ErrServerClosed
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	net, err := nn.ByName(cfg.Network)
	if err != nil {
		return nil, err
	}
	if cfg.Level < 0 || cfg.Level > int(pipeline.LevelNMP) {
		return nil, fmt.Errorf("serve: level %d outside 0-%d", cfg.Level, int(pipeline.LevelNMP))
	}
	policy, err := ParseDropPolicy(cfg.DropPolicy)
	if err != nil {
		return nil, err
	}
	if cfg.DropPolicy == "" {
		policy = s.cfg.DropPolicy
	}
	queueCap := cfg.QueueCap
	if queueCap <= 0 {
		queueCap = s.cfg.QueueCap
	}
	level := pipeline.Level(cfg.Level)
	plan, err := pipeline.DefaultPlan(net, s.cfg.Platform, level >= pipeline.LevelE2SF)
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("s%d", s.nextID.Add(1))
	var retuner *control.Retuner
	if s.cfg.Adapt.Retune && level >= pipeline.LevelDSFA {
		retuner = control.NewRetuner(s.cfg.Adapt.DSFA, pipeline.TunedDSFA(net))
	}
	sess, err := newSession(id, net, level, queueCap, policy, plan, retuner, s.arena, s.invPool)
	if err != nil {
		return nil, err
	}
	sess.epochUS = s.engine.Makespan()
	sess.tracer = s.tracer
	sess.trackH = s.tracer.Track(sess.track)
	if s.cfg.Journal {
		sess.journal = new(journal)
	}
	s.sessMu.Lock()
	s.sessions[id] = sess
	s.order = append(s.order, id)
	s.placeGen++
	s.sessMu.Unlock()
	if err := s.rebalance(); err != nil {
		// Placement failure must not leak a half-created session.
		s.sessMu.Lock()
		delete(s.sessions, id)
		s.removeFromOrderLocked(id)
		s.placeGen++
		s.sessMu.Unlock()
		return nil, err
	}
	return sess, nil
}

// removeFromOrderLocked drops one ID from the active placement order.
func (s *Server) removeFromOrderLocked(id string) {
	for i := range s.order {
		if s.order[i] == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// CloseSession flushes and closes a session, rebalances the remaining
// ones, and returns the final snapshot.
func (s *Server) CloseSession(id string) (*SessionSnapshot, error) {
	s.sessMu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.sessMu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	sess.mu.Lock()
	alreadyClosed := sess.closed
	sess.closed = true
	var err error
	if !alreadyClosed {
		// The converter's trailing frame joins what ingest left held:
		// flushed partial frames are E2SF output like any other, so they
		// are counted, or frame conservation (frames_in == done + dropped
		// + in-flight) breaks by one per count-framed close. The close
		// serves them all, past the queue's bound.
		var tail []*sparse.Frame
		tail, err = sess.conv.flush()
		sess.framesIn += uint64(len(tail))
		for _, f := range tail {
			sess.stepper.Push(f)
		}
	}
	sess.mu.Unlock()
	s.sessMu.Unlock()
	if !alreadyClosed {
		// Serve everything held, one invocation at a time — even when the
		// converter flush or the rebalance fails, so a failed close never
		// strands frames behind a session that now rejects ingest. Each
		// invocation must complete (latencies observed, clock advanced)
		// before the next goes and before finals are taken; Wait pumps on
		// this goroutine, so no lock is held here.
		for s.closeStep(sess) {
			s.sched.Wait(sess.ID)
		}
		// Hand the session from the active roll-up to the closed one in
		// a single sessMu critical section (sessMu -> sess.mu, the same
		// order the create/close paths use): the tallied flag and the
		// final snapshot are taken under sess.mu, so a worker execute is
		// either serialized before them (its counters are in the
		// snapshot) or sees tallied and folds its own deltas into
		// closedTotals after the session has already left s.order.
		// Concurrent Totals()/scrapes block on sessMu through the
		// handoff and so can never see the session in neither roll-up
		// (a counter dip) or in both (a double count).
		s.sessMu.Lock()
		sess.mu.Lock()
		sess.tallied = true
		final := sess.snapshotLocked()
		sess.mu.Unlock()
		s.removeFromOrderLocked(id)
		s.placeGen++
		// Retain a bounded closed-session history for stats; evict the
		// oldest so a long-lived server's memory and /metrics stay flat.
		s.closedOrder = append(s.closedOrder, id)
		for len(s.closedOrder) > MaxClosed {
			delete(s.sessions, s.closedOrder[0])
			s.closedOrder = s.closedOrder[1:]
		}
		s.totalsMu.Lock()
		s.closedTotals.add(final)
		s.totalsMu.Unlock()
		// The emit-once queue is bounded like the retained history: on a
		// server nobody scrapes, only the newest MaxClosed finals are
		// kept (their counters live on in closedTotals regardless).
		s.closedUnscraped = append(s.closedUnscraped, final)
		if len(s.closedUnscraped) > MaxClosed {
			s.closedUnscraped = s.closedUnscraped[len(s.closedUnscraped)-MaxClosed:]
		}
		s.sessMu.Unlock()
		if sess.journal != nil {
			// Final results are journaled (sched.Wait above); mark the
			// stream complete so SSE subscribers drain and finish.
			sess.journal.close()
		}
		if rerr := s.rebalance(); rerr != nil && err == nil {
			err = rerr
		}
	}
	if err != nil {
		return nil, err
	}
	snap := sess.snapshot()
	return &snap, nil
}

// closeStep runs one flushing execute pass for a closing session and
// reports whether its stepper still holds a frame or an invocation in
// flight; a closed session takes no more ingest.
func (s *Server) closeStep(sess *Session) bool {
	s.execute(sess, true)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.stepper.Pending() > 0 || sess.stepper.InFlight()
}

// Session returns a session by ID.
func (s *Server) Session(id string) (*Session, bool) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// Ingest pushes a caller's stream into a session as one chunk; the
// session copies the events it keeps and the caller keeps the stream.
func (s *Server) Ingest(id string, chunk *events.Stream) (IngestResult, error) {
	return s.IngestChunk(id, StreamChunk(chunk))
}

// IngestChunk pushes one chunk into a session and wakes a worker. It
// is the one way onto a session: the node's ingest endpoint, the
// cluster router (which resolves the owner and calls it with the chunk
// it read) and journal replay all come through here.
func (s *Server) IngestChunk(id string, ch Chunk) (IngestResult, error) {
	if s.stoppedNow() {
		// A closed server's queues will never drain again; rejecting here
		// (instead of queueing onto the corpse) is what lets the cluster
		// retry the chunk against the failed-over session.
		return IngestResult{}, ErrServerClosed
	}
	sess, ok := s.Session(id)
	if !ok {
		return IngestResult{}, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	res, err := sess.ingest(ch)
	if err != nil {
		return res, err
	}
	if res.Frames > 0 {
		s.schedule(sess)
	}
	return res, nil
}

// Snapshot returns a session's observable state by ID.
func (s *Server) Snapshot(id string) (SessionSnapshot, error) {
	sess, ok := s.Session(id)
	if !ok {
		return SessionSnapshot{}, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	return sess.snapshot(), nil
}

// Snapshots returns every retained session (active and closed) in
// creation order.
func (s *Server) Snapshots() []SessionSnapshot {
	s.sessMu.Lock()
	all := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.sessMu.Unlock()
	snaps := make([]SessionSnapshot, len(all))
	for i, sess := range all {
		snaps[i] = sess.snapshot()
	}
	// Creation order: IDs are "s<counter>", so shorter IDs come first
	// and equal lengths compare lexicographically (s2 before s10).
	sort.Slice(snaps, func(i, j int) bool {
		a, b := snaps[i].ID, snaps[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return snaps
}

// activeSessionsLocked returns the active sessions in creation order;
// callers hold sessMu.
func (s *Server) activeSessionsLocked() []*Session {
	active := make([]*Session, 0, len(s.order))
	for _, id := range s.order {
		active = append(active, s.sessions[id])
	}
	return active
}

// activeSessions is the unlocked convenience wrapper.
func (s *Server) activeSessions() []*Session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return s.activeSessionsLocked()
}

// Totals returns the monotonic roll-up of session counters: every
// closed session's final numbers (eviction-independent) plus the
// active sessions' live ones. Fleet routers aggregate this instead of
// per-session snapshots.
func (s *Server) Totals() SessionTotals {
	s.sessMu.Lock()
	s.totalsMu.Lock()
	t := s.closedTotals
	s.totalsMu.Unlock()
	active := s.activeSessionsLocked()
	s.sessMu.Unlock()
	for _, sess := range active {
		t.add(sess.snapshot())
	}
	return t
}

// deviceSignals snapshots per-device utilization, engine backlog and
// scheduler queue depth — the control plane's per-PE input, sourced
// from the execution scheduler's signals instead of ad-hoc engine
// reads. Backlog is measured relative to the least-backlogged device:
// at the makespan every absolute backlog is zero by definition, but
// the spread between device drain times is exactly the queue imbalance
// the remap gate wants to see. Queued adds the not-yet-dispatched
// invocations sitting in the scheduler's run queues.
func (s *Server) deviceSignals() ([]control.DeviceSignals, float64) {
	now := s.engine.Makespan()
	depths := s.sched.QueueDepths()
	devs := make([]control.DeviceSignals, len(s.cfg.Platform.Devices))
	minFree := 0.0
	for i, d := range s.cfg.Platform.Devices {
		free := s.engine.BusyUntil(d)
		devs[i] = control.DeviceSignals{BacklogUS: free, Queued: depths[d.ID]}
		if now > 0 {
			devs[i].Utilization = s.engine.BusyTime(d) / now
		}
		if i == 0 || free < minFree {
			minFree = free
		}
	}
	for i := range devs {
		devs[i].BacklogUS -= minFree
	}
	return devs, now
}

// SchedStats exposes the execution scheduler's counters (dispatches,
// coalesced members, occupancy) for metrics and fleet aggregation.
func (s *Server) SchedStats() sched.Stats { return s.sched.Stats() }

// SetDraining toggles drain mode: a draining server refuses new
// sessions (ErrDraining) while existing sessions keep ingesting and
// executing. The cluster router drains a node before migrating its
// sessions away.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Health returns the /healthz payload.
func (s *Server) Health() Health {
	s.sessMu.Lock()
	active := len(s.order)
	s.sessMu.Unlock()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	return Health{
		Status:         status,
		UptimeS:        time.Since(s.start).Seconds(),
		SessionsActive: active,
		SessionsTotal:  int(s.nextID.Load()),
		Workers:        s.cfg.Workers,
		Platform:       s.cfg.Platform.Name,
		Mapper:         string(s.cfg.Mapper),
	}
}

// Load returns the node-load signal a fleet router places against:
// active-session inference cost weighted by the platform's capacity.
func (s *Server) Load() NodeLoad {
	active := s.activeSessions()
	l := NodeLoad{SessionsActive: len(active), CapacityMACs: s.capacityMACs}
	for _, sess := range active {
		l.CostMACs += float64(sess.Net.TotalMACs())
		sess.mu.Lock()
		l.QueuedFrames += sess.queue.len()
		sess.mu.Unlock()
	}
	if l.CapacityMACs > 0 {
		l.Utilization = l.CostMACs / l.CapacityMACs
	}
	for _, n := range s.sched.QueueDepths() {
		l.PendingInvocations += n
	}
	var minBusy, maxBusy float64
	for i, d := range s.cfg.Platform.Devices {
		b := s.engine.BusyUntil(d)
		if i == 0 || b < minBusy {
			minBusy = b
		}
		if b > maxBusy {
			maxBusy = b
		}
	}
	l.BacklogUS = maxBusy - minBusy
	return l
}

// Platform returns the platform model the server executes on.
func (s *Server) Platform() *hw.Platform { return s.cfg.Platform }

// ArenaStats snapshots the server's pool counters (frames,
// accumulation grids, active sets) — the alloc-regression harness and
// /metrics read it.
func (s *Server) ArenaStats() mem.ArenaStats { return s.arena.Stats() }

// rebalance recomputes the placement of all active sessions under the
// configured policy and installs the per-session plans. The placement
// computation (which for MapperNMP is an evolutionary search taking
// real time) runs outside sessMu so ingest, stats and health traffic
// are never stalled behind it; a generation check detects a
// concurrently changed session set and retries.
func (s *Server) rebalance() error {
	for {
		s.sessMu.Lock()
		gen := s.placeGen
		active := s.activeSessionsLocked()
		s.sessMu.Unlock()
		if len(active) == 0 {
			return nil
		}
		nets := make([]*nn.Network, len(active))
		for i, sess := range active {
			nets[i] = sess.Net
		}
		var asg *taskgraph.Assignment
		var err error
		if s.cfg.Mapper == MapperNMP {
			asg, err = s.searchAssignment(nets)
		} else {
			asg, err = nmp.RRNetwork(nets, s.cfg.Platform)
		}
		if err != nil {
			return err
		}
		s.sessMu.Lock()
		if gen != s.placeGen {
			// The active set changed while we searched; recompute.
			s.sessMu.Unlock()
			continue
		}
		if err := s.installLocked(active, asg); err != nil {
			s.sessMu.Unlock()
			return err
		}
		s.sessMu.Unlock()
		return nil
	}
}

// installLocked installs a multi-task assignment over the active
// sessions' plan slots and records it as the warm-start seed. No-op
// plans (same mapping as installed) are skipped so they do not count
// as remaps. Callers hold sessMu with the generation verified.
func (s *Server) installLocked(active []*Session, asg *taskgraph.Assignment) error {
	for i, sess := range active {
		plan, err := pipeline.PlanFromAssignment(asg, i, sess.Level >= pipeline.LevelE2SF)
		if err != nil {
			return err
		}
		if plan.Equal(sess.plan.Load()) {
			continue
		}
		sess.plan.Swap(plan)
	}
	s.lastAsg = asg
	return nil
}

// maybeRemap runs one pass of the online remap loop: if device load
// signals show enough imbalance and the cooldown has expired, a
// warm-started incremental search (nmp.SearchFrom) runs from the live
// assignment, and its result is installed only when it predicts enough
// improvement. Called from workers after a drain pass; the planner's
// in-flight claim keeps it single-threaded.
func (s *Server) maybeRemap() {
	if s.planner == nil {
		return
	}
	// Cheap gate first: maybeRemap runs on every drain completion, and
	// during cooldown (or with a search in flight) the full signals
	// snapshot would be discarded anyway.
	clock := s.engine.Makespan()
	if !s.planner.Ready(clock) {
		return
	}
	devs, now := s.deviceSignals()
	if !s.planner.ShouldRemap(now, devs) {
		return
	}

	s.sessMu.Lock()
	gen := s.placeGen
	active := s.activeSessionsLocked()
	cur := s.lastAsg
	s.sessMu.Unlock()
	if cur == nil || len(active) == 0 || len(cur.Device) != len(active) {
		// No installed assignment to warm-start from (rebalance pending
		// or racing); release the claim and let the cooldown pace retry.
		s.planner.Done(now)
		return
	}

	nets := make([]*nn.Network, len(active))
	for i, sess := range active {
		nets[i] = sess.Net
	}
	mapper, err := s.buildMapper(nets)
	if err != nil {
		s.planner.Done(now)
		return
	}
	curLat, _, err := mapper.Predict(cur)
	if err != nil {
		s.planner.Done(now)
		return
	}
	res, err := mapper.SearchFrom(cur, s.planner.Budget())
	if err != nil {
		s.planner.Done(now)
		return
	}
	gain := 0.0
	if curLat > 0 {
		gain = (curLat - res.LatencyUS) / curLat
	}
	if !s.planner.Accept(curLat, res.LatencyUS) {
		s.planner.Done(now)
		return
	}

	s.sessMu.Lock()
	if gen != s.placeGen {
		// Session churn while searching: its rebalance installed a fresh
		// placement; drop this stale candidate.
		s.sessMu.Unlock()
		s.planner.Done(now)
		return
	}
	err = s.installLocked(active, res.Assignment)
	s.sessMu.Unlock()
	if err != nil {
		s.planner.Done(now)
		return
	}
	s.planner.Committed(now, gain)
	s.ctlTrack.Instant(obs.StageCtl, "remap", now, int64(len(active)))
}

// buildMapper profiles the workload and configures the Network Mapper
// (whose accuracy budgets default to Table 2) — shared by the create/close
// rebalance (full search) and the online remap (warm-started search).
func (s *Server) buildMapper(nets []*nn.Network) (*nmp.Mapper, error) {
	db, err := perf.BuildProfileDB(s.model, nets, true, nil)
	if err != nil {
		return nil, err
	}
	return nmp.NewMapper(db, s.model, serveNMPConfig())
}

// searchAssignment runs the full Network Mapper search over the active
// workload.
func (s *Server) searchAssignment(nets []*nn.Network) (*taskgraph.Assignment, error) {
	mapper, err := s.buildMapper(nets)
	if err != nil {
		return nil, err
	}
	res, err := mapper.Search()
	if err != nil {
		return nil, err
	}
	return res.Assignment, nil
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&cfg); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding session config: %w", err))
		return
	}
	sess, err := s.CreateSession(cfg)
	if err != nil {
		writeError(w, ErrorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, sess.snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshots())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.Snapshot(r.PathValue("id"))
	if err != nil {
		writeError(w, ErrorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	snap, err := s.CloseSession(r.PathValue("id"))
	if err != nil {
		writeError(w, ErrorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// Tracer returns the server's frame-lifecycle tracer, nil when
// tracing is off. Callers (cluster trace merging, the harness) treat
// nil as "no lanes to contribute".
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// StageHists snapshots the per-stage latency histograms; nil when
// tracing is off.
func (s *Server) StageHists() []obs.HistSnapshot {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.Hists()
}

// WriteTrace renders the retained spans as Chrome trace-event JSON.
func (s *Server) WriteTrace(w io.Writer) error {
	if s.tracer == nil {
		return fmt.Errorf("serve: tracing disabled")
	}
	return obs.WriteChrome(w, s.tracer)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: tracing disabled (set Config.Trace.Enabled)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.WriteTrace(w)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	pw := NewPromWriter()
	s.WriteMetrics(pw, "evserve", "")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(pw.String()))
}

// WriteMetrics renders the server's metrics into pw under the given
// metric namespace; extraLabels (pre-rendered `k="v",...`) are
// prepended to every labelled sample so a cluster can scope each
// node's series with a node label.
func (s *Server) WriteMetrics(pw *PromWriter, ns, extraLabels string) {
	lbls := func(kv ...string) string {
		l := PromLabels(kv...)
		switch {
		case extraLabels == "":
			return l
		case l == "":
			return extraLabels
		}
		return extraLabels + "," + l
	}
	s.sessMu.Lock()
	active := len(s.order)
	s.sessMu.Unlock()
	pw.Gauge(ns+"_uptime_seconds", "Server uptime.", lbls(), time.Since(s.start).Seconds())
	pw.Gauge(ns+"_sessions_active", "Sessions currently accepting events.", lbls(), float64(active))
	pw.Gauge(ns+"_sessions_total", "Sessions created since start.", lbls(), float64(s.nextID.Load()))
	makespan := s.engine.Makespan()
	pw.Gauge(ns+"_engine_makespan_us", "Virtual time the last device queue drains.", lbls(), makespan)
	depths := s.sched.QueueDepths()
	for _, d := range s.cfg.Platform.Devices {
		pw.Counter(ns+"_device_busy_us", "Accumulated busy time per device.",
			lbls("device", d.Name), s.engine.BusyTime(d))
		pw.Gauge(ns+"_sched_queue_depth", "Invocations waiting in the device's scheduler run queue.",
			lbls("device", d.Name), float64(depths[d.ID]))
	}
	st := s.sched.Stats()
	pw.Counter(ns+"_sched_submitted_total", "Invocations submitted to the execution scheduler.", lbls(), float64(st.Submitted))
	pw.Counter(ns+"_sched_dispatches_total", "Micro-batches dispatched on the engine.", lbls(), float64(st.Dispatches))
	pw.Counter(ns+"_sched_coalesced_total", "Invocations that rode a multi-member micro-batch.", lbls(), float64(st.Coalesced))
	pw.Gauge(ns+"_sched_batch_occupancy", "Mean invocations per dispatch (1 = serialized).", lbls(), st.Occupancy())
	pw.Gauge(ns+"_sched_batch_max_len", "Largest micro-batch dispatched so far.", lbls(), float64(st.MaxBatchLen))

	// Arena traffic: misses (Gets that allocated) should stay flat once
	// the pools warm up — a climbing miss counter under steady load is
	// the leak/regression signal the alloc gate watches.
	ast := s.arena.Stats()
	for _, p := range [...]struct {
		name string
		st   mem.PoolStats
	}{
		{"frames", ast.Frames}, {"accums", ast.Accums},
		{"invocations", s.invPool.Stats()}, {"requests", s.pendPool.Stats()},
	} {
		pw.Counter(ns+"_pool_gets_total", "Objects borrowed from the arena pool.", lbls("pool", p.name), float64(p.st.Gets))
		pw.Counter(ns+"_pool_misses_total", "Borrows that allocated because the free list was empty.", lbls("pool", p.name), float64(p.st.News))
		pw.Gauge(ns+"_pool_live", "Objects currently borrowed from the pool.", lbls("pool", p.name), float64(p.st.Live()))
	}

	if s.tracer != nil {
		// Per-stage latency histograms from the frame-lifecycle tracer:
		// one series per lifecycle stage that has observed anything.
		for _, h := range s.tracer.Hists() {
			if h.Count == 0 {
				continue
			}
			pw.Histogram(ns+"_stage_latency_us", "Frame-lifecycle stage latency (virtual us).",
				lbls("stage", h.Stage), obs.BucketBoundsUS, h.Counts, h.SumUS, h.Count)
		}
		pw.Counter(ns+"_trace_events_total", "Trace events recorded since start.", lbls(), float64(s.tracer.Recorded()))
		pw.Counter(ns+"_trace_events_dropped_total", "Trace events overwritten in full ring buffers.", lbls(), float64(s.tracer.Dropped()))
	}

	// One snapshot pass feeds both the totals and the per-session
	// series. Reading closedTotals and the active set under one lock
	// acquisition keeps the roll-up consistent with the close path's
	// atomic active->closed handoff.
	s.sessMu.Lock()
	s.totalsMu.Lock()
	totals := s.closedTotals
	s.totalsMu.Unlock()
	activeSessions := s.activeSessionsLocked()
	finals := s.closedUnscraped
	s.closedUnscraped = nil
	s.sessMu.Unlock()
	activeSnaps := make([]SessionSnapshot, len(activeSessions))
	for i, sess := range activeSessions {
		activeSnaps[i] = sess.snapshot()
		totals.add(activeSnaps[i])
	}

	// Monotonic server-wide totals: closed sessions are folded in at
	// close time, so these do not depend on retention or scrape timing.
	pw.Counter(ns+"_events_total", "Events ingested across all sessions ever.", lbls(), float64(totals.EventsIn))
	pw.Counter(ns+"_frames_total", "Sparse frames produced across all sessions ever.", lbls(), float64(totals.FramesIn))
	pw.Counter(ns+"_frames_dropped_total", "Frames shed by ingest queues across all sessions ever.", lbls(), float64(totals.FramesDropped))
	pw.Counter(ns+"_frames_dropped_dsfa_total", "Raw frames shed by DSFA queues across all sessions ever.", lbls(), float64(totals.FramesDroppedDSFA))
	pw.Counter(ns+"_invocations_total", "Inference launches across all sessions ever.", lbls(), float64(totals.Invocations))
	pw.Counter(ns+"_raw_frames_done_total", "Raw frames completed across all sessions ever.", lbls(), float64(totals.RawFramesDone))
	pw.Counter(ns+"_retunes_total", "DSFA retunes applied by the online controller.", lbls(), float64(totals.Retunes))
	pw.Counter(ns+"_remaps_total", "Execution plans installed after the first, all sessions ever.", lbls(), float64(totals.Remaps))

	if s.cfg.Journal {
		// Journal gauges: the live replication/catch-up state. Unacked
		// chunks bound how much a failover replay re-ingests; replica
		// counts show what this node holds on behalf of its buddies.
		var unacked, retained int
		var maxSeq uint64
		for _, sess := range activeSessions {
			if sess.journal == nil {
				continue
			}
			jst := sess.journal.stats()
			unacked += jst.Unacked
			retained += jst.Retained
			if jst.Seq > maxSeq {
				maxSeq = jst.Seq
			}
		}
		pw.Gauge(ns+"_journal_unacked_chunks", "Journal chunk entries not yet retired by the ack watermark.", lbls(), float64(unacked))
		pw.Gauge(ns+"_journal_results_retained", "Result events retained for SSE catch-up across active sessions.", lbls(), float64(retained))
		pw.Gauge(ns+"_journal_max_seq", "Highest journal sequence number assigned across active sessions.", lbls(), float64(maxSeq))
		rsess, rent := s.ReplicaStats()
		pw.Gauge(ns+"_journal_replica_sessions", "Sessions this node holds journal replicas for as a buddy.", lbls(), float64(rsess))
		pw.Gauge(ns+"_journal_replica_entries", "Replicated journal entries held for buddy sessions.", lbls(), float64(rent))
	}

	if s.planner != nil {
		searches, committed, lastGain := s.planner.Stats()
		pw.Counter(ns+"_control_remap_searches_total", "Warm-started NMP searches triggered by load imbalance.", lbls(), float64(searches))
		pw.Counter(ns+"_control_remaps_total", "Warm-started remaps that predicted enough gain to install.", lbls(), float64(committed))
		pw.Gauge(ns+"_control_remap_last_gain", "Fractional predicted-latency gain of the last installed remap.", lbls(), lastGain)
		pw.Gauge(ns+"_control_remap_cooldown_us", "Virtual time until the next remap is allowed.", lbls(), s.planner.CooldownRemainingUS(makespan))
	}

	// Per-session series: active sessions every scrape; a closed
	// session's final counters exactly once, on the first scrape after
	// its close (its contribution lives on in the *_total rollups).
	for _, snap := range append(activeSnaps, finals...) {
		lbl := lbls("session", snap.ID, "network", snap.Network)
		pw.Counter(ns+"_session_events_total", "Events ingested.", lbl, float64(snap.EventsIn))
		pw.Counter(ns+"_session_frames_total", "Sparse frames produced by E2SF.", lbl, float64(snap.FramesIn))
		pw.Counter(ns+"_session_frames_dropped_total", "Frames shed by the bounded ingest queue.", lbl, float64(snap.FramesDropped))
		pw.Counter(ns+"_session_frames_dropped_dsfa_total", "Raw frames shed by the DSFA inference queue.", lbl, float64(snap.FramesDroppedDSFA))
		pw.Counter(ns+"_session_invocations_total", "Inference launches after DSFA merging.", lbl, float64(snap.Invocations))
		pw.Counter(ns+"_session_raw_frames_done_total", "Raw frames whose inference completed.", lbl, float64(snap.RawFramesDone))
		pw.Counter(ns+"_session_retunes_total", "DSFA retunes applied to the session.", lbl, float64(snap.Retunes))
		pw.Counter(ns+"_session_remaps_total", "Plans installed for the session after the first.", lbl, float64(snap.Remaps))
		pw.Gauge(ns+"_session_queue_len", "Frames waiting in the ingest queue.", lbl, float64(snap.QueueLen))
		pw.Gauge(ns+"_session_throughput_fps", "Raw frames served per stream-second.", lbl, snap.ThroughputFPS)
		for _, qv := range []struct {
			q string
			v float64
		}{{"0.5", snap.Latency.P50US}, {"0.99", snap.Latency.P99US}} {
			pw.Gauge(ns+"_session_latency_us", "Per-raw-frame latency (virtual us).",
				lbls("session", snap.ID, "network", snap.Network, "quantile", qv.q), qv.v)
		}
	}
}

// isJSON reports whether an ingest body's media type selects the JSON
// wire format (parameters like charset are tolerated); anything else,
// unparseable types included, is EVAR binary.
func isJSON(contentType string) bool {
	mt, _, err := mime.ParseMediaType(contentType)
	return err == nil && mt == "application/json"
}

// EventJSON is one AER event on the JSON wire format: p is 1 (ON) or
// -1/0 (OFF), matching the text codec's convention.
type EventJSON struct {
	X  uint16 `json:"x"`
	Y  uint16 `json:"y"`
	TS int64  `json:"ts"`
	P  int8   `json:"p"`
}

// ChunkJSON is the JSON ingest payload.
type ChunkJSON struct {
	Width  int         `json:"width"`
	Height int         `json:"height"`
	Events []EventJSON `json:"events"`
}

// Stream converts the JSON chunk to an event stream.
func (c *ChunkJSON) Stream() (*events.Stream, error) {
	if c.Width <= 0 || c.Height <= 0 {
		return nil, fmt.Errorf("serve: JSON chunk has no sensor geometry")
	}
	s := events.NewStream(c.Width, c.Height)
	s.Events = make([]events.Event, len(c.Events))
	for i, e := range c.Events {
		pol := events.Off
		if e.P == 1 {
			pol = events.On
		}
		s.Events[i] = events.Event{X: e.X, Y: e.Y, TS: e.TS, Pol: pol}
	}
	return s, nil
}

// ChunkFromStream converts an event stream to the JSON wire format.
func ChunkFromStream(s *events.Stream) *ChunkJSON {
	c := &ChunkJSON{Width: s.Width, Height: s.Height, Events: make([]EventJSON, len(s.Events))}
	for i, e := range s.Events {
		p := int8(-1)
		if e.Pol == events.On {
			p = 1
		}
		c.Events[i] = EventJSON{X: e.X, Y: e.Y, TS: e.TS, P: p}
	}
	return c
}
