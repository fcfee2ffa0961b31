package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"evedge/internal/control"
	"evedge/internal/events"
	"evedge/internal/hw"
	"evedge/internal/mem"
	"evedge/internal/nn"
	"evedge/internal/obs"
	"evedge/internal/perf"
	"evedge/internal/pipeline"
	"evedge/internal/sched"
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

// Merge folds another roll-up into the totals: a whole node
// incarnation's totals when a fleet aggregates across revives.
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

	// serverPools lends what the steady-state frame path churns
	// through (see serverPools); Close hands them on to the next New
	// when nothing can borrow from them again. handedOn then holds the
	// counters they had, which ArenaStats and /metrics report from
	// there on; nil while the server owns its pools.
	*serverPools
	handedOn atomic.Pointer[poolStats]
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

	// closedTotals accumulates the final counters of every closed
	// session (including ones later evicted) so totals never depend on
	// scrape timing. Guarded by sessMu: CloseSession alone writes it,
	// and the finals it adds are final — they are taken once nothing is
	// held or in flight, a closed session refuses ingest, and an execute
	// that reaches a tallied session returns before it can move a
	// counter.
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

// serverPools is what a server lends from: sparse frames flow
// ingest→DSFA→dispatch→release through the arena and are recycled by
// the scheduler's Release hook; invocation and request structs cycle
// through invPool/pendPool the same way. Sessions share them, so frames
// released by one session's completions feed another's ingest.
type serverPools struct {
	arena    *mem.Arena
	invPool  *mem.Pool[pipeline.Invocation]
	pendPool *mem.Pool[pendingInv]
}

// idleServerPools holds the pools closed servers handed on, for the
// next New (see mem.Idle).
var idleServerPools = mem.Idle[serverPools]{New: func() *serverPools {
	return &serverPools{
		arena:    mem.NewArena(),
		invPool:  pipeline.NewInvocationPool(),
		pendPool: mem.NewPool(resetPending),
	}
}}

// poolStats snapshots every pool's counters.
type poolStats struct {
	arena          mem.ArenaStats
	invs, requests mem.PoolStats
}

func (p *serverPools) stats() poolStats {
	return poolStats{arena: p.arena.Stats(), invs: p.invPool.Stats(), requests: p.pendPool.Stats()}
}

// poolStats snapshots the server's pool counters: live while it owns
// its pools, frozen at the hand-on after. The live read comes first: a
// new owner zeroes the counters only after Close froze them, so a read
// that saw the zeroing also sees the frozen copy.
func (s *Server) poolStats() poolStats {
	st := s.serverPools.stats()
	if frozen := s.handedOn.Load(); frozen != nil {
		return *frozen
	}
	return st
}

// New validates cfg, starts the worker pool and returns the server.
// Call Close to stop the workers. The server starts on the pools the
// last server closed with nothing borrowed handed on, if any is idle:
// a process that builds several servers, one after another, makes its
// frames and grids once.
func New(cfg Config) (*Server, error) {
	return newServer(cfg, nil)
}

// newServer is New lending from pools, or from idle ones when pools is
// nil.
func newServer(cfg Config, pools *serverPools) (*Server, error) {
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
		sessions: map[string]*Session{},
		stopped:  make(chan struct{}),
		start:    time.Now(),
	}
	s.runq.ready.L = &s.runq.mu
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
	api := SessionAPI{
		Create: func(cfg SessionConfig) (SessionSnapshot, error) {
			sess, err := s.CreateSession(cfg)
			if err != nil {
				return SessionSnapshot{}, err
			}
			return sess.snapshot(), nil
		},
		List:   s.Snapshots,
		Get:    s.Snapshot,
		Ingest: s.IngestChunk,
		Stream: s.ServeStream,
		Close: func(id string) (SessionSnapshot, error) {
			snap, err := s.CloseSession(id)
			if err != nil {
				return SessionSnapshot{}, err
			}
			return *snap, nil
		},
		Health: func() any { return s.Health() },
	}
	if s.tracer != nil {
		api.Trace = s.WriteTrace
	}
	s.mux = http.NewServeMux()
	api.Mount(s.mux)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The pools are taken last, past every error exit, so a refused
	// config never drops an idle bundle.
	if pools == nil {
		pools = idleServerPools.Get()
		pools.arena.ZeroStats()
		pools.invPool.ZeroStats()
		pools.pendPool.ZeroStats()
	}
	s.serverPools = pools
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
//
// A server closed with every session closed and every frame, grid,
// invocation and request back in its pools hands those pools on: the
// next New in the process starts on them, with their counters zeroed.
// From then on ArenaStats and /metrics report the counters the pools
// had at the hand-on. A server closed with a session open keeps its
// pools, frames frozen in place.
func (s *Server) Close() {
	s.stop.Do(func() {
		close(s.stopped)
		s.runq.close()
	})
	s.wg.Wait()
	s.sched.Close()
	// Recycle trace ring storage (export traces before Close).
	s.tracer.Close()
	s.handOn()
}

// handOn files the server's pools as idle when nothing can borrow from
// them again: no session is open — none ingests, frames at its close or
// executes, and CreateSession, which looks at stopped under sessMu,
// adds none — and every pool has back all it lent.
func (s *Server) handOn() {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if len(s.order) > 0 || s.handedOn.Load() != nil {
		return
	}
	st := s.serverPools.stats()
	if st.arena.Total.Live() != 0 || st.invs.Live() != 0 || st.requests.Live() != 0 {
		return
	}
	s.handedOn.Store(&st)
	idleServerPools.Put(s.serverPools)
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
	sess.trackH = s.tracer.Track("sess/" + id)
	if s.cfg.Journal {
		sess.journal = new(journal)
	}
	s.sessMu.Lock()
	if s.stoppedNow() {
		// Close ran since the check above; it may have handed the pools
		// on when no session was open.
		s.sessMu.Unlock()
		return nil, ErrServerClosed
	}
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
// ones, and returns the final snapshot: the one folded into the
// closed-session totals, which nothing after the close moves.
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
	if !alreadyClosed {
		// The frames the close completes join what ingest left held:
		// they are E2SF output like any other, so they are counted, or
		// frame conservation (frames_in == done + dropped + in-flight)
		// breaks at every close that frames. The close serves them all,
		// past the queue's bound.
		tail := sess.conv.close()
		sess.framesIn += uint64(len(tail))
		for _, f := range tail {
			sess.stepper.Push(f)
		}
	}
	sess.mu.Unlock()
	s.sessMu.Unlock()
	var final SessionSnapshot
	if alreadyClosed {
		final = sess.snapshot()
	} else {
		// Serve everything held, one invocation at a time — before the
		// rebalance, which may fail, so a failed close never strands
		// frames behind a session that now rejects ingest. Each
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
		// snapshot) or sees tallied and returns without touching the
		// session. Concurrent Totals()/scrapes block on sessMu through
		// the handoff and so can never see the session in neither
		// roll-up (a counter dip) or in both (a double count).
		s.sessMu.Lock()
		sess.mu.Lock()
		sess.tallied = true
		final = sess.snapshotLocked()
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
		s.closedTotals.add(final)
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
		if err := s.rebalance(); err != nil {
			return nil, err
		}
	}
	return &final, nil
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
	t := s.closedTotals
	active := s.activeSessionsLocked()
	s.sessMu.Unlock()
	for _, sess := range active {
		t.add(sess.snapshot())
	}
	return t
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

// Platform returns the platform model the server executes on.
func (s *Server) Platform() *hw.Platform { return s.cfg.Platform }

// ArenaStats snapshots the server's pool counters (frames,
// accumulation grids) — the alloc-regression harness and /metrics read
// it. They count this server's traffic only, also on pools an earlier
// server handed on.
func (s *Server) ArenaStats() mem.ArenaStats { return s.poolStats().arena }

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
		return errTracingDisabled
	}
	return obs.WriteChrome(w, s.tracer)
}
