// Package serve is the multi-tenant streaming inference layer over the
// Ev-Edge pipeline: an HTTP server that accepts AER event streams into
// per-client sessions, converts them incrementally through E2SF,
// buffers them in bounded ingest queues with explicit load shedding,
// and multiplexes all sessions onto one shared heterogeneous platform
// through a worker pool and the Network Mapper's assignment (with
// round-robin fallback). It turns the paper's one-shot offline
// experiments into a long-lived serving path: how many event cameras
// can one Xavier sustain, and at what tail latency.
package serve

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"evedge/internal/control"
	"evedge/internal/e2sf"
	"evedge/internal/events"
	"evedge/internal/mem"
	"evedge/internal/nn"
	"evedge/internal/obs"
	"evedge/internal/pipeline"
	"evedge/internal/sparse"
)

// SessionConfig is the client-supplied session creation request.
type SessionConfig struct {
	// Network is the zoo network the session runs (see nn.AllNames).
	Network string `json:"network"`
	// Level is the cumulative optimization level 0-3.
	Level int `json:"level"`
	// QueueCap bounds the ingest queue in frames (0 = server default).
	QueueCap int `json:"queue_cap,omitempty"`
	// DropPolicy is "drop-oldest" (default, DSFA backlog semantics) or
	// "drop-newest".
	DropPolicy string `json:"drop_policy,omitempty"`
}

// IngestResult tells the client what one event chunk became.
type IngestResult struct {
	Events   int `json:"events"`
	Frames   int `json:"frames"`
	Dropped  int `json:"dropped"`
	QueueLen int `json:"queue_len"`
	// Seq is the journal sequence number assigned to this chunk (0 when
	// journaling is off); AckSeq is the highest chunk sequence whose
	// frames have all completed or been shed — the replication layer
	// trims buddy replicas up to it.
	Seq    uint64 `json:"seq,omitempty"`
	AckSeq uint64 `json:"ack_seq,omitempty"`
}

// SessionSnapshot is the observable state of a session.
type SessionSnapshot struct {
	ID string `json:"id"`
	// Node names the fleet node serving the session; the cluster router
	// sets it when proxying, a standalone server leaves it empty. The
	// two failover fields below are cluster-set too: how many times the
	// session was re-created on a new node, and how many queued frames
	// those moves shed (per-session counters restart on each move).
	Node               string `json:"node,omitempty"`
	Failovers          int    `json:"failovers,omitempty"`
	FailoverShedFrames uint64 `json:"failover_shed_frames,omitempty"`
	// FailoverRecoveredFrames counts frames regenerated by replaying the
	// replicated journal after a node kill (cluster-set, like the two
	// fields above).
	FailoverRecoveredFrames uint64    `json:"failover_recovered_frames,omitempty"`
	Network                 string    `json:"network"`
	Task                    string    `json:"task"`
	Level                   string    `json:"level"`
	State                   string    `json:"state"`
	CreatedAt               time.Time `json:"created_at"`
	EventsIn                uint64    `json:"events_in"`
	FramesIn                uint64    `json:"frames_in"`
	FramesDropped           uint64    `json:"frames_dropped"`
	// FramesDroppedDSFA counts raw frames the aggregator's bounded
	// inference queue shed, on top of the ingest-queue drops above.
	FramesDroppedDSFA uint64 `json:"frames_dropped_dsfa"`
	// AggPending counts raw frames buffered inside the DSFA aggregator
	// at level 2 and up (open buckets plus the merged queue). QueueLen
	// counts the frames the ingest queue holds: the stepper's hold,
	// frames waiting for the clock to reach their T1 or for the
	// invocation in flight to complete. Together they are the session's
	// whole in-flight residual, so harnesses can check frame
	// conservation: FramesIn == RawFramesDone + FramesDropped +
	// FramesDroppedDSFA + QueueLen + AggPending at any quiescent point.
	AggPending    int            `json:"agg_pending,omitempty"`
	QueueLen      int            `json:"queue_len"`
	QueueCap      int            `json:"queue_cap"`
	DropPolicy    string         `json:"drop_policy"`
	Invocations   uint64         `json:"invocations"`
	BatchedUnits  uint64         `json:"batched_units"`
	RawFramesDone uint64         `json:"raw_frames_done"`
	MergeRatio    float64        `json:"merge_ratio"`
	StreamTimeUS  int64          `json:"stream_time_us"`
	ThroughputFPS float64        `json:"throughput_fps"`
	Latency       LatencySummary `json:"latency"`
	Devices       []string       `json:"devices"`
	// Retunes counts DSFA tuning changes the online controller applied
	// to this session; Remaps counts execution plans installed after
	// the first (placement rebalances plus adaptive NMP remaps).
	Retunes uint64 `json:"retunes,omitempty"`
	Remaps  uint64 `json:"remaps,omitempty"`
	// Migrations counts cluster-initiated moves to another node (set by
	// the fleet router, like Node and the failover fields).
	Migrations int `json:"migrations,omitempty"`
}

// Session is one client's stream bound to a network and an
// optimization level. The HTTP ingest path converts event chunks to
// sparse frames and pushes them into the bounded queue, the hold of
// the session's pipeline Stepper; workers step it onto the shared
// engine.
type Session struct {
	ID    string
	Net   *nn.Network
	Level pipeline.Level

	lat *latencyRecorder

	// scheduled marks the session as sitting in the worker run queue,
	// so concurrent ingests enqueue it at most once; runNext is its
	// link in that queue (guarded by the queue's lock).
	scheduled atomic.Bool
	runNext   *Session

	// plan is the swappable execution plan: rebalances and online
	// remaps install new mappings between invocations without touching
	// queued frames.
	plan *pipeline.PlanSlot

	// trackH is the session's trace lane ("sess/"+ID), its ring handle
	// cached so the per-frame hot paths never build a lane name or pay a
	// map lookup; nil when tracing is off — the no-op handle (set once
	// at creation, before the first ingest).
	trackH *obs.Track

	// journal sequences ingest chunks and results for failover
	// replication and SSE catch-up; nil when Config.Journal is off (set
	// once at creation, before the first ingest).
	journal *journal

	mu       sync.Mutex
	conv     *ingestConverter
	stepper  *pipeline.Stepper
	queue    *frameQueue      // bounds the stepper's hold
	retuner  *control.Retuner // nil when adaptation is off or below LevelDSFA
	usedDevs devMask          // devices invocations actually ran on
	// sigPlan/planSig cache the coalescing signature of the installed
	// plan so the submit hot path does not re-format the per-layer
	// slices on every invocation; a plan swap installs a new pointer,
	// invalidating the cache. Guarded by mu.
	sigPlan *pipeline.ExecPlan
	planSig string
	created time.Time
	closed  bool
	// tallied marks the final counters as folded into the server's
	// closed-session totals. They stay final: the close takes them once
	// nothing is held or in flight, a closed session refuses ingest,
	// and an execute that finds tallied set (a worker scheduled before
	// the close) returns without touching the session.
	tallied  bool
	eventsIn uint64
	framesIn uint64
	invocs   uint64
	batched  uint64 // model inputs submitted
	rawDone  uint64
	// denSum/denN accumulate ingested-frame density for the controller's
	// scene-dynamics signal.
	denSum float64
	denN   int
	// epochUS maps session stream time onto the shared engine's
	// monotonic virtual time: a session created on a long-lived server
	// starts at the engine's current horizon, not at virtual zero
	// (which would queue its frames behind all history).
	epochUS float64
	// lastDSFADrops is the aggregator drop count already emitted as
	// trace instants, so each execute pass marks only the delta.
	lastDSFADrops uint64
}

// newSession builds a session. The arena and invocation pool wire the
// zero-allocation frame path: E2SF emits pooled frames, the stepper
// recycles invocation structs and borrows the aggregator's grids from
// the arena, and the ingest queue returns shed frames to the arena
// instead of leaking them to GC. Both may be nil (tests exercising
// unpooled behavior).
func newSession(id string, net *nn.Network, level pipeline.Level, queueCap int, policy DropPolicy, plan *pipeline.ExecPlan, retuner *control.Retuner, arena *mem.Arena, invPool *mem.Pool[pipeline.Invocation]) (*Session, error) {
	stepper, err := pipeline.NewStepper(level, pipeline.TunedDSFA(net))
	if err != nil {
		return nil, err
	}
	s := &Session{
		ID:      id,
		Net:     net,
		Level:   level,
		queue:   newFrameQueue(stepper, queueCap, policy),
		lat:     newLatencyRecorder(),
		conv:    &ingestConverter{spec: net.Input},
		stepper: stepper,
		retuner: retuner,
		plan:    pipeline.NewPlanSlot(plan),
		created: time.Now(),
	}
	if arena != nil {
		s.conv.pool = arena.Frames
		s.queue.recycle = arena.Frames.Put
		s.stepper.SetPools(invPool, arena.Frames)
	}
	return s, nil
}

// sampleLocked builds the controller's telemetry snapshot; callers
// hold s.mu.
func (s *Session) sampleLocked() control.SessionSample {
	qDropped := s.queue.stats()
	return control.SessionSample{
		StreamUS:      int64(s.stepper.Clock()),
		FramesDropped: qDropped + uint64(s.stepper.Stats().DroppedFrames),
		QueueLen:      s.queue.len(),
		QueueCap:      s.queue.cap,
		AggQueued:     s.stepper.Queued(),
		DensitySum:    s.denSum,
		DensityN:      s.denN,
	}
}

// ingest converts one event chunk into frames and queues them,
// shedding per the drop policy. Every event must pass checkEvent's
// rule — decided for the whole chunk by one fold, the rule itself run
// event by event only to name the first failure — and the chunk must
// not precede what the session has already consumed; a rejected chunk
// changes no session state.
func (s *Session) ingest(ch Chunk) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res IngestResult
	if s.closed {
		return res, fmt.Errorf("serve: session %s is closed", s.ID)
	}
	frames, err := s.conv.ingest(ch)
	if err != nil {
		return res, err
	}
	tEnd := ch.tEnd()
	if s.trackH != nil && len(frames) > 0 {
		// One ingest span per chunk that produced frames: the E2SF
		// conversion window, from the first emitted frame's start to the
		// chunk's watermark (stream time shifted into engine time).
		s.trackH.Span(obs.StageIngest, "ingest",
			float64(frames[0].T0)+s.epochUS, float64(tEnd)+s.epochUS, int64(len(frames)))
	}
	s.eventsIn += uint64(ch.len())
	s.framesIn += uint64(len(frames))
	for _, f := range frames {
		s.denSum += f.Density()
		s.denN++
	}
	if s.Level == pipeline.LevelBaseline && s.plan.FramingOps() == 0 && len(frames) > 0 {
		// Dense event-frame construction: full tensor stores per frame.
		s.plan.SetFramingOps(int64(2 * frames[0].H * frames[0].W))
	}
	res.Events = ch.len()
	res.Frames = len(frames)
	for _, f := range frames {
		res.Dropped += s.queue.push(f)
	}
	if s.trackH != nil && res.Dropped > 0 {
		// Ingest-queue shedding mark, carrying the shed count.
		s.trackH.Instant(obs.StageQueue, "shed", float64(tEnd)+s.epochUS, int64(res.Dropped))
	}
	res.QueueLen = s.queue.len()
	if s.journal != nil {
		res.Seq = s.journal.appendChunk(s.framesIn)
		res.AckSeq = s.journal.ack(s.completedLocked())
	}
	return res, nil
}

// completedLocked is the cumulative count of frames that have left the
// pipeline — submitted to the engine, shed by the ingest queue, or
// shed by the aggregator. A journal chunk retires once this reaches
// the frames_in watermark recorded at its ingest; callers hold s.mu.
func (s *Session) completedLocked() uint64 {
	qDropped := s.queue.stats()
	return s.rawDone + qDropped + uint64(s.stepper.Stats().DroppedFrames)
}

// snapshot captures the session's observable state.
func (s *Session) snapshot() SessionSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked is snapshot for callers already holding s.mu.
func (s *Session) snapshotLocked() SessionSnapshot {
	snap := SessionSnapshot{
		ID:            s.ID,
		Network:       s.Net.Name,
		Task:          s.Net.Task.String(),
		Level:         s.Level.String(),
		State:         "active",
		CreatedAt:     s.created,
		EventsIn:      s.eventsIn,
		FramesIn:      s.framesIn,
		QueueLen:      s.queue.len(),
		QueueCap:      s.queue.cap,
		DropPolicy:    s.queue.policy.String(),
		Invocations:   s.invocs,
		BatchedUnits:  s.batched,
		RawFramesDone: s.rawDone,
		StreamTimeUS:  s.conv.span(),
		Latency:       s.lat.snapshot(),
	}
	if s.closed {
		snap.State = "closed"
	}
	snap.FramesDropped = s.queue.stats()
	snap.FramesDroppedDSFA = uint64(s.stepper.Stats().DroppedFrames)
	snap.AggPending = s.stepper.Pending() - s.stepper.Held()
	snap.Remaps = s.plan.Swaps()
	if s.retuner != nil {
		snap.Retunes = s.retuner.Retunes()
	}
	if s.invocs > 0 {
		snap.MergeRatio = float64(s.rawDone) / float64(s.invocs)
	}
	if span := s.conv.span(); span > 0 {
		snap.ThroughputFPS = float64(s.rawDone) / (float64(span) * 1e-6)
	}
	snap.Devices = s.planDevicesLocked()
	return snap
}

// planDevicesLocked lists the distinct device IDs the session executed
// on (or, before the first invocation, the ones its plan would use),
// in ID order.
func (s *Session) planDevicesLocked() []string {
	seen := s.usedDevs
	if seen.empty() {
		seen = nil
		for _, d := range s.plan.Load().Device {
			seen.add(d)
		}
	}
	n := 0
	for _, word := range seen {
		n += bits.OnesCount64(word)
	}
	out := make([]string, 0, n)
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			out = append(out, "dev"+strconv.Itoa(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// devMask is a set of device IDs, bit d&63 of word d>>6 for device d:
// marking the devices of an invocation's plan writes bits, not map
// entries, and the set lists itself in ID order.
type devMask []uint64

// add puts device d in the set.
func (m *devMask) add(d int) {
	for d>>6 >= len(*m) {
		*m = append(*m, 0)
	}
	(*m)[d>>6] |= 1 << (d & 63)
}

// empty reports whether the set holds no device.
func (m devMask) empty() bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

// ingestConverter is the ingest side of one session: the wire check,
// the work bounds, the geometry the first chunk declares and the
// watermark. It hands each accepted chunk, a segment at a time, to the
// session's framer (pipeline.NewFramer, as the offline conversion
// frames). Frames and grids come from the arena's frame pool and the
// emit slice is reused, so a warm ingest allocates nothing.
type ingestConverter struct {
	spec      nn.InputSpec
	pool      *mem.FramePool  // nil: frames are freshly allocated
	w, h      int             // the first accepted chunk's geometry; 0 before it
	fr        *e2sf.Framer    // nil until the first events
	frames    []*sparse.Frame // per-ingest emit scratch, reused
	startTS   int64           // first timestamp seen (stream epoch)
	watermark int64           // latest timestamp consumed
}

// span is the stream time the session has covered so far.
func (c *ingestConverter) span() int64 { return c.watermark - c.startTS }

// Work bounds on one accepted chunk. A session's geometry is whatever
// its first chunk declares and time framing emits a frame set for
// every window up to the chunk's last timestamp, empty or not, so
// without them a few bytes of body buy W x H of grid or an arbitrary
// number of frames. Count framing is bounded by the body size already.
// Timestamps also keep a margin from both ends of int64: the first
// window reaches up to one window below the first timestamp and
// framing one window (count framing: one microsecond) above the last.
const (
	// maxSessionPixels is above any shipping event sensor (1 Mpx class).
	maxSessionPixels = 4 << 20
	// maxFramesPerIngest is over a minute of stream in one chunk at the
	// zoo's densest framing (DOTIE: 5 frames per 5 ms).
	maxFramesPerIngest = 1 << 16
)

// checkBounds rejects a chunk of checked events that would exceed the
// work bounds, reading converter state without changing it.
func (c *ingestConverter) checkBounds(ch Chunk) error {
	if c.w == 0 && int64(ch.w)*int64(ch.h) > maxSessionPixels {
		return fmt.Errorf("%w: sensor %dx%d is over %d pixels",
			ErrChunkTooLarge, ch.w, ch.h, maxSessionPixels)
	}
	if ch.len() == 0 {
		return nil
	}
	margin := int64(1)
	if c.spec.Framing != nn.FrameByCount {
		margin = c.spec.WindowUS
	}
	tStart, tEnd := ch.tStart(), ch.tEnd()
	if tStart < math.MinInt64+margin || tEnd > math.MaxInt64-margin {
		return fmt.Errorf("%w: timestamps %dus to %dus come within %dus of the int64 range",
			ErrChunkTooLarge, tStart, tEnd, margin)
	}
	if c.spec.Framing == nn.FrameByCount {
		return nil
	}
	// The open window, or the one the first event will open.
	winStart := e2sf.WindowStart(tStart, c.spec.WindowUS)
	if c.fr != nil {
		winStart = c.fr.Start()
	}
	if tEnd < winStart {
		return nil
	}
	perWindow := uint64(1)
	if c.spec.GroupK > 0 {
		perWindow = uint64((c.spec.NumBins + c.spec.GroupK - 1) / c.spec.GroupK)
	}
	// The difference of two int64s fits a uint64 whatever their signs.
	windows := (uint64(tEnd) - uint64(winStart)) / uint64(c.spec.WindowUS)
	if windows > maxFramesPerIngest/perWindow {
		return fmt.Errorf("%w: %dus to %dus spans %d windows of %d frames, over %d frames per chunk",
			ErrChunkTooLarge, winStart, tEnd, windows, perWindow, maxFramesPerIngest)
	}
	return nil
}

// admit checks a chunk where it lies, before anything changes: its
// events by one fold over them (Chunk.check, which runs checkEvent
// event by event only to name a failure), then the chunk against the
// work bounds, the session's geometry and its watermark. It writes
// nothing but scratch, the chunk's decode segment.
func (c *ingestConverter) admit(ch Chunk, scratch []events.Event) error {
	if ch.w <= 0 || ch.h <= 0 {
		return fmt.Errorf("serve: invalid chunk: %w", events.ErrNoGeometry)
	}
	if err := ch.check(scratch); err != nil {
		return fmt.Errorf("serve: invalid chunk: %w", err)
	}
	if err := c.checkBounds(ch); err != nil {
		return err
	}
	if c.w != 0 && (ch.w != c.w || ch.h != c.h) {
		return fmt.Errorf("serve: chunk geometry %dx%d != session %dx%d",
			ch.w, ch.h, c.w, c.h)
	}
	// Until the first events there is no watermark to be behind: a
	// stream may start below zero.
	if c.fr != nil && ch.len() > 0 && ch.tStart() < c.watermark {
		return fmt.Errorf("serve: chunk starts at %dus, before session watermark %dus",
			ch.tStart(), c.watermark)
	}
	return nil
}

// ingest frames what one chunk completes. Chunks are outside input and
// e2sf.Fused indexes its grid unchecked, so the chunk is checked whole
// first — each event, then the work bounds and the session — and a
// chunk refused at any step changes no converter state. The first
// events seed the framer at the stream's own epoch. The returned slice
// is converter-owned scratch, valid until the next ingest.
func (c *ingestConverter) ingest(ch Chunk) ([]*sparse.Frame, error) {
	var scratch []events.Event
	if len(ch.evs) == 0 && ch.len() > 0 {
		seg := segments.Get().(*[segmentEvents]events.Event)
		defer segments.Put(seg)
		scratch = seg[:]
	}
	if err := c.admit(ch, scratch); err != nil {
		return nil, err
	}
	n := ch.len()
	if c.fr == nil && n > 0 {
		fr, err := pipeline.NewFramer(c.spec, ch.w, ch.h, ch.tStart(), c.pool)
		if err != nil {
			return nil, err
		}
		c.fr, c.startTS = fr, ch.tStart()
	}
	c.w, c.h = ch.w, ch.h
	out := c.frames[:0]
	for i := 0; i < n; {
		seg := ch.segment(i, scratch)
		i += len(seg)
		out = c.fr.Push(out, seg)
	}
	if n > 0 {
		c.watermark = ch.tEnd()
	}
	c.frames = out
	return out, nil
}

// close ends the session's stream: no event at or past the watermark
// + 1 µs can arrive any more, so the framer frames the partial count
// run ending there, or the window ending there, and drops the rest.
func (c *ingestConverter) close() []*sparse.Frame {
	if c.fr == nil {
		return nil
	}
	c.frames = c.fr.Close(c.frames[:0], nil, c.watermark+1)
	return c.frames
}
