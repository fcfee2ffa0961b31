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
	"sort"
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
	// (open buckets plus the merged queue) — with QueueLen, the
	// session's whole in-flight residual, so harnesses can check frame
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
// sparse frames and pushes them into the bounded queue; workers drain
// the queue through the pipeline Stepper onto the shared engine.
type Session struct {
	ID    string
	Net   *nn.Network
	Level pipeline.Level

	queue *frameQueue
	lat   *latencyRecorder

	// scheduled marks the session as sitting in the worker run queue,
	// so concurrent ingests enqueue it at most once; runNext is its
	// link in that queue (guarded by the queue's lock).
	scheduled atomic.Bool
	runNext   *Session

	// plan is the swappable execution plan: rebalances and online
	// remaps install new mappings between invocations without touching
	// queued frames.
	plan *pipeline.PlanSlot

	// tracer is the owning server's frame-lifecycle tracer; nil when
	// tracing is off (set once at creation, before the first ingest).
	tracer *obs.Tracer
	// track is the session's trace lane name ("sess/"+ID), cached so
	// the per-frame hot paths never concatenate strings; trackH is the
	// lane's cached ring handle, so they never pay a map lookup either
	// (nil when tracing is off — the no-op handle).
	track  string
	trackH *obs.Track

	// journal sequences ingest chunks and results for failover
	// replication and SSE catch-up; nil when Config.Journal is off (set
	// once at creation, before the first ingest).
	journal *journal

	mu       sync.Mutex
	conv     *ingestConverter
	stepper  *pipeline.Stepper
	retuner  *control.Retuner // nil when adaptation is off or below LevelDSFA
	usedDevs map[int]bool     // devices invocations actually ran on
	// sigPlan/planSig cache the coalescing signature of the installed
	// plan so the submit hot path does not re-format the per-layer
	// slices on every invocation; a plan swap installs a new pointer,
	// invalidating the cache. Guarded by mu.
	sigPlan *pipeline.ExecPlan
	planSig string
	created time.Time
	closed  bool
	// tallied marks the final counters as folded into the server's
	// closed-session totals; an execute that finishes afterwards (a
	// worker holding frames drained before the close) contributes its
	// deltas to the totals directly so nothing is lost.
	tallied  bool
	eventsIn uint64
	framesIn uint64
	invocs   uint64
	batched  uint64
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
	// clockUS is the session's virtual hardware-available time: the
	// later of the last invocation's completion and the stream
	// watermark. DSFA staleness and dispatch decisions use it the same
	// way the offline executor uses its loop clock.
	clockUS float64
	// lastDSFADrops is the aggregator drop count already emitted as
	// trace instants, so each execute pass marks only the delta.
	lastDSFADrops uint64
}

// newSession builds a session. The arena and invocation pool wire the
// zero-allocation frame path: E2SF emits pooled frames, the stepper
// recycles invocation structs, and the ingest queue returns shed
// frames to the arena instead of leaking them to GC. Both may be nil
// (tests exercising unpooled behavior).
func newSession(id string, net *nn.Network, level pipeline.Level, queueCap int, policy DropPolicy, plan *pipeline.ExecPlan, retuner *control.Retuner, arena *mem.Arena, invPool *mem.Pool[pipeline.Invocation]) (*Session, error) {
	stepper, err := pipeline.NewStepper(level, pipeline.TunedDSFA(net))
	if err != nil {
		return nil, err
	}
	s := &Session{
		ID:       id,
		track:    "sess/" + id,
		Net:      net,
		Level:    level,
		queue:    newFrameQueue(queueCap, policy),
		lat:      newLatencyRecorder(),
		conv:     &ingestConverter{spec: net.Input},
		stepper:  stepper,
		retuner:  retuner,
		plan:     pipeline.NewPlanSlot(plan),
		usedDevs: map[int]bool{},
		created:  time.Now(),
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
	_, qDropped := s.queue.stats()
	return control.SessionSample{
		StreamUS:      int64(s.clockUS),
		FramesDropped: qDropped + uint64(s.stepper.Stats().DroppedFrames),
		QueueLen:      s.queue.len(),
		QueueCap:      s.queue.cap,
		AggQueued:     s.stepper.Queued(),
		DensitySum:    s.denSum,
		DensityN:      s.denN,
	}
}

// ingest converts one event chunk into frames and queues them,
// shedding per the drop policy. Every event must pass checkEvent and
// the chunk must not precede what the session has already consumed; a
// rejected chunk changes no session state.
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
	if s.tracer != nil && len(frames) > 0 {
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
	if float64(tEnd) > s.clockUS {
		s.clockUS = float64(tEnd)
	}
	res.Events = ch.len()
	res.Frames = len(frames)
	for _, f := range frames {
		res.Dropped += s.queue.push(f)
	}
	if s.tracer != nil && res.Dropped > 0 {
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
	_, qDropped := s.queue.stats()
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
	_, snap.FramesDropped = s.queue.stats()
	snap.FramesDroppedDSFA = uint64(s.stepper.Stats().DroppedFrames)
	snap.AggPending = s.stepper.Pending()
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
// on (or, before the first invocation, the ones its plan would use).
func (s *Session) planDevicesLocked() []string {
	seen := s.usedDevs
	if len(seen) == 0 {
		seen = map[int]bool{}
		for _, d := range s.plan.Load().Device {
			seen[d] = true
		}
	}
	ids := make([]int, 0, len(seen))
	for d := range seen {
		ids = append(ids, d)
	}
	sort.Ints(ids)
	out := make([]string, len(ids))
	for i, d := range ids {
		out[i] = fmt.Sprintf("dev%d", d)
	}
	return out
}

// ingestConverter is the incremental Event2Sparse Frame state of one
// session: buffered not-yet-framed events plus the framing cursor.
// Time framing emits one grouped frame set per completed accumulation
// window; count framing emits a frame every N events, with N
// calibrated once from the first chunk's event rate (as a deployment
// tunes it on representative data). Conversion runs through
// e2sf.Fused: each buffered chunk is traversed once, emitted frames
// come from the arena's frame pool, as does the accumulation grid for
// the length of each conversion call (so a session holds no W x H
// state), and the emit slice is reused across ingests — the
// steady-state ingest path allocates nothing.
//
// buf is the only copy of a chunk's events the server makes: ingest
// appends them to it, checked one by one — decoded from the wire
// record by record when the chunk is an EVAR body — and cuts them off
// again if the chunk is refused.
type ingestConverter struct {
	spec      nn.InputSpec
	pool      *mem.FramePool  // nil: frames are freshly allocated
	fz        *e2sf.Fused     // nil until the first chunk is accepted
	buf       events.Stream   // not-yet-framed events; the first accepted chunk's geometry
	run       events.Stream   // reusable window view (count framing)
	frames    []*sparse.Frame // per-ingest emit scratch, reused
	anchored  bool            // startTS/winStart initialized from the first events
	startTS   int64           // first timestamp seen (stream epoch)
	watermark int64           // latest timestamp consumed
	winStart  int64           // next window start (time framing)
	frStart   int64           // next frame start (count framing)
	count     int             // events per frame (count framing), 0 = uncalibrated
}

// span is the stream time the session has covered so far.
func (c *ingestConverter) span() int64 { return c.watermark - c.startTS }

// Work bounds on one accepted chunk. A session's geometry is whatever
// its first chunk declares and time framing emits a frame set for
// every window up to the chunk's last timestamp, empty or not, so
// without them a few bytes of body buy W x H of grid or an arbitrary
// number of frames. Count framing is bounded by the body size already.
// Timestamps also keep a margin from both ends of int64: anchoring
// reaches up to one window below the first timestamp and framing one
// window (count framing: one microsecond) above the last.
const (
	// maxSessionPixels is above any shipping event sensor (1 Mpx class).
	maxSessionPixels = 4 << 20
	// maxFramesPerIngest is over a minute of stream in one chunk at the
	// zoo's densest framing (DOTIE: 5 frames per 5 ms).
	maxFramesPerIngest = 1 << 16
)

// checkBounds rejects a chunk of checked events that would exceed the
// work bounds, reading converter state without changing it.
func (c *ingestConverter) checkBounds(chunk *events.Stream) error {
	if c.fz == nil && int64(chunk.Width)*int64(chunk.Height) > maxSessionPixels {
		return fmt.Errorf("%w: sensor %dx%d is over %d pixels",
			ErrChunkTooLarge, chunk.Width, chunk.Height, maxSessionPixels)
	}
	if chunk.Len() == 0 {
		return nil
	}
	margin := int64(1)
	if c.spec.Framing != nn.FrameByCount {
		margin = c.spec.WindowUS
	}
	if chunk.TStart() < math.MinInt64+margin || chunk.TEnd() > math.MaxInt64-margin {
		return fmt.Errorf("%w: timestamps %dus to %dus come within %dus of the int64 range",
			ErrChunkTooLarge, chunk.TStart(), chunk.TEnd(), margin)
	}
	if c.spec.Framing == nn.FrameByCount {
		return nil
	}
	winStart := c.winStart
	if !c.anchored {
		winStart = c.anchor(chunk.TStart())
	}
	if chunk.TEnd() < winStart {
		return nil
	}
	perWindow := uint64(1)
	if c.spec.GroupK > 0 {
		perWindow = uint64((c.spec.NumBins + c.spec.GroupK - 1) / c.spec.GroupK)
	}
	// The difference of two int64s fits a uint64 whatever their signs.
	windows := (uint64(chunk.TEnd()) - uint64(winStart)) / uint64(c.spec.WindowUS)
	if windows > maxFramesPerIngest/perWindow {
		return fmt.Errorf("%w: %dus to %dus spans %d windows of %d frames, over %d frames per chunk",
			ErrChunkTooLarge, winStart, chunk.TEnd(), windows, perWindow, maxFramesPerIngest)
	}
	return nil
}

// anchor aligns a stream's first timestamp down to a window boundary:
// client timestamps need not start near zero, and walking windows up
// from 0 would loop per-window all the way to the first timestamp.
// Down means floor — Go's % truncates toward zero, which for a
// negative timestamp would put the first window above the first event
// and trim it away unframed.
func (c *ingestConverter) anchor(ts int64) int64 {
	r := ts % c.spec.WindowUS
	if r < 0 {
		r += c.spec.WindowUS
	}
	return ts - r
}

// admit appends the chunk's events to the buffer, each checked by
// checkEvent, then checks the chunk against the work bounds, the
// session's geometry and its watermark. It returns the appended events
// as a view with the chunk's geometry; on error the caller cuts the
// buffer back.
func (c *ingestConverter) admit(ch Chunk) (events.Stream, error) {
	if ch.w <= 0 || ch.h <= 0 {
		return events.Stream{}, fmt.Errorf("serve: invalid chunk: %w", events.ErrNoGeometry)
	}
	base := len(c.buf.Events)
	var err error
	if c.buf.Events, err = ch.appendTo(c.buf.Events); err != nil {
		return events.Stream{}, fmt.Errorf("serve: invalid chunk: %w", err)
	}
	added := events.Stream{Width: ch.w, Height: ch.h, Events: c.buf.Events[base:]}
	if err := c.checkBounds(&added); err != nil {
		return added, err
	}
	if c.fz != nil && (added.Width != c.buf.Width || added.Height != c.buf.Height) {
		return added, fmt.Errorf("serve: chunk geometry %dx%d != session %dx%d",
			added.Width, added.Height, c.buf.Width, c.buf.Height)
	}
	// Until the first events anchor the session there is no watermark
	// to be behind: a stream may start below zero.
	if c.anchored && added.Len() > 0 && added.TStart() < c.watermark {
		return added, fmt.Errorf("serve: chunk starts at %dus, before session watermark %dus",
			added.TStart(), c.watermark)
	}
	return added, nil
}

// ingest adds one chunk's events to the buffer and frames what they
// complete. Chunks are outside input and e2sf.Fused indexes its grid
// unchecked, so the events are checked as they are copied onto the
// buffer, then the chunk against the work bounds and the session;
// a chunk refused at any step is cut off the buffer again and changes
// no converter state.
func (c *ingestConverter) ingest(ch Chunk) ([]*sparse.Frame, error) {
	base := len(c.buf.Events)
	added, err := c.admit(ch)
	if err != nil {
		c.buf.Events = c.buf.Events[:base]
		return nil, err
	}
	if c.fz == nil {
		fz, err := e2sf.NewFused(e2sf.Config{
			Width: added.Width, Height: added.Height, NumBins: c.spec.NumBins,
		}, c.pool)
		if err != nil {
			c.buf.Events = c.buf.Events[:base]
			return nil, err
		}
		c.fz = fz
		c.buf.Width, c.buf.Height = added.Width, added.Height
	}
	if added.Len() > 0 {
		if !c.anchored {
			c.anchored = true
			// First events: anchor windowing at the stream's own epoch.
			c.startTS = added.TStart()
			if c.spec.WindowUS > 0 {
				c.winStart = c.anchor(c.startTS)
			}
		}
		c.watermark = added.TEnd()
	}
	if c.spec.Framing == nn.FrameByCount {
		return c.convertByCount(false)
	}
	return c.convertWindows()
}

// convertWindows frames every accumulation window fully covered by the
// watermark, exactly as the offline ConvertStream does. The returned
// slice is converter-owned scratch, valid until the next ingest.
func (c *ingestConverter) convertWindows() ([]*sparse.Frame, error) {
	out := c.frames[:0]
	var err error
	for c.winStart+c.spec.WindowUS <= c.watermark {
		t1 := c.winStart + c.spec.WindowUS
		out, _, err = c.fz.ConvertGroupedAppend(out, &c.buf, c.winStart, t1, c.spec.GroupK)
		if err != nil {
			return nil, err
		}
		c.winStart = t1
	}
	c.trim(c.winStart)
	c.frames = out
	return out, nil
}

// convertByCount frames every complete run of `count` buffered events;
// when flush is true the trailing partial frame is emitted too.
func (c *ingestConverter) convertByCount(flush bool) ([]*sparse.Frame, error) {
	if c.count == 0 {
		// Calibrate the event count per frame from the observed rate so
		// the mean framing period matches the spec's target. Wait for at
		// least one framing period of data first — a tiny or
		// zero-duration first chunk would lock in a wildly wrong count
		// for the session's whole lifetime.
		if !flush && (c.buf.Duration() < c.spec.FramePeriodUS || c.buf.Len() < 2) {
			return nil, nil
		}
		d := c.buf.Duration()
		if d > 0 {
			rate := float64(c.buf.Len()) / float64(d)
			c.count = int(rate * float64(c.spec.FramePeriodUS))
		} else {
			// Flushing a degenerate buffer: one frame takes everything.
			c.count = c.buf.Len()
		}
		if c.count < 1 {
			c.count = 1
		}
		c.frStart = c.buf.TStart()
	}
	out := c.frames[:0]
	emit := func(run *events.Stream) error {
		// Convert over the run's own span (duplicate timestamps at the
		// previous frame's boundary must not be sliced away), then chain
		// T0 to the previous frame's end.
		t1 := run.TEnd() + 1
		frames, _, err := c.fz.ConvertByCountAppend(out, run, run.TStart(), t1, run.Len())
		if err != nil {
			return err
		}
		for _, f := range frames[len(out):] {
			f.T0 = c.frStart
			c.frStart = f.T1
		}
		out = frames
		return nil
	}
	// Consume complete runs through a cursor and compact the tail back
	// to the front afterwards, so the buffer's backing array reaches a
	// steady capacity instead of leaking it to forward reslices.
	start := 0
	for c.buf.Len()-start >= c.count {
		c.run.Width, c.run.Height = c.buf.Width, c.buf.Height
		c.run.Events = c.buf.Events[start : start+c.count]
		if err := emit(&c.run); err != nil {
			return nil, err
		}
		start += c.count
	}
	if start > 0 {
		n := copy(c.buf.Events, c.buf.Events[start:])
		c.buf.Events = c.buf.Events[:n]
	}
	if flush && c.buf.Len() > 0 {
		if err := emit(&c.buf); err != nil {
			return nil, err
		}
		c.buf.Events = c.buf.Events[:0]
	}
	c.frames = out
	return out, nil
}

// flush frames whatever a session close leaves buffered: count framing
// emits the trailing partial frame; time framing drops the incomplete
// window, matching the offline converter.
func (c *ingestConverter) flush() ([]*sparse.Frame, error) {
	if c.fz == nil {
		return nil, nil
	}
	if c.spec.Framing == nn.FrameByCount {
		return c.convertByCount(true)
	}
	return nil, nil
}

// trim discards consumed events (timestamps before t).
func (c *ingestConverter) trim(t int64) {
	evs := c.buf.Events
	i := sort.Search(len(evs), func(i int) bool { return evs[i].TS >= t })
	n := copy(evs, evs[i:])
	c.buf.Events = evs[:n]
}
