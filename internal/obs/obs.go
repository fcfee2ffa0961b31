// Package obs is the frame-lifecycle tracing layer: it follows every
// frame through ingest, queue wait, DSFA aggregation, scheduler
// batch-coalesce wait, per-device execution, unified-memory transfer
// and completion as structured spans with session/node/batch identity.
//
// Spans land in bounded per-track ring buffers (value storage, so the
// steady state allocates nothing) and fold into per-stage latency
// histograms; the whole trace exports as Chrome/Perfetto trace-event
// JSON (WriteChrome). Every recorded timestamp is virtual — stream or
// engine microseconds, never the wall clock — so a run under the
// scenario harness's virtual clock produces a byte-identical trace per
// (scenario, seed): the trace is a replayable test artifact, not just
// a debugging aid.
package obs

import (
	"sort"
	"sync"
)

// Stage identifies where in the frame lifecycle a span was measured.
type Stage uint8

// The lifecycle stages, in pipeline order. StageCtl tags control-plane
// instants (retune/remap/failover annotations) that mark decisions
// rather than measure a latency; it never feeds a histogram.
const (
	// StageIngest covers E2SF conversion of one event chunk.
	StageIngest Stage = iota
	// StageQueue is a frame's wait from its T1 until the session's
	// stepper releases it from the hold, the ingest queue.
	StageQueue
	// StageAgg is raw-frame residency inside a DSFA bucket.
	StageAgg
	// StageBatch is the run-queue plus micro-batch coalesce wait
	// between invocation readiness and engine start.
	StageBatch
	// StageExec is one layer's execution on a device.
	StageExec
	// StageComms is a unified-memory bus transfer.
	StageComms
	// StageFrame is the end-to-end per-raw-frame span (ready to
	// completion) — the latency the serving SLO is written against.
	StageFrame
	// StageCtl tags control/fleet instants (no histogram).
	StageCtl

	// NumStages sizes per-stage arrays.
	NumStages = int(StageCtl) + 1
)

var stageNames = [NumStages]string{
	"ingest", "queue", "agg", "batch", "exec", "comms", "frame", "ctl",
}

// String returns the stage's exposition name (the `stage` label value
// in /metrics and the `cat` field of the Chrome export).
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Event is one recorded span or instant. All times are virtual
// microseconds on the shared engine timeline.
type Event struct {
	// Track names the horizontal lane the event renders on: a session
	// ("sess/s3"), a device ("dev/GPU"), the UM bus ("um"), the
	// scheduler ("sched"), the control plane ("ctl") or the fleet
	// router ("fleet").
	Track string
	// Stage classifies the event for histograms and the trace `cat`.
	Stage Stage
	// Name is the human-readable event label (e.g. "frame", or the
	// batch tag "s1+s2/conv1" on exec spans).
	Name string
	// StartUS/DurUS locate the span; an Instant has DurUS 0 and
	// renders as a vertical mark.
	StartUS float64
	DurUS   float64
	Instant bool
	// Count carries multiplicity: raw frames in an agg span, batch
	// members in a dispatch instant, frames shed by a drop instant.
	Count int64
}

// Config tunes a Tracer.
type Config struct {
	// Enabled turns tracing on; NewTracer returns a nil (no-op) Tracer
	// when false, so the hot path pays one nil check when off.
	Enabled bool
	// Node names the process lane in multi-node exports (the Chrome
	// pid); empty means a standalone server.
	Node string
}

// ringCap bounds each track's event ring; the oldest events are
// overwritten, counted in Dropped.
const ringCap = 4096

// maxTracks bounds how many distinct track rings are kept; events on
// later tracks are dropped, counted in Dropped.
const maxTracks = 64

// sampleEvery thins per-frame span recording: only every Nth
// queue/frame span per track reaches the ring, 1-in-4. Per-frame spans
// are the bulk of trace volume on a busy server, and thinning their
// ring retention is what holds steady-state tracing overhead (bench/'s
// obs.trace_overhead_pct) inside its <5% budget. Histograms always
// observe every span, so sampling bounds trace size and recording cost
// without biasing the latency aggregates — the /metrics stage
// histograms and scenario stage-latency contracts are exact. Sampling
// is a deterministic per-(track, stage) counter, so sampled traces
// stay byte-identical per (scenario, seed).
const sampleEvery = 4

// blockEvents sizes one ring block (~20 KB of Event storage): big
// enough that block management is rare, small enough that a sparse
// track wastes little.
const blockEvents = 256

// blockFree recycles full-size ring blocks across tracers. Recording
// into recycled storage costs a fraction of recording into fresh heap
// (no zeroing, and the pages are resident and cache-warm), which is
// what keeps short-lived traced servers — every scenario run, every
// bench round — inside the tracing overhead budget. A plain bounded
// free list, not a sync.Pool: the blocks must survive GC cycles to
// stay warm.
var blockFree struct {
	mu     sync.Mutex
	blocks [][]Event
}

// blockFreeMax bounds the free list (64 blocks ~= 1.3 MB).
const blockFreeMax = 64

func getBlock(n int) []Event {
	if n == blockEvents {
		blockFree.mu.Lock()
		if l := len(blockFree.blocks); l > 0 {
			b := blockFree.blocks[l-1]
			blockFree.blocks = blockFree.blocks[:l-1]
			blockFree.mu.Unlock()
			return b
		}
		blockFree.mu.Unlock()
	}
	return make([]Event, n)
}

func putBlocks(blocks [][]Event) {
	blockFree.mu.Lock()
	for _, b := range blocks {
		if len(b) == blockEvents && len(blockFree.blocks) < blockFreeMax {
			// Drop the event payloads so pooled blocks don't pin the
			// recorded strings past Tracer.Close.
			for i := range b {
				b[i] = Event{}
			}
			blockFree.blocks = append(blockFree.blocks, b)
		}
	}
	blockFree.mu.Unlock()
}

// ring is one track's bounded event buffer: value storage in chained
// fixed-size blocks, growing block-by-block up to cap (a short-lived
// track never allocates the full capacity, and growth never copies),
// then overwriting oldest. Blocks come from the package free list.
type ring struct {
	blocks [][]Event
	cap    int // bound on stored events
	len    int // events stored, <= cap
	next   int // oldest entry once len == cap
	// sample counts observed queue/frame spans for sampleEvery
	// thinning, indexed by stage — per-ring state so the hot paths
	// never touch a map.
	sample [NumStages]uint64
}

// at returns the entry at storage index i < r.len. All blocks are
// blockEvents long except possibly the last (when cap isn't a
// multiple), so the index math stays a shift and a mask.
func (r *ring) at(i int) *Event {
	return &r.blocks[i/blockEvents][i%blockEvents]
}

// slot returns the next entry to fill, growing up to cap then
// overwriting oldest (dropped true).
func (r *ring) slot() (e *Event, dropped bool) {
	if r.len < r.cap {
		if r.len/blockEvents == len(r.blocks) {
			n := r.cap - len(r.blocks)*blockEvents
			if n > blockEvents {
				n = blockEvents
			}
			r.blocks = append(r.blocks, getBlock(n))
		}
		e = r.at(r.len)
		r.len++
		return e, false
	}
	e = r.at(r.next)
	r.next++
	if r.next == r.len {
		r.next = 0
	}
	return e, true
}

// events appends the ring's contents in recording order.
func (r *ring) events(out []Event) []Event {
	for i := 0; i < r.len; i++ {
		idx := i
		if r.len == r.cap {
			idx = r.next + i
			if idx >= r.len {
				idx -= r.len
			}
		}
		out = append(out, *r.at(idx))
	}
	return out
}

// Tracer records frame-lifecycle events. All methods are safe on a nil
// receiver (no-ops), so instrumented code guards with a single nil
// check and a disabled server pays nothing else.
type Tracer struct {
	cfg Config

	mu     sync.Mutex
	rings  map[string]*ring
	order  []string // track creation order
	hists  [NumStages]Histogram
	events uint64 // recorded (ring-accepted) events
	drops  uint64 // overwritten or track-capped events
}

// NewTracer returns a tracer for cfg, or nil when cfg.Enabled is
// false — the nil Tracer is the disabled tracer.
func NewTracer(cfg Config) *Tracer {
	if !cfg.Enabled {
		return nil
	}
	return &Tracer{
		cfg:   cfg,
		rings: map[string]*ring{},
	}
}

// ringLocked resolves or creates track's ring under t.mu; nil once
// maxTracks is reached (the track's events then only feed histograms
// and the drop counter).
func (t *Tracer) ringLocked(track string) *ring {
	r, ok := t.rings[track]
	if !ok {
		if len(t.rings) >= maxTracks {
			return nil
		}
		r = &ring{cap: ringCap}
		t.rings[track] = r
		t.order = append(t.order, track)
	}
	return r
}

// spanLocked records one span/instant into r under t.mu — the shared
// core of every recording path. r nil (track cap) still observes the
// histogram and counts the drop.
func (t *Tracer) spanLocked(r *ring, track string, st Stage, name string, startUS, durUS float64, instant bool, count int64) {
	if durUS < 0 {
		durUS = 0
	}
	if !instant && st != StageCtl {
		t.hists[st].Observe(durUS)
	}
	if r == nil {
		t.drops++
		return
	}
	if !instant && (st == StageQueue || st == StageFrame) {
		n := r.sample[st]
		r.sample[st] = n + 1
		if n%sampleEvery != 0 {
			return
		}
	}
	e, dropped := r.slot()
	e.Track, e.Stage, e.Name = track, st, name
	e.StartUS, e.DurUS, e.Instant = startUS, durUS, instant
	e.Count = count
	if dropped {
		t.drops++
	}
	t.events++
}

// Node returns the configured node name ("" standalone).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.cfg.Node
}

// Instant records one zero-duration mark (a drop, a retune, a
// failover annotation).
func (t *Tracer) Instant(track string, st Stage, name string, tsUS float64, count int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spanLocked(t.ringLocked(track), track, st, name, tsUS, 0, true, count)
	t.mu.Unlock()
}

// Track returns a cached recording endpoint for one track: hot paths
// resolve the track name once (session create, server construction)
// and then record without the per-call map lookup the name-keyed
// Instant pays. The handle stays valid across Close (the ring object
// persists; only its storage is released). A nil Tracer returns a nil
// Track, which is the no-op handle.
func (t *Tracer) Track(name string) *Track {
	if t == nil {
		return nil
	}
	return &Track{t: t, name: name}
}

// Track is a cached handle to one track's ring. All methods are safe
// on a nil receiver (no-ops). The ring resolves lazily on first
// record, so merely holding a handle never materializes an empty
// track in exports.
type Track struct {
	t        *Tracer
	name     string
	r        *ring
	resolved bool
}

// ringLocked resolves the handle's ring under t.mu, caching the
// result (nil once the tracer's track cap was hit — permanent, since
// tracks are never removed).
func (tk *Track) ringLocked() *ring {
	if !tk.resolved {
		tk.r = tk.t.ringLocked(tk.name)
		tk.resolved = true
	}
	return tk.r
}

// Span records one completed stage span on the track. Negative
// durations (a frame that never waited) clamp to zero so histograms
// stay well-formed.
func (tk *Track) Span(st Stage, name string, startUS, endUS float64, count int64) {
	if tk == nil {
		return
	}
	tk.t.mu.Lock()
	tk.t.spanLocked(tk.ringLocked(), tk.name, st, name, startUS, endUS-startUS, false, count)
	tk.t.mu.Unlock()
}

// Instant records one zero-duration mark on the track.
func (tk *Track) Instant(st Stage, name string, tsUS float64, count int64) {
	if tk == nil {
		return
	}
	tk.t.mu.Lock()
	tk.t.spanLocked(tk.ringLocked(), tk.name, st, name, tsUS, 0, true, count)
	tk.t.mu.Unlock()
}

// SpansFunc records n same-(stage, name) spans on the track under one
// lock acquisition, writing each span directly into the track's ring —
// the bulk API for the per-frame hot paths (queue waits, frame
// latencies), where building an intermediate Event slice doubles the
// memory traffic. at returns the i'th span; it must be pure arithmetic
// (the tracer lock is held across the calls). Histograms observe every
// span; ring entries honor sampleEvery.
func (tk *Track) SpansFunc(st Stage, name string, n int, at func(i int) (startUS, durUS float64, count int64)) {
	if tk == nil || n == 0 {
		return
	}
	tk.t.mu.Lock()
	tk.t.spansLocked(tk.ringLocked(), tk.name, st, name, n, at)
	tk.t.mu.Unlock()
}

// spansLocked is Track.SpansFunc's locked core.
func (t *Tracer) spansLocked(r *ring, track string, st Stage, name string, n int, at func(i int) (startUS, durUS float64, count int64)) {
	if r == nil {
		for i := 0; i < n; i++ {
			_, dur, _ := at(i)
			if dur < 0 {
				dur = 0
			}
			if st != StageCtl {
				t.hists[st].Observe(dur)
			}
		}
		t.drops += uint64(n)
		return
	}
	h := &t.hists[st]
	observe := st != StageCtl
	sampled := st == StageQueue || st == StageFrame
	sampleN := r.sample[st]
	for i := 0; i < n; i++ {
		start, dur, count := at(i)
		if dur < 0 {
			dur = 0
		}
		if observe {
			h.Observe(dur)
		}
		if sampled {
			keep := sampleN%sampleEvery == 0
			sampleN++
			if !keep {
				continue
			}
		}
		e, dropped := r.slot()
		e.Track, e.Stage, e.Name = track, st, name
		e.StartUS, e.DurUS, e.Instant = start, dur, false
		e.Count = count
		if dropped {
			t.drops++
		}
		t.events++
	}
	if sampled {
		r.sample[st] = sampleN
	}
}

// Events returns a snapshot of every retained event, ordered by
// (StartUS, Track, Name) so equal runs snapshot identically.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []Event
	for _, track := range t.order {
		out = t.rings[track].events(out)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartUS != out[j].StartUS {
			return out[i].StartUS < out[j].StartUS
		}
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Tracks returns the track names in creation order.
func (t *Tracer) Tracks() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}

// Hists snapshots the per-stage latency histograms (one entry per
// lifecycle stage; StageCtl stays empty).
func (t *Tracer) Hists() []HistSnapshot {
	out := make([]HistSnapshot, NumStages)
	for i := range out {
		out[i].Stage = Stage(i).String()
		out[i].Counts = make([]uint64, len(BucketBoundsUS)+1)
	}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.hists {
		snap := t.hists[i].Snapshot()
		snap.Stage = Stage(i).String()
		out[i] = snap
	}
	return out
}

// Recorded returns how many events reached a ring; Dropped counts
// events lost to ring overwrites or the track cap.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Dropped counts events lost to ring overwrites or the track cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// Close releases the tracer's ring storage back to the package block
// pool and empties every ring; histograms, counters and the track set
// survive (so cached Track handles stay valid). Call it when the
// traced server shuts down, after any final WriteChrome — snapshots
// taken earlier (Events copies values out) stay valid, but events
// recorded and not yet exported are gone. Safe on nil; later
// recording re-grows fresh storage.
func (t *Tracer) Close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, track := range t.order {
		r := t.rings[track]
		putBlocks(r.blocks)
		r.blocks, r.len, r.next = nil, 0, 0
		r.sample = [NumStages]uint64{}
	}
}
