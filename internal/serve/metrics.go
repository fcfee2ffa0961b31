package serve

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"evedge/internal/mem"
	"evedge/internal/obs"
)

// latencyRecorder keeps bounded-memory latency statistics: exact
// count/sum/max over the session lifetime plus a sliding window of
// recent observations for quantiles. 4096 samples bound the memory of
// a long-lived session while keeping p99 meaningful (≈41 samples past
// the 99th percentile). The window starts empty and doubles as
// observations arrive, up to latencyWindow, so a short session holds
// what it recorded rather than the whole window; once full it is the
// same ring as ever, so the summary does not depend on how it grew.
type latencyRecorder struct {
	mu    sync.Mutex
	ring  []float64
	next  int
	count uint64
	sum   float64
	max   float64
	// sorted is snapshot's scratch, kept with the ring's capacity so a
	// scrape sorts the window without allocating a copy of it.
	sorted []float64
}

const (
	latencyWindow = 4096
	// latencyRingMin is the window's first allocation.
	latencyRingMin = 64
)

func newLatencyRecorder() *latencyRecorder {
	return &latencyRecorder{}
}

func (r *latencyRecorder) observe(v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count++
	r.sum += v
	if v > r.max {
		r.max = v
	}
	switch n := len(r.ring); {
	case n == latencyWindow:
		r.ring[r.next] = v
		r.next = (r.next + 1) % latencyWindow
		return
	case n == cap(r.ring):
		grown := make([]float64, n, min(max(2*n, latencyRingMin), latencyWindow))
		copy(grown, r.ring)
		r.ring = grown
	}
	r.ring = append(r.ring, v)
}

// LatencySummary is a snapshot of the recorder. Quantiles come from
// the retained window; Count/Mean/Max cover the whole lifetime.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

func (r *latencyRecorder) snapshot() LatencySummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := LatencySummary{Count: r.count, MaxUS: r.max}
	if r.count > 0 {
		s.MeanUS = r.sum / float64(r.count)
	}
	if len(r.ring) == 0 {
		return s
	}
	if cap(r.sorted) < len(r.ring) {
		r.sorted = make([]float64, 0, cap(r.ring))
	}
	win := append(r.sorted[:0], r.ring...)
	sort.Float64s(win)
	s.P50US = quantile(win, 0.50)
	s.P99US = quantile(win, 0.99)
	return s
}

// quantile reads the q-quantile from a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// PromWriter accumulates Prometheus text-exposition output with
// per-metric HELP/TYPE headers emitted once. Exported so the cluster
// layer can merge per-node and fleet-level series into one scrape.
// Numbers are appended through strconv into one scratch array, not
// formatted through fmt, so a sample costs no allocation of its own;
// 'g' at precision -1 prints what %g prints, +Inf and NaN included.
type PromWriter struct {
	b      strings.Builder
	headed map[string]bool
	num    [32]byte
}

// NewPromWriter returns an empty exposition buffer.
func NewPromWriter() *PromWriter {
	return &PromWriter{headed: map[string]bool{}}
}

// Counter and Gauge emit one sample; labels is a pre-rendered
// `name="value",...` string (empty for unlabelled metrics).
func (w *PromWriter) Counter(name, help, labels string, v float64) {
	w.sample(name, "counter", help, labels, v)
}

// Gauge emits one gauge sample.
func (w *PromWriter) Gauge(name, help, labels string, v float64) {
	w.sample(name, "gauge", help, labels, v)
}

// head writes name's HELP/TYPE header the first time name is seen.
func (w *PromWriter) head(name, typ, help string) {
	if w.headed[name] {
		return
	}
	w.headed[name] = true
	for _, s := range [...]string{"# HELP ", name, " ", help, "\n# TYPE ", name, " ", typ, "\n"} {
		w.b.WriteString(s)
	}
}

// series writes `name+suffix{labels} ` (or `name+suffix ` when labels
// is empty).
func (w *PromWriter) series(name, suffix, labels string) {
	w.b.WriteString(name)
	w.b.WriteString(suffix)
	if labels != "" {
		w.b.WriteByte('{')
		w.b.WriteString(labels)
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
}

// writeFloat ends a sample line with v as %g prints it.
func (w *PromWriter) writeFloat(v float64) {
	w.b.Write(strconv.AppendFloat(w.num[:0], v, 'g', -1, 64))
	w.b.WriteByte('\n')
}

// writeUint ends a sample line with v in decimal.
func (w *PromWriter) writeUint(v uint64) {
	w.b.Write(strconv.AppendUint(w.num[:0], v, 10))
	w.b.WriteByte('\n')
}

func (w *PromWriter) sample(name, typ, help, labels string, v float64) {
	w.head(name, typ, help)
	w.series(name, "", labels)
	w.writeFloat(v)
}

// Histogram emits one cumulative histogram: `name_bucket{le=...}`
// per bound plus +Inf, then `name_sum` and `name_count`. bounds and
// counts are index-aligned, with counts one longer (the +Inf bucket).
// labels is a pre-rendered `k="v",...` string merged before the le
// label.
func (w *PromWriter) Histogram(name, help, labels string, bounds []float64, counts []uint64, sum float64, count uint64) {
	w.head(name, "histogram", help)
	var cum uint64
	for i, c := range counts {
		cum += c
		w.b.WriteString(name)
		w.b.WriteString("_bucket{")
		if labels != "" {
			w.b.WriteString(labels)
			w.b.WriteByte(',')
		}
		w.b.WriteString(`le="`)
		if i < len(bounds) {
			w.b.Write(strconv.AppendFloat(w.num[:0], bounds[i], 'g', -1, 64))
		} else {
			w.b.WriteString("+Inf")
		}
		w.b.WriteString(`"} `)
		w.writeUint(cum)
	}
	w.series(name, "_sum", labels)
	w.writeFloat(sum)
	w.series(name, "_count", labels)
	w.writeUint(count)
}

// String returns the accumulated exposition text.
func (w *PromWriter) String() string { return w.b.String() }

// promLabelEscaper escapes a label value per the Prometheus text
// exposition format: backslash, double quote and newline only. %q is
// NOT equivalent — it emits Go syntax (\t, \xNN, ሴ) for other
// non-printables, which Prometheus parsers reject.
var promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// PromLabels renders label pairs in the given order, escaping
// quotes/backslashes/newlines in values so a hostile session ID or
// network name cannot corrupt the exposition format.
func PromLabels(kv ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		promLabelEscaper.WriteString(&b, kv[i+1])
		b.WriteByte('"')
	}
	return b.String()
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
	// One snapshot pass feeds both the totals and the per-session
	// series. Reading closedTotals and the active set under one lock
	// acquisition keeps the roll-up consistent with the close path's
	// atomic active->closed handoff.
	s.sessMu.Lock()
	totals := s.closedTotals
	activeSessions := s.activeSessionsLocked()
	finals := s.closedUnscraped
	s.closedUnscraped = nil
	s.sessMu.Unlock()
	activeSnaps := make([]SessionSnapshot, len(activeSessions))
	for i, sess := range activeSessions {
		activeSnaps[i] = sess.snapshot()
		totals.add(activeSnaps[i])
	}
	sessions := append(activeSnaps, finals...)
	var hists []obs.HistSnapshot
	if s.tracer != nil {
		hists = s.tracer.Hists()
	}
	pw.b.Grow(s.metricsSize(sessions, hists, len(ns), len(extraLabels)))

	pw.Gauge(ns+"_uptime_seconds", "Server uptime.", lbls(), time.Since(s.start).Seconds())
	pw.Gauge(ns+"_sessions_active", "Sessions currently accepting events.", lbls(), float64(len(activeSessions)))
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
	ps := s.poolStats()
	for _, p := range [...]struct {
		name string
		st   mem.PoolStats
	}{
		{"frames", ps.arena.Frames}, {"accums", ps.arena.Accums},
		{"invocations", ps.invs}, {"requests", ps.requests},
	} {
		pw.Counter(ns+"_pool_gets_total", "Objects borrowed from the arena pool.", lbls("pool", p.name), float64(p.st.Gets))
		pw.Counter(ns+"_pool_misses_total", "Borrows that allocated because the free list was empty.", lbls("pool", p.name), float64(p.st.News))
		pw.Gauge(ns+"_pool_live", "Objects currently borrowed from the pool.", lbls("pool", p.name), float64(p.st.Live()))
	}

	if s.tracer != nil {
		// Per-stage latency histograms from the frame-lifecycle tracer:
		// one series per lifecycle stage that has observed anything.
		for _, h := range hists {
			if h.Count == 0 {
				continue
			}
			pw.Histogram(ns+"_stage_latency_us", "Frame-lifecycle stage latency (virtual us).",
				lbls("stage", h.Stage), obs.BucketBoundsUS, h.Counts, h.SumUS, h.Count)
		}
		pw.Counter(ns+"_trace_events_total", "Trace events recorded since start.", lbls(), float64(s.tracer.Recorded()))
		pw.Counter(ns+"_trace_events_dropped_total", "Trace events overwritten in full ring buffers.", lbls(), float64(s.tracer.Dropped()))
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
	for _, snap := range sessions {
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

// Lengths metricsSize budgets: a HELP/TYPE header pair and a sample
// line, each without the namespace, labels and separators, a little
// over the longest WriteMetrics writes.
const (
	promHeaderBytes = 110
	promSampleBytes = 40
)

// metricsSize is about what WriteMetrics writes: its header pairs and
// sample lines, each with the namespace (twice in a header) and every
// sample with the extra labels, the sessions' lines with their own
// labels. WriteMetrics grows the exposition buffer by it once instead
// of doubling it up from empty.
func (s *Server) metricsSize(sessions []SessionSnapshot, hists []obs.HistSnapshot, ns, extra int) int {
	// What every scrape writes: the four server gauges, two series per
	// device, five scheduler series, three series for each of four
	// pools, and eight totals.
	headers := 4 + 2 + 5 + 3 + 8
	samples := 4 + 2*len(s.cfg.Platform.Devices) + 5 + 3*4 + 8
	labels := samples * extra
	if s.tracer != nil {
		headers += 3
		samples += 2
		for _, h := range hists {
			if h.Count > 0 {
				samples += len(h.Counts) + 2
				labels += (len(h.Counts) + 2) * (len(h.Stage) + len(`stage="",le="+Inf"`) + extra)
			}
		}
	}
	if s.cfg.Journal {
		headers, samples = headers+5, samples+5
	}
	if s.planner != nil {
		headers, samples = headers+4, samples+4
	}
	if len(sessions) > 0 {
		headers += 11
	}
	for _, snap := range sessions {
		samples += 12
		labels += 12 * (len(snap.ID) + len(snap.Network) + len(`session="",network="",quantile="0.99"`) + extra)
	}
	return headers*(promHeaderBytes+2*ns) + samples*(promSampleBytes+ns) + labels
}
