package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

func TestBucketBoundsMatchNumBuckets(t *testing.T) {
	if len(BucketBoundsUS)+1 != numBuckets {
		t.Fatalf("numBuckets = %d, want len(BucketBoundsUS)+1 = %d", numBuckets, len(BucketBoundsUS)+1)
	}
	for i := 1; i < len(BucketBoundsUS); i++ {
		if BucketBoundsUS[i] <= BucketBoundsUS[i-1] {
			t.Fatalf("bucket bounds not increasing at %d: %v", i, BucketBoundsUS)
		}
	}
}

// TestNilTracerIsNoOp: the nil Tracer is the disabled tracer — every
// method must be callable without panicking.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Track("sess/s1").Span(StageFrame, "frame", 0, 10, 1)
	tr.Instant("ctl", StageCtl, "retune", 5, 1)
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer events = %v, want nil", got)
	}
	if tr.Recorded() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer has counts")
	}
	hists := tr.Hists()
	if len(hists) != NumStages {
		t.Fatalf("nil tracer hists = %d entries, want %d", len(hists), NumStages)
	}
	if NewTracer(Config{}) != nil {
		t.Fatal("NewTracer with Enabled=false must return nil")
	}
}

func TestRingBoundsAndOverwrite(t *testing.T) {
	// Exec spans are never sampled away, so each of the ringCap+1
	// spans reaches the ring.
	tr := NewTracer(Config{Enabled: true})
	for i := 0; i <= ringCap; i++ {
		tr.Track("dev/GPU").Span(StageExec, "conv", float64(i), float64(i)+1, 0)
	}
	evs := tr.Events()
	if len(evs) != ringCap {
		t.Fatalf("ring retained %d events, want %d", len(evs), ringCap)
	}
	// Oldest overwritten: the survivors are the last ringCap spans.
	if evs[0].StartUS != 1 || evs[ringCap-1].StartUS != ringCap {
		t.Fatalf("ring kept wrong window: first %v, last %v", evs[0].StartUS, evs[ringCap-1].StartUS)
	}
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
	// The histogram still saw every span.
	if h := tr.Hists()[StageExec]; h.Count != ringCap+1 {
		t.Fatalf("exec hist count = %d, want %d", h.Count, ringCap+1)
	}
}

func TestTrackCap(t *testing.T) {
	tr := NewTracer(Config{Enabled: true})
	for i := 0; i <= maxTracks; i++ {
		tr.Track(fmt.Sprintf("t%d", i)).Span(StageExec, "x", 0, 1, 0)
	}
	if got := len(tr.Tracks()); got != maxTracks {
		t.Fatalf("tracks = %d, want %d", got, maxTracks)
	}
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
}

// TestSampling: sampleEvery thins the per-frame rings but never the
// histograms.
func TestSampling(t *testing.T) {
	tr := NewTracer(Config{Enabled: true})
	for i := 0; i < 16; i++ {
		tr.Track("sess/s1").Span(StageFrame, "frame", float64(i), float64(i)+2, 1)
	}
	// Exec spans are never sampled away.
	tr.Track("dev/GPU").Span(StageExec, "conv", 0, 5, 0)
	if got := len(tr.Events()); got != 4+1 {
		t.Fatalf("sampled events = %d, want 5", got)
	}
	if h := tr.Hists()[StageFrame]; h.Count != 16 {
		t.Fatalf("frame hist count = %d, want 16 (sampling must not thin histograms)", h.Count)
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	tr := NewTracer(Config{Enabled: true})
	tr.Track("sess/s1").Span(StageQueue, "queue", 10, 5, 1)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].DurUS != 0 {
		t.Fatalf("negative span not clamped: %+v", evs)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 10) // 0..990 us
	}
	s := h.Snapshot()
	if s.Count != 100 || s.MaxUS != 990 {
		t.Fatalf("snapshot = %+v", s)
	}
	p50 := s.Quantile(0.50)
	if p50 < 250 || p50 > 750 {
		t.Fatalf("p50 = %g, want within the containing bucket of ~500", p50)
	}
	if p99 := s.Quantile(0.99); p99 > s.MaxUS {
		t.Fatalf("p99 %g exceeds observed max %g", p99, s.MaxUS)
	}
	if q := s.Quantile(1); q != s.MaxUS && q > s.MaxUS {
		t.Fatalf("q1 = %g > max %g", q, s.MaxUS)
	}
	// A single huge value lands in +Inf but quantiles stay clamped.
	h.Observe(1e9)
	if q := h.Snapshot().Quantile(0.999); q > 1e9 || math.IsInf(q, 1) {
		t.Fatalf("+Inf bucket leaked into quantile: %g", q)
	}
}

func TestHistMergeAndSummaries(t *testing.T) {
	var a, b Histogram
	a.Observe(100)
	a.Observe(200)
	b.Observe(400)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 3 || sa.SumUS != 700 || sa.MaxUS != 400 {
		t.Fatalf("merged = %+v", sa)
	}

	tr := NewTracer(Config{Enabled: true})
	tr.Track("sess/s1").Span(StageQueue, "queue", 0, 100, 1)
	tr.Track("dev/GPU").Span(StageExec, "conv", 0, 50, 0)
	sums := Summaries(tr.Hists())
	if len(sums) != 2 {
		t.Fatalf("summaries = %+v, want queue and exec only", sums)
	}
	if sums[0].Stage != "queue" || sums[1].Stage != "exec" {
		t.Fatalf("summaries out of lifecycle order: %+v", sums)
	}
	if sums[0].MeanUS != 100 {
		t.Fatalf("queue mean = %g, want 100", sums[0].MeanUS)
	}

	merged := MergeHists(tr.Hists(), tr.Hists())
	if merged[StageQueue].Count != 2 {
		t.Fatalf("MergeHists queue count = %d, want 2", merged[StageQueue].Count)
	}
}

// fillTracer records a fixed event set spanning spans, instants and
// two tracks.
func fillTracer(node string) *Tracer {
	tr := NewTracer(Config{Enabled: true, Node: node})
	tr.Track("sess/s1").Span(StageIngest, "ingest", 0, 1000, 3)
	tr.Track("sess/s1").Span(StageQueue, "queue", 1000, 1400, 1)
	tr.Track("dev/GPU").Span(StageExec, "s1/conv1", 1400, 2200, 0)
	tr.Track("um").Span(StageComms, "s1/edge", 2200, 2300, 0)
	tr.Instant("sched", StageCtl, "dispatch", 1400, 2)
	tr.Track("sess/s1").Span(StageFrame, "frame", 1000, 2300, 1)
	return tr
}

// TestWriteChromeValidAndDeterministic: the export must parse as
// Chrome trace-event JSON (traceEvents array, required fields) and two
// identical event sets must serialize byte-identically.
func TestWriteChromeValidAndDeterministic(t *testing.T) {
	var b1, b2 bytes.Buffer
	if err := WriteChrome(&b1, fillTracer("node0")); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b2, fillTracer("node0")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical tracers exported different bytes")
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	var meta, spans, instants int
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		switch ph {
		case "M":
			meta++
		case "X":
			spans++
			if _, ok := e["dur"]; !ok {
				// A zero-duration complete event omits dur; tolerated.
				continue
			}
		case "i":
			instants++
		default:
			t.Fatalf("unexpected phase %q in %v", ph, e)
		}
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event missing %q: %v", k, e)
			}
		}
	}
	if meta < 2 || spans != 5 || instants != 1 {
		t.Fatalf("meta=%d spans=%d instants=%d, want >=2/5/1", meta, spans, instants)
	}
}

// TestWriteChromeMultiNode: two node tracers merge into one trace with
// distinct process lanes.
func TestWriteChromeMultiNode(t *testing.T) {
	var b bytes.Buffer
	if err := WriteChrome(&b, fillTracer("node1"), fillTracer("node0"), nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	procs := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			procs[e.PID], _ = e.Args["name"].(string)
		}
	}
	if len(procs) != 2 || procs[1] != "node0" || procs[2] != "node1" {
		t.Fatalf("process lanes = %v, want sorted node0/node1", procs)
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("empty export invalid: %v", err)
	}
	if doc.TraceEvents == nil {
		t.Fatal("traceEvents must be an array, not null")
	}
}

// TestTrackHandle: handles to one track share its ring and sampling
// state, stays valid across Close, and the
// nil handle (from a nil tracer) is a no-op.
func TestTrackHandle(t *testing.T) {
	tr := NewTracer(Config{Enabled: true})
	h := tr.Track("sess/s1")
	h.Span(StageQueue, "queue", 0, 10, 1)
	h.Instant(StageAgg, "dsfa-drop", 5, 2)
	h.SpansFunc(StageFrame, "frame", 2, func(i int) (float64, float64, int64) {
		return float64(i), 1, 1
	})
	tr.Track("sess/s1").Span(StageQueue, "queue", 10, 30, 1)
	// One ring and one 1-in-4 sampling sequence per stage: the first
	// queue span, the instant and the first frame span are kept.
	if got := len(tr.Events()); got != 3 {
		t.Fatalf("events = %d, want 3 (two handles must share the ring)", got)
	}
	if got := len(tr.Tracks()); got != 1 {
		t.Fatalf("tracks = %d, want 1", got)
	}
	tr.Close()
	if got := len(tr.Events()); got != 0 {
		t.Fatalf("events after Close = %d, want 0", got)
	}
	// The handle still points at the (now empty) ring.
	h.Span(StageQueue, "queue", 0, 4, 1)
	if got := len(tr.Events()); got != 1 {
		t.Fatalf("events after post-Close record = %d, want 1", got)
	}
	if h := tr.Hists()[StageQueue]; h.Count != 3 {
		t.Fatalf("queue hist count = %d, want 3 (histograms survive Close)", h.Count)
	}

	var nilTracer *Tracer
	nh := nilTracer.Track("x")
	nh.Span(StageQueue, "queue", 0, 1, 1) // must not panic
	nh.Instant(StageCtl, "mark", 0, 0)
	nh.SpansFunc(StageFrame, "frame", 1, func(int) (float64, float64, int64) { return 0, 0, 0 })
}

// TestTrackHandleSampling: sampling state lives in the ring, so two
// handles to one track thin one shared sequence.
func TestTrackHandleSampling(t *testing.T) {
	tr := NewTracer(Config{Enabled: true})
	h := tr.Track("sess/s1")
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			h.Span(StageFrame, "frame", float64(i), float64(i)+1, 1)
		} else {
			tr.Track("sess/s1").Span(StageFrame, "frame", float64(i), float64(i)+1, 1)
		}
	}
	if got := len(tr.Events()); got != 2 {
		t.Fatalf("sampled events = %d, want 2 (8 spans, 1-in-4)", got)
	}
	if hs := tr.Hists()[StageFrame]; hs.Count != 8 {
		t.Fatalf("frame hist count = %d, want 8", hs.Count)
	}
}
