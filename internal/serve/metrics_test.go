package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"evedge/internal/nn"
	"evedge/internal/obs"
)

// TestPromLabelsEscaping: label values must escape backslash, quote
// and newline exactly per the Prometheus text exposition format —
// nothing more (Go's %q would mangle other non-printables into syntax
// Prometheus rejects).
func TestPromLabelsEscaping(t *testing.T) {
	cases := []struct {
		name  string
		kv    []string
		want  string
		avoid string
	}{
		{"plain", []string{"session", "s1"}, `session="s1"`, ""},
		{"quote", []string{"id", `a"b`}, `id="a\"b"`, ""},
		{"backslash", []string{"id", `a\b`}, `id="a\\b"`, ""},
		{"newline", []string{"id", "a\nb"}, `id="a\nb"`, "\n"},
		{"combined", []string{"id", "\\\"\n"}, `id="\\\"\n"`, "\n"},
		{"tab passes through", []string{"id", "a\tb"}, "id=\"a\tb\"", `\t`},
		{"multi pair", []string{"a", "1", "b", `2"`}, `a="1",b="2\""`, ""},
		{"odd pair dropped", []string{"a", "1", "dangling"}, `a="1"`, ""},
		{"empty", nil, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := PromLabels(tc.kv...)
			if got != tc.want {
				t.Errorf("PromLabels(%q) = %q, want %q", tc.kv, got, tc.want)
			}
			if tc.avoid != "" && strings.Contains(got, tc.avoid) {
				t.Errorf("PromLabels(%q) = %q contains forbidden %q", tc.kv, got, tc.avoid)
			}
		})
	}
}

// TestPromLabelsCannotBreakExposition: a hostile value injecting a
// closing quote plus a fake sample must stay inside one label value.
func TestPromLabelsCannotBreakExposition(t *testing.T) {
	evil := "x\"} 1\nevil_metric{a=\""
	pw := NewPromWriter()
	pw.Gauge("m", "help.", PromLabels("session", evil), 1)
	out := pw.String()
	if strings.Contains(out, "\nevil_metric") {
		t.Fatalf("label injection broke the exposition:\n%s", out)
	}
	// Exactly one sample line beyond the two header lines.
	if lines := strings.Count(strings.TrimSpace(out), "\n"); lines != 2 {
		t.Fatalf("expected HELP+TYPE+1 sample, got:\n%s", out)
	}
}

// TestPromWriterHistogram checks the cumulative-bucket rendering.
func TestPromWriterHistogram(t *testing.T) {
	pw := NewPromWriter()
	bounds := []float64{100, 1000}
	counts := []uint64{2, 1, 1} // 2 <=100, 1 <=1000, 1 +Inf
	pw.Histogram("stage_us", "Stage latency.", `stage="queue"`, bounds, counts, 1234.5, 4)
	out := pw.String()
	for _, w := range []string{
		"# TYPE stage_us histogram",
		`stage_us_bucket{stage="queue",le="100"} 2`,
		`stage_us_bucket{stage="queue",le="1000"} 3`,
		`stage_us_bucket{stage="queue",le="+Inf"} 4`,
		`stage_us_sum{stage="queue"} 1234.5`,
		`stage_us_count{stage="queue"} 4`,
	} {
		if !strings.Contains(out, w) {
			t.Errorf("histogram output missing %q:\n%s", w, out)
		}
	}
	// A second labelled series must not repeat the HELP/TYPE header.
	pw.Histogram("stage_us", "Stage latency.", `stage="exec"`, bounds, counts, 1, 4)
	if strings.Count(pw.String(), "# TYPE stage_us") != 1 {
		t.Errorf("HELP/TYPE emitted more than once:\n%s", pw.String())
	}

	// Unlabelled histograms render bare sum/count names.
	pw2 := NewPromWriter()
	pw2.Histogram("h", "h.", "", bounds, counts, 2, 4)
	if !strings.Contains(pw2.String(), "\nh_sum 2\n") || !strings.Contains(pw2.String(), "\nh_count 4\n") {
		t.Errorf("unlabelled histogram malformed:\n%s", pw2.String())
	}
	if !strings.Contains(pw2.String(), `h_bucket{le="+Inf"} 4`) {
		t.Errorf("unlabelled +Inf bucket malformed:\n%s", pw2.String())
	}

	// The obs bucket bounds drive the real stage histograms: counts is
	// one longer than bounds by construction.
	if len(obs.BucketBoundsUS)+1 != len(obs.NewTracer(obs.Config{Enabled: true}).Hists()[0].Counts) {
		t.Fatal("obs bucket bounds and hist counts misaligned")
	}
}

// TestLatencyRecorderEmpty: quantiles of an empty recorder are zero,
// not a panic or NaN.
func TestLatencyRecorderEmpty(t *testing.T) {
	r := newLatencyRecorder()
	s := r.snapshot()
	if s.Count != 0 || s.MeanUS != 0 || s.P50US != 0 || s.P99US != 0 || s.MaxUS != 0 {
		t.Fatalf("empty recorder snapshot = %+v, want all zero", s)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("quantile(nil) = %g, want 0", got)
	}
}

// TestLatencyRecorderExactWindow fills exactly latencyWindow samples:
// the window holds them all and quantiles read the full population.
func TestLatencyRecorderExactWindow(t *testing.T) {
	r := newLatencyRecorder()
	for i := 1; i <= latencyWindow; i++ {
		r.observe(float64(i))
	}
	s := r.snapshot()
	if s.Count != latencyWindow {
		t.Fatalf("count = %d, want %d", s.Count, latencyWindow)
	}
	if want := float64(latencyWindow+1) / 2; s.MeanUS != want {
		t.Fatalf("mean = %g, want %g", s.MeanUS, want)
	}
	if s.MaxUS != latencyWindow {
		t.Fatalf("max = %g, want %d", s.MaxUS, latencyWindow)
	}
	// quantile(sorted, q) indexes int(q*n): p50 of 1..4096 is the
	// 2048th index = 2049, p99 is index 4055 = 4056.
	n := float64(len(r.ring))
	if want := float64(int(0.5*n) + 1); s.P50US != want {
		t.Fatalf("p50 = %g, want %g", s.P50US, want)
	}
	if want := float64(int(0.99*n) + 1); s.P99US != want {
		t.Fatalf("p99 = %g, want %g", s.P99US, want)
	}
}

// TestLatencyRecorderWraparound pushes one sample past the window: the
// oldest falls out of the quantile window while lifetime count/sum/max
// keep counting.
func TestLatencyRecorderWraparound(t *testing.T) {
	r := newLatencyRecorder()
	for i := 1; i <= latencyWindow; i++ {
		r.observe(float64(i))
	}
	r.observe(float64(latencyWindow + 1)) // overwrites sample "1"
	s := r.snapshot()
	if s.Count != latencyWindow+1 {
		t.Fatalf("lifetime count = %d, want %d", s.Count, latencyWindow+1)
	}
	if s.MaxUS != latencyWindow+1 {
		t.Fatalf("max = %g, want %d", s.MaxUS, latencyWindow+1)
	}
	if len(r.ring) != latencyWindow {
		t.Fatalf("ring grew to %d, want %d", len(r.ring), latencyWindow)
	}
	// The window is now 2..4097: its minimum proves "1" was evicted.
	min := r.ring[0]
	for _, v := range r.ring {
		if v < min {
			min = v
		}
	}
	if min != 2 {
		t.Fatalf("window min = %g, want 2 (oldest sample must be evicted)", min)
	}
	// Quantiles shift with the window: p50 of 2..4097 is one above the
	// exact-window case.
	if want := float64(int(0.5*float64(len(r.ring))) + 2); s.P50US != want {
		t.Fatalf("p50 after wraparound = %g, want %g", s.P50US, want)
	}

	// Many windows later the lifetime stats still cover everything.
	for i := latencyWindow + 2; i <= 3*latencyWindow; i++ {
		r.observe(float64(i))
	}
	s = r.snapshot()
	if s.Count != 3*latencyWindow {
		t.Fatalf("lifetime count = %d, want %d", s.Count, 3*latencyWindow)
	}
	if want := float64(3*latencyWindow+1) / 2; s.MeanUS != want {
		t.Fatalf("lifetime mean = %g, want %g", s.MeanUS, want)
	}
}

// eagerLatencyRing is the recorder as it was before its window grew
// with use: the whole window allocated up front, a copy of it sorted
// per summary. It is the reference the growing recorder must match.
type eagerLatencyRing struct {
	ring  []float64
	next  int
	count uint64
	sum   float64
	max   float64
}

func (r *eagerLatencyRing) observe(v float64) {
	if r.ring == nil {
		r.ring = make([]float64, 0, latencyWindow)
	}
	r.count++
	r.sum += v
	if v > r.max {
		r.max = v
	}
	if len(r.ring) < latencyWindow {
		r.ring = append(r.ring, v)
	} else {
		r.ring[r.next] = v
		r.next = (r.next + 1) % latencyWindow
	}
}

func (r *eagerLatencyRing) snapshot() LatencySummary {
	s := LatencySummary{Count: r.count, MaxUS: r.max}
	if r.count > 0 {
		s.MeanUS = r.sum / float64(r.count)
	}
	if len(r.ring) == 0 {
		return s
	}
	win := append([]float64(nil), r.ring...)
	sort.Float64s(win)
	s.P50US = quantile(win, 0.50)
	s.P99US = quantile(win, 0.99)
	return s
}

// TestLatencyRecorderMatchesEagerRing: the window that starts empty and
// doubles gives the summary the eager window gave — count, mean, max,
// P50 and P99 equal bit for bit — at every count around the window's
// edge and well past it, summarized once or after every observation.
// Its ring never outgrows the window and a short session holds no more
// than twice what it recorded.
func TestLatencyRecorderMatchesEagerRing(t *testing.T) {
	for _, n := range []int{0, 1, latencyWindow - 1, latencyWindow, latencyWindow + 1, 10_000} {
		rng := rand.New(rand.NewSource(int64(n) + 3))
		got, want := newLatencyRecorder(), &eagerLatencyRing{}
		for i := 0; i < n; i++ {
			v := math.Round(rng.ExpFloat64()*1e6) / 100
			got.observe(v)
			want.observe(v)
			if i%97 == 0 { // interleaved summaries reuse the scratch
				if g, w := got.snapshot(), want.snapshot(); g != w {
					t.Fatalf("n=%d after %d observations: summary %+v, eager ring %+v", n, i+1, g, w)
				}
			}
		}
		if g, w := got.snapshot(), want.snapshot(); g != w {
			t.Fatalf("n=%d: summary %+v, eager ring %+v", n, g, w)
		}
		if c := cap(got.ring); c > latencyWindow || c > max(2*n, latencyRingMin) {
			t.Fatalf("n=%d: ring capacity %d, want at most min(%d, max(2n, %d))", n, c, latencyWindow, latencyRingMin)
		}
		if n == 0 && got.ring != nil {
			t.Fatalf("an idle recorder allocated a %d-sample window", cap(got.ring))
		}
	}
}

// TestLatencySnapshotAllocs: once a summary has sized its scratch, a
// scrape sorts the window without copying it to the heap.
func TestLatencySnapshotAllocs(t *testing.T) {
	r := newLatencyRecorder()
	for i := 0; i < latencyWindow+10; i++ {
		r.observe(float64(i % 331))
	}
	r.snapshot()
	if allocs := testing.AllocsPerRun(20, func() { r.snapshot() }); allocs != 0 {
		t.Fatalf("snapshot of a full window: %.1f allocations, want 0", allocs)
	}
}

// fmtPromWriter renders the exposition through fmt, as PromWriter did
// before it appended through strconv: the byte-for-byte reference.
type fmtPromWriter struct {
	b      strings.Builder
	headed map[string]bool
}

func (w *fmtPromWriter) sample(name, typ, help, labels string, v float64) {
	if !w.headed[name] {
		w.headed[name] = true
		fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	if labels != "" {
		fmt.Fprintf(&w.b, "%s{%s} %g\n", name, labels, v)
	} else {
		fmt.Fprintf(&w.b, "%s %g\n", name, v)
	}
}

func (w *fmtPromWriter) histogram(name, help, labels string, bounds []float64, counts []uint64, sum float64, count uint64) {
	if !w.headed[name] {
		w.headed[name] = true
		fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, "histogram")
	}
	join := func(le string) string {
		if labels == "" {
			return le
		}
		return labels + "," + le
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = fmt.Sprintf("%g", bounds[i])
		}
		fmt.Fprintf(&w.b, "%s_bucket{%s} %d\n", name, join(fmt.Sprintf("le=%q", le)), cum)
	}
	if labels != "" {
		fmt.Fprintf(&w.b, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, sum, name, labels, count)
	} else {
		fmt.Fprintf(&w.b, "%s_sum %g\n%s_count %d\n", name, sum, name, count)
	}
}

// TestPromWriterMatchesFmt: the strconv exposition is byte for byte
// what the fmt one printed — infinities, NaN, signed zero, tiny and
// huge values, exponents, repeated headers, escaped label values and
// histograms with and without labels.
func TestPromWriterMatchesFmt(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1234.5, 1e21, 1e-7, 123456789,
		1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		float64(1 << 53), 4.2e6, 17}
	labelSets := []string{"", PromLabels("session", "s1"),
		PromLabels("session", "x\"} 1\nevil{a=\"", "network", `back\slash`),
		PromLabels("node", "n0", "quantile", "0.99")}
	got := NewPromWriter()
	want := &fmtPromWriter{headed: map[string]bool{}}
	for i, v := range values {
		for j, l := range labelSets {
			name := fmt.Sprintf("m%d", (i+j)%5)
			got.Gauge(name, "Help text.", l, v)
			want.sample(name, "gauge", "Help text.", l, v)
			got.Counter("c_total", "A counter.", l, v)
			want.sample("c_total", "counter", "A counter.", l, v)
		}
	}
	bounds := []float64{0.5, 1, 100, 1e6, math.Inf(1)}
	counts := []uint64{0, 3, 1, 1 << 40, 2, 7}
	for _, l := range labelSets {
		for _, sum := range []float64{0, 1234.5, math.NaN(), math.Inf(1)} {
			got.Histogram("h_us", "A histogram.", l, bounds, counts, sum, 1<<40+13)
			want.histogram("h_us", "A histogram.", l, bounds, counts, sum, 1<<40+13)
		}
	}
	got.Histogram("h2", "No bounds.", "", nil, []uint64{5}, 2.5, 5)
	want.histogram("h2", "No bounds.", "", nil, []uint64{5}, 2.5, 5)
	if g, w := got.String(), want.b.String(); g != w {
		t.Fatalf("exposition differs from the fmt rendering:\n got %q\nwant %q", g, w)
	}
}

func TestQuantileBounds(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if got := quantile(sorted, 1.0); got != 40 {
		t.Fatalf("q=1 clamps to last sample, got %g", got)
	}
	if got := quantile(sorted, 0); got != 10 {
		t.Fatalf("q=0 reads first sample, got %g", got)
	}
}

func ExamplePromLabels() {
	fmt.Println(PromLabels("session", "s1", "network", "DOTIE"))
	// Output: session="s1",network="DOTIE"
}

// TestMetricsSizeFitsScrape: WriteMetrics grows its buffer once, by
// metricsSize, and that holds the whole scrape without wasting half of
// it — on a fresh server, with eight sessions open, with their finals
// once they closed (what a benchmark pass scrapes), and with tracing,
// the journal, the remap planner and a node label all on.
func TestMetricsSizeFitsScrape(t *testing.T) {
	feed := lifecycleChunks(t)
	full := lifecycleConfig()
	full.Mapper = MapperNMP
	full.Adapt.Remap = true
	full.Trace = obs.Config{Enabled: true, Node: "n0"}
	full.Journal = true
	for _, c := range []struct {
		name   string
		cfg    Config
		open   bool
		rounds int
		extra  string
	}{
		{"fresh", lifecycleConfig(), false, 0, ""},
		{"open", lifecycleConfig(), true, 3, ""},
		{"closed", lifecycleConfig(), false, 3, ""},
		{"everything on", full, true, 3, `node="xavier0"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, err := New(c.cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer srv.Close()
			var ids []string
			if c.rounds > 0 {
				for i := range feed {
					sess, err := srv.CreateSession(SessionConfig{Network: nn.SpikeFlowNet, Level: 2})
					if err != nil {
						t.Fatalf("CreateSession: %v", err)
					}
					ids = append(ids, sess.ID)
					for r := range c.rounds {
						if _, err := srv.Ingest(sess.ID, feed[i][r]); err != nil {
							t.Fatalf("Ingest: %v", err)
						}
					}
				}
				srv.Pump()
			}
			if !c.open {
				for _, id := range ids {
					if _, err := srv.CloseSession(id); err != nil {
						t.Fatalf("CloseSession: %v", err)
					}
				}
			}
			hint := srv.metricsSize(srv.Snapshots(), srv.StageHists(), len("evserve"), len(c.extra))
			pw := NewPromWriter()
			srv.WriteMetrics(pw, "evserve", c.extra)
			n := pw.b.Len()
			t.Logf("scrape %d B, sized for %d B (%.2fx)", n, hint, float64(hint)/float64(n))
			if n > hint {
				t.Fatalf("scrape of %d B outgrew the %d B it was sized for", n, hint)
			}
			if 2*hint > 3*n {
				t.Fatalf("scrape of %d B sized at %d B: over half again what it writes", n, hint)
			}
		})
	}
}
