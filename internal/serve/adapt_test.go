package serve

import (
	"fmt"
	"strings"
	"testing"

	"evedge/internal/control"
	"evedge/internal/nn"
)

// scrape renders the server's metrics once.
func scrape(s *Server) string {
	pw := NewPromWriter()
	s.WriteMetrics(pw, "evserve", "")
	return pw.String()
}

// metricValue extracts the value of an unlabelled sample.
func metricValue(t *testing.T, text, name string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return ""
}

// TestMetricsQuantileOrder: a session's latency quantiles are written
// in a fixed order, 0.5 before 0.99, on every scrape.
func TestMetricsQuantileOrder(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	sess, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 2})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := srv.Ingest(sess.ID, genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 21, 80_000)); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	for i := 0; i < 200; i++ {
		text := scrape(srv)
		p50, p99 := strings.Index(text, `quantile="0.5"`), strings.Index(text, `quantile="0.99"`)
		if p50 < 0 || p99 < 0 {
			t.Fatalf("scrape %d lacks a latency quantile:\n%s", i, text)
		}
		if p50 > p99 {
			t.Fatalf("scrape %d writes quantile 0.99 before 0.5", i)
		}
	}
}

// TestMetricsClosedSessionFinalOnce is the regression test for the
// closed-session retention bug: a closed session's final counters are
// exposed at most once (newest MaxClosed finals when scrapes lag), and
// the server-wide totals must not change with scrape timing or
// closed-session eviction.
func TestMetricsClosedSessionFinalOnce(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 21, 80_000)
	var ids []string
	for i := 0; i < MaxClosed+1; i++ {
		sess, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 2})
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		ids = append(ids, sess.ID)
		if _, err := srv.Ingest(sess.ID, stream); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if _, err := srv.CloseSession(sess.ID); err != nil {
			t.Fatalf("CloseSession: %v", err)
		}
	}
	// Closing MaxClosed+1 sessions already evicted the first session's
	// snapshot — its counters must still be in the totals.
	if _, ok := srv.Session(ids[0]); ok {
		t.Fatalf("session %s not evicted (test premise)", ids[0])
	}

	// Every session closed before any scrape, so the emit-once queue
	// kept only the newest MaxClosed finals — the oldest one's counters
	// survive solely in the totals.
	first := scrape(srv)
	if strings.Contains(first, `session="`+ids[0]+`"`) {
		t.Fatalf("first scrape exposed an unretained final beyond the MaxClosed bound")
	}
	for _, id := range ids[1:] {
		if !strings.Contains(first, `session="`+id+`"`) {
			t.Fatalf("first scrape missing closed session %s final counters", id)
		}
	}
	eventsTotal := metricValue(t, first, "evserve_events_total")
	total := srv.Totals()
	if want := fmt.Sprintf("%d", total.EventsIn); eventsTotal != want {
		t.Fatalf("evserve_events_total = %s, want %s", eventsTotal, want)
	}
	if total.Sessions != MaxClosed+1 || total.EventsIn != (MaxClosed+1)*uint64(stream.Len()) {
		t.Fatalf("totals wrong: %+v (stream has %d events)", total, stream.Len())
	}

	// Second scrape: the final per-session series are gone, the totals
	// are unchanged.
	second := scrape(srv)
	for _, id := range ids {
		if strings.Contains(second, `session="`+id+`"`) {
			t.Fatalf("second scrape re-emitted closed session %s", id)
		}
	}
	if got := metricValue(t, second, "evserve_events_total"); got != eventsTotal {
		t.Fatalf("totals changed across scrapes: %s -> %s", eventsTotal, got)
	}
}

// TestAdaptiveRetuneFires drives a backlogged session through the
// serving execute path with the controller enabled and checks retunes
// are applied and surfaced in snapshots and metrics. The session is
// driven directly (no worker goroutines), so the run is deterministic.
func TestAdaptiveRetuneFires(t *testing.T) {
	cfg := Config{Workers: 1}
	cfg.Adapt.Retune = true
	cfg.Adapt.DSFA = control.DSFAConfig{DecideEveryUS: 1}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	sess, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 2, QueueCap: 8})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if sess.retuner == nil {
		t.Fatal("adaptive server created session without a retuner")
	}

	// Two overload rounds: each ingest floods the tiny queue (counting
	// drops), then the drained backlog executes; the controller sees
	// fresh drops between decisions and widens.
	const dur = 200_000
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 23, dur)
	for _, c := range chunks(stream, dur, 100_000) {
		if _, err := sess.ingest(StreamChunk(c)); err != nil {
			t.Fatalf("ingest: %v", err)
		}
		srv.execute(sess, false)
		srv.sched.Drain()
	}
	snap := sess.snapshot()
	if snap.FramesDropped == 0 {
		t.Fatalf("test premise broken: no backlog pressure (snapshot %+v)", snap)
	}
	if snap.Retunes == 0 {
		t.Fatal("controller never retuned under sustained drops")
	}
	agg, ok := sess.stepper.AggConfig()
	if !ok {
		t.Fatal("no aggregator at LevelDSFA")
	}
	if anchor := sess.retuner.Config(); agg != anchor {
		t.Fatalf("live aggregator config %+v does not match controller's %+v", agg, anchor)
	}
	text := scrape(srv)
	if !strings.Contains(text, "evserve_retunes_total") {
		t.Fatal("metrics missing evserve_retunes_total")
	}

	// The remap planner sees one load signal per device.
	if devs, _ := srv.deviceSignals(); len(devs) != len(srv.cfg.Platform.Devices) {
		t.Fatalf("deviceSignals covers %d devices, platform has %d", len(devs), len(srv.cfg.Platform.Devices))
	}

	// A sub-DSFA session must not get a controller.
	plain, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession level 1: %v", err)
	}
	if plain.retuner != nil {
		t.Fatal("level-1 session got a retuner")
	}
}

// TestAdaptiveRemapSearches exercises the warm-remap path end to end:
// imbalanced load triggers a SearchFrom, the planner accounts for it,
// and the control series land in /metrics.
func TestAdaptiveRemapSearches(t *testing.T) {
	if testing.Short() {
		t.Skip("NMP search in -short mode")
	}
	cfg := Config{Workers: 1, Mapper: MapperNMP}
	cfg.Adapt.Retune = true
	cfg.Adapt.Remap = true
	cfg.Adapt.Planner = control.RemapConfig{ImbalanceTh: 1e-9, CooldownUS: 1}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	for _, name := range []string{nn.DOTIE, nn.HALSIE} {
		sess, err := srv.CreateSession(SessionConfig{Network: name, Level: 3})
		if err != nil {
			t.Fatalf("CreateSession %s: %v", name, err)
		}
		stream := genStream(t, nn.MustByName(name).Input.Preset, 29, 60_000)
		if _, err := sess.ingest(StreamChunk(stream)); err != nil {
			t.Fatalf("ingest: %v", err)
		}
		srv.execute(sess, false)
		srv.sched.Drain()
	}
	srv.maybeRemap()
	searches, _, _ := srv.planner.Stats()
	if searches == 0 {
		t.Fatal("imbalanced engine load did not trigger a warm remap search")
	}
	text := scrape(srv)
	for _, want := range []string{
		"evserve_control_remap_searches_total",
		"evserve_control_remaps_total",
		"evserve_control_remap_cooldown_us",
		"evserve_remaps_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestAdaptRemapRequiresNMP rejects the remap loop under round-robin
// placement, where there is no assignment to warm-start.
func TestAdaptRemapRequiresNMP(t *testing.T) {
	cfg := Config{Workers: 1}
	cfg.Adapt.Remap = true
	if _, err := New(cfg); err == nil {
		t.Fatal("adaptive remap accepted without the NMP mapper")
	}
}

// TestRetuneSeesIngestBacklog: the frames a session holds are its
// ingest queue's fill in the controller's sample, so frames that pile
// up while an invocation is in flight press the controller to widen
// DSFA without a single drop. A chunk of three windows arrives while
// the session's first invocation runs and fills the 20-frame queue
// past 15, its high water mark; a chunk of one window does not.
func TestRetuneSeesIngestBacklog(t *testing.T) {
	in := nn.MustByName(nn.DOTIE).Input
	w := in.WindowUS
	perWindow := (in.NumBins + in.GroupK - 1) / in.GroupK
	stream := genStream(t, in.Preset, 23, 5*w)
	for _, tc := range []struct {
		windows int64
		widens  bool
	}{{3, true}, {1, false}} {
		cfg := Config{ManualDrain: true}
		cfg.Adapt.Retune = true
		cfg.Adapt.DSFA = control.DSFAConfig{DecideEveryUS: 1}
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		sess, err := srv.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 2, QueueCap: 4 * perWindow})
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		// The first window's frames: the first pass seeds the controller
		// and puts one invocation in flight.
		if _, err := sess.ingest(StreamChunk(stream.Slice(0, w+w/2))); err != nil {
			t.Fatalf("ingest: %v", err)
		}
		srv.execute(sess, false)
		if !sess.stepper.InFlight() {
			t.Fatal("test premise broken: no invocation in flight after the first pass")
		}
		res, err := sess.ingest(StreamChunk(stream.Slice(w+w/2, (tc.windows+1)*w+w/2)))
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		sess.mu.Lock()
		sample := sess.sampleLocked()
		sess.mu.Unlock()
		if res.Frames != int(tc.windows)*perWindow || sample.QueueLen < res.Frames || res.Dropped != 0 {
			t.Fatalf("%d-window chunk: %+v; sample reads %d of %d frames held", tc.windows, res, sample.QueueLen, sample.QueueCap)
		}
		// The completion's pass decides on what the session holds.
		srv.Pump()
		snap := sess.snapshot()
		srv.Close()
		if (snap.Retunes > 0) != tc.widens || snap.FramesDropped+snap.FramesDroppedDSFA != 0 {
			t.Fatalf("%d-window chunk held %d of %d frames: %d retunes, %d+%d drops; want retunes %v, no drops",
				tc.windows, sample.QueueLen, sample.QueueCap, snap.Retunes, snap.FramesDropped, snap.FramesDroppedDSFA, tc.widens)
		}
	}
}
