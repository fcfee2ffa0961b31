package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/scene"
	"evedge/internal/serve"
)

// genStream renders a preset sequence at half scale.
func genStream(t *testing.T, p scene.Preset, seed, durUS int64) *events.Stream {
	t.Helper()
	seq, err := scene.NewSequence(p, scene.Half, seed)
	if err != nil {
		t.Fatalf("NewSequence: %v", err)
	}
	s, err := seq.Generate(durUS)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return s
}

// chunks splits a stream into consecutive chunkUS-long pieces.
func chunks(s *events.Stream, durUS, chunkUS int64) []*events.Stream {
	var out []*events.Stream
	for t0 := int64(0); t0 < durUS; t0 += chunkUS {
		out = append(out, s.Slice(t0, t0+chunkUS))
	}
	return out
}

// testCluster bundles the in-process fleet, a single-node client
// pointed at the router, and the listener base URL.
type testCluster struct {
	c    *Cluster
	cl   *serve.Client
	base string
}

// newTestCluster builds a cluster with the probe loop disabled (tests
// drive ProbeNow explicitly) behind an httptest server + serve client.
func newTestCluster(t *testing.T, cfg Config) (*Cluster, *serve.Client, func()) {
	t.Helper()
	tc, stop := newTestClusterURL(t, cfg)
	return tc.c, tc.cl, stop
}

func newTestClusterURL(t *testing.T, cfg Config) (testCluster, func()) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(c.Handler())
	cl := serve.NewClient(hs.URL, hs.Client())
	return testCluster{c: c, cl: cl, base: hs.URL}, func() {
		hs.Close()
		c.Close()
	}
}

func specs(t testing.TB, s string) []NodeSpec {
	t.Helper()
	out, err := ParseNodeSpecs(s)
	if err != nil {
		t.Fatalf("ParseNodeSpecs(%q): %v", s, err)
	}
	return out
}

func TestParseNodeSpecs(t *testing.T) {
	got := specs(t, "xavier:2,orin:1")
	if len(got) != 3 || got[0].Platform != "xavier" || got[2].Platform != "orin" {
		t.Fatalf("specs = %+v", got)
	}
	if one := specs(t, "orin"); len(one) != 1 || one[0].Platform != "orin" {
		t.Fatalf("single spec = %+v", one)
	}
	for _, bad := range []string{"", "xavier:0", "xavier:-1", "xavier:x", "tpu:2", ", ,"} {
		if _, err := ParseNodeSpecs(bad); err == nil {
			t.Fatalf("ParseNodeSpecs(%q) accepted", bad)
		}
	}
}

func TestParsePlacementPolicy(t *testing.T) {
	for in, want := range map[string]PlacementPolicy{
		"": PolicyLeastLoaded, "least-loaded": PolicyLeastLoaded, "ll": PolicyLeastLoaded,
		"hash": PolicyHash,
	} {
		got, err := ParsePlacementPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePlacementPolicy(%q) = %q, %v", in, got, err)
		}
	}
	if _, err := ParsePlacementPolicy("round-robin"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestHashPlacementDeterministic checks the hash policy maps the same
// session IDs to the same nodes on two identical fleets.
func TestHashPlacementDeterministic(t *testing.T) {
	build := func() map[string]string {
		c, _, stop := newTestCluster(t, Config{Nodes: specs(t, "xavier:3"), Policy: PolicyHash})
		defer stop()
		placed := map[string]string{}
		for i := 0; i < 6; i++ {
			snap, err := c.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
			if err != nil {
				t.Fatalf("CreateSession: %v", err)
			}
			placed[snap.ID] = snap.Node
		}
		return placed
	}
	a, b := build(), build()
	for id, node := range a {
		if b[id] != node {
			t.Fatalf("hash placement differs for %s: %s vs %s", id, node, b[id])
		}
	}
}

// TestLeastLoadedSpreads checks equal-cost sessions split evenly over
// identical nodes, and that a higher-capacity Orin absorbs at least as
// many sessions as a Xavier.
func TestLeastLoadedSpreads(t *testing.T) {
	c, _, stop := newTestCluster(t, Config{Nodes: specs(t, "xavier:2")})
	defer stop()
	for i := 0; i < 4; i++ {
		if _, err := c.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1}); err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
	}
	per := c.sessionsOn()
	if per["xavier0"] != 2 || per["xavier1"] != 2 {
		t.Fatalf("least-loaded split = %v, want 2/2", per)
	}

	mixed, _, stop2 := newTestCluster(t, Config{Nodes: specs(t, "xavier:1,orin:1")})
	defer stop2()
	for i := 0; i < 6; i++ {
		if _, err := mixed.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1}); err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
	}
	per = mixed.sessionsOn()
	if per["orin1"] < per["xavier0"] {
		t.Fatalf("orin (bigger) got %d sessions, xavier %d", per["orin1"], per["xavier0"])
	}
	if per["xavier0"] == 0 {
		t.Fatalf("least-loaded starved the xavier node: %v", per)
	}
}

// TestClusterLifecycleHTTP drives the full session lifecycle through
// the router with the unchanged single-node serve.Client.
func TestClusterLifecycleHTTP(t *testing.T) {
	_, cl, stop := newTestCluster(t, Config{Nodes: specs(t, "xavier:2")})
	defer stop()

	h, err := cl.Health()
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" {
		t.Fatalf("health status %q", h.Status)
	}

	snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 2})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if !strings.HasPrefix(snap.ID, "c") || snap.Node == "" {
		t.Fatalf("create snapshot lacks fleet ID/node: %+v", snap)
	}

	const dur = 150_000
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 11, dur)
	sent := 0
	for _, ch := range chunks(stream, dur, 25_000) {
		res, err := cl.SendEvents(snap.ID, ch)
		if err != nil {
			t.Fatalf("SendEvents: %v", err)
		}
		sent += res.Events
	}

	mid, err := cl.Session(snap.ID)
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if mid.EventsIn != uint64(sent) || mid.Node != snap.Node || mid.ID != snap.ID {
		t.Fatalf("mid snapshot: %+v", mid)
	}

	list, err := cl.Sessions()
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	if len(list) != 1 || list[0].ID != snap.ID {
		t.Fatalf("list = %+v", list)
	}

	fin, err := cl.CloseSession(snap.ID)
	if err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if fin.State != "closed" || fin.RawFramesDone == 0 || fin.Latency.P99US <= 0 {
		t.Fatalf("final snapshot: %+v", fin)
	}
	// Ingest into a closed session fails; unknown sessions 404.
	if _, err := cl.SendEvents(snap.ID, stream.Slice(0, 1000)); err == nil {
		t.Fatal("ingest into closed session succeeded")
	}
	if _, err := cl.Session("c999"); err == nil {
		t.Fatal("unknown session found")
	}
}

// metricValue extracts the first value of an unlabelled metric sample.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s value %q: %v", name, m[1], err)
	}
	return v
}

// sumLabelled sums all samples of a labelled metric.
func sumLabelled(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `\{[^}]*\} ([0-9.e+-]+)$`)
	var sum float64
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("metric %s value %q: %v", name, m[1], err)
		}
		sum += v
	}
	return sum
}

// TestClusterFailover is the acceptance scenario: a mixed xavier+orin
// fleet under load from 8 sessions loses a node mid-stream; the
// surviving nodes adopt its sessions, streaming completes, and the
// fleet metrics stay consistent.
func TestClusterFailover(t *testing.T) {
	c, cl, stop := newTestCluster(t, Config{Nodes: specs(t, "xavier:2,orin:1")})
	defer stop()

	const nSessions = 8
	const dur = 160_000
	nets := []string{nn.DOTIE, nn.HALSIE, nn.DOTIE, nn.HidalgoDepth}
	ids := make([]string, nSessions)
	streams := make([]*events.Stream, nSessions)
	for i := 0; i < nSessions; i++ {
		name := nets[i%len(nets)]
		snap, err := cl.CreateSession(serve.SessionConfig{Network: name, Level: 2})
		if err != nil {
			t.Fatalf("CreateSession %d: %v", i, err)
		}
		ids[i] = snap.ID
		streams[i] = genStream(t, nn.MustByName(name).Input.Preset, int64(30+i), dur)
	}
	per := c.sessionsOn()
	if len(per) < 2 {
		t.Fatalf("sessions all landed on one node: %v", per)
	}

	// Stream the first half everywhere.
	all := make([][]*events.Stream, nSessions)
	for i := range ids {
		all[i] = chunks(streams[i], dur, 20_000)
	}
	half := len(all[0]) / 2
	stream := func(i int, from, to int) error {
		for _, ch := range all[i][from:to] {
			if _, err := cl.SendEvents(ids[i], ch); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- stream(i, 0, half)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("first half: %v", err)
		}
	}

	// Counter baseline before the kill: fleet totals must never step
	// backwards across a failover.
	preText, err := cl.Metrics()
	if err != nil {
		t.Fatalf("Metrics before kill: %v", err)
	}
	preEvents := metricValue(t, preText, "evcluster_events_total")

	// Kill a node that owns sessions, mid-load.
	victim := ""
	for name, n := range c.sessionsOn() {
		if n > 0 {
			victim = name
			break
		}
	}
	victimSessions := c.sessionsOn()[victim]
	if err := c.KillNode(victim); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	c.ProbeNow()

	// Every session must now live on a surviving node.
	for _, id := range ids {
		snap, err := cl.Session(id)
		if err != nil {
			t.Fatalf("Session %s after failover: %v", id, err)
		}
		if snap.Node == victim {
			t.Fatalf("session %s still routed to dead node %s", id, victim)
		}
		if snap.State != "active" {
			t.Fatalf("session %s not active after failover: %+v", id, snap)
		}
	}
	h := c.Health()
	if h.Status != "degraded" || h.NodesUp != 2 {
		t.Fatalf("health after kill: %+v", h)
	}
	if h.FailoverSessions != uint64(victimSessions) {
		t.Fatalf("failover count %d, want %d", h.FailoverSessions, victimSessions)
	}

	// Second half streams against the survivors; failed-over sessions
	// restart their converters, so chunks keep flowing under the same
	// fleet-wide IDs.
	errs = make(chan error, nSessions)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- stream(i, half, len(all[i]))
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("second half: %v", err)
		}
	}

	for _, id := range ids {
		fin, err := cl.CloseSession(id)
		if err != nil {
			t.Fatalf("CloseSession %s: %v", id, err)
		}
		if fin.State != "closed" {
			t.Fatalf("session %s final state %q", id, fin.State)
		}
	}

	// Fleet metrics consistency: router session gauges agree with the
	// per-node breakdown, and failover counters surfaced.
	text, err := cl.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if got := metricValue(t, text, "evcluster_sessions_active"); got != 0 {
		t.Fatalf("sessions_active = %v after closing all", got)
	}
	if got := metricValue(t, text, "evcluster_sessions_total"); got != nSessions {
		t.Fatalf("sessions_total = %v, want %d", got, nSessions)
	}
	if got := metricValue(t, text, "evcluster_failover_sessions_total"); got != float64(victimSessions) {
		t.Fatalf("failover_sessions_total = %v, want %d", got, victimSessions)
	}
	if got, fleet := sumLabelled(t, text, "evcluster_node_sessions_active"),
		metricValue(t, text, "evcluster_sessions_active"); got != fleet {
		t.Fatalf("node sessions sum %v != fleet %v", got, fleet)
	}
	// Counters stay monotonic across the failover: the dead node's
	// last-seen totals remain in the fleet sum.
	if got := metricValue(t, text, "evcluster_events_total"); got < preEvents {
		t.Fatalf("events_total went backwards: %v < %v", got, preEvents)
	}
	if up := metricValue(t, text, "evcluster_nodes_up"); up != 2 {
		t.Fatalf("nodes_up = %v", up)
	}
}

// TestDrainMigratesGracefully drains a node and checks its sessions
// move without shedding queued frames, while new sessions avoid it.
func TestDrainMigratesGracefully(t *testing.T) {
	c, cl, stop := newTestCluster(t, Config{Nodes: specs(t, "xavier:2")})
	defer stop()

	var ids []string
	for i := 0; i < 4; i++ {
		snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		ids = append(ids, snap.ID)
	}
	if err := c.DrainNode("xavier0"); err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	if err := c.DrainNode("xavier0"); err == nil {
		t.Fatal("double drain accepted")
	}
	h := c.Health()
	if h.FailoverShedFrames != 0 {
		t.Fatalf("graceful drain shed %d frames", h.FailoverShedFrames)
	}
	for _, id := range ids {
		snap, err := cl.Session(id)
		if err != nil {
			t.Fatalf("Session %s: %v", id, err)
		}
		if snap.Node != "xavier1" {
			t.Fatalf("session %s on %s after drain", id, snap.Node)
		}
	}
	// New sessions skip the draining node.
	snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession after drain: %v", err)
	}
	if snap.Node != "xavier1" {
		t.Fatalf("new session placed on draining node %s", snap.Node)
	}
}

// TestFailoverShedsQueuedFrames checks the un-journaled kill path
// counts queued frames as shed, and that the corpse itself refuses
// work: a dead server rejects ingest (ErrServerClosed) instead of
// black-holing frames nobody will ever drain, and its scheduler
// backlog drains to empty before the failover runs.
func TestFailoverShedsQueuedFrames(t *testing.T) {
	cfg := Config{Nodes: specs(t, "xavier:2")}
	cfg.Node.QueueCap = 1024
	cfg.Node.ManualDrain = true // nothing drains: ingest stays queued
	c, cl, stop := newTestCluster(t, cfg)
	defer stop()

	snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	rt := c.tab.Load().lookup(snap.ID)
	owner, localID := rt.node, rt.localID

	// Queue a burst before the kill; under ManualDrain it stays queued.
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 3, 100_000)
	res, err := cl.SendEvents(snap.ID, stream)
	if err != nil {
		t.Fatalf("SendEvents: %v", err)
	}
	if res.QueueLen == 0 {
		t.Fatal("nothing queued; test needs a burst that frames")
	}
	if err := c.KillNode(owner.name); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	// Kill-path ownership fix: the corpse rejects ingest — the window
	// where a request lands between the kill and the probe surfaces an
	// error the router can retry, instead of vanishing frames.
	if _, err := owner.server().Ingest(localID, stream.Slice(0, 10_000)); !errors.Is(err, serve.ErrServerClosed) {
		t.Fatalf("ingest onto dead node: err = %v, want ErrServerClosed", err)
	}
	// Close waited out the workers, so the corpse's in-flight set is
	// empty: no scheduler backlog survives node death.
	st := owner.server().SchedStats()
	if st.Submitted != st.Dispatched {
		t.Fatalf("dead node still has %d in-flight invocations", st.Submitted-st.Dispatched)
	}
	if pend := owner.server().Load().PendingInvocations; pend != 0 {
		t.Fatalf("dead node still has %d pending invocations", pend)
	}

	c.ProbeNow()
	h := c.Health()
	if h.FailoverSessions != 1 {
		t.Fatalf("failover sessions = %d", h.FailoverSessions)
	}
	if h.FailoverShedFrames < uint64(res.QueueLen) {
		t.Fatalf("shed %d frames, want >= %d", h.FailoverShedFrames, res.QueueLen)
	}
	if h.FailoverRecoveredFrames != 0 {
		t.Fatalf("recovered %d frames with journaling off", h.FailoverRecoveredFrames)
	}
	// The fleet-wide ID keeps working on the survivor.
	got, err := cl.Session(snap.ID)
	if err != nil {
		t.Fatalf("Session after failover: %v", err)
	}
	if got.Node == owner.name || got.State != "active" {
		t.Fatalf("session after failover: %+v", got)
	}
	// Per-session failover accounting rides on the snapshot.
	if got.Failovers != 1 || got.FailoverShedFrames < uint64(res.QueueLen) {
		t.Fatalf("per-session failover accounting: %+v", got)
	}
	if _, err := cl.SendEvents(snap.ID, stream.Slice(0, 50_000)); err != nil {
		t.Fatalf("SendEvents after failover: %v", err)
	}
}

// TestJournalFailoverRecoversQueuedFrames is the tentpole contract:
// with journaling on, every ingested chunk is replicated to the
// owner's buddy, so a kill with a queued backlog resumes the session
// by replaying the journal — zero shed, queued frames recovered.
func TestJournalFailoverRecoversQueuedFrames(t *testing.T) {
	cfg := Config{Nodes: specs(t, "xavier:2")}
	cfg.Node.QueueCap = 4096
	cfg.Node.ManualDrain = true
	cfg.Node.Journal = true
	c, cl, stop := newTestCluster(t, cfg)
	defer stop()

	snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	owner := c.tab.Load().lookup(snap.ID).node

	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 7, 150_000)
	var queued uint64
	for _, ch := range chunks(stream.Slice(0, 120_000), 120_000, 30_000) {
		res, err := cl.SendEvents(snap.ID, ch)
		if err != nil {
			t.Fatalf("SendEvents: %v", err)
		}
		if res.Seq == 0 {
			t.Fatalf("journaled ingest returned seq 0: %+v", res)
		}
		queued = uint64(res.QueueLen)
	}
	if queued == 0 {
		t.Fatal("nothing queued before the kill")
	}
	// The buddy holds a replica log for the session.
	if sessions, entries := c.buddyFor(owner).server().ReplicaStats(); sessions != 1 || entries == 0 {
		t.Fatalf("buddy replica store: %d sessions, %d entries", sessions, entries)
	}

	if err := c.KillNode(owner.name); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	c.ProbeNow()

	h := c.Health()
	if h.FailoverSessions != 1 {
		t.Fatalf("failover sessions = %d", h.FailoverSessions)
	}
	if h.FailoverShedFrames != 0 {
		t.Fatalf("journaled failover shed %d frames, want 0", h.FailoverShedFrames)
	}
	if h.FailoverRecoveredFrames < queued {
		t.Fatalf("recovered %d frames, want >= %d queued", h.FailoverRecoveredFrames, queued)
	}
	got, err := cl.Session(snap.ID)
	if err != nil {
		t.Fatalf("Session after failover: %v", err)
	}
	if got.Node == owner.name || got.State != "active" {
		t.Fatalf("session after failover: %+v", got)
	}
	if got.FailoverShedFrames != 0 || got.FailoverRecoveredFrames < queued {
		t.Fatalf("per-session recovery accounting: %+v", got)
	}

	// The resumed session keeps working: drain it and close cleanly.
	if _, err := cl.SendEvents(snap.ID, stream.Slice(120_000, 150_000)); err != nil {
		t.Fatalf("SendEvents after failover: %v", err)
	}
	c.Pump()
	fin, err := cl.CloseSession(snap.ID)
	if err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if fin.State != "closed" || fin.RawFramesDone == 0 {
		t.Fatalf("final snapshot: %+v", fin)
	}
}

// TestFailoverCountersSurviveClose pins the counter-fold fix: closing
// a failed-over session must not drop its failover/shed/recovered
// contribution from the fleet totals — evcluster_failover_*_total
// stays monotonic across session close.
func TestFailoverCountersSurviveClose(t *testing.T) {
	cfg := Config{Nodes: specs(t, "xavier:2")}
	cfg.Node.QueueCap = 1024
	cfg.Node.ManualDrain = true
	c, cl, stop := newTestCluster(t, cfg)
	defer stop()

	snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 9, 80_000)
	if _, err := cl.SendEvents(snap.ID, stream); err != nil {
		t.Fatalf("SendEvents: %v", err)
	}
	owner := c.tab.Load().lookup(snap.ID).node
	if err := c.KillNode(owner.name); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	c.ProbeNow()

	pre, err := cl.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	preSessions := metricValue(t, pre, "evcluster_failover_sessions_total")
	preShed := metricValue(t, pre, "evcluster_failover_shed_frames_total")
	if preSessions != 1 || preShed == 0 {
		t.Fatalf("pre-close failover counters: sessions=%v shed=%v", preSessions, preShed)
	}

	c.Pump()
	if _, err := cl.CloseSession(snap.ID); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}

	post, err := cl.Metrics()
	if err != nil {
		t.Fatalf("Metrics after close: %v", err)
	}
	if got := metricValue(t, post, "evcluster_failover_sessions_total"); got != preSessions {
		t.Fatalf("failover_sessions_total moved across close: %v -> %v", preSessions, got)
	}
	if got := metricValue(t, post, "evcluster_failover_shed_frames_total"); got != preShed {
		t.Fatalf("failover_shed_frames_total moved across close: %v -> %v", preShed, got)
	}
	if got := metricValue(t, post, "evcluster_failover_recovered_frames_total"); got != 0 {
		t.Fatalf("recovered counter nonzero with journaling off: %v", got)
	}
}

// TestRouteHistoryBounded: the route table does not grow with the
// session history. After 4 x serve.MaxClosed create/close cycles it
// holds the open routes plus at most MaxClosed closed ones; the fleet's
// failover totals, in Health and in /metrics, keep counting a
// failed-over session whose route was evicted; and a GET of the evicted
// session answers 404, as a node answers for a session it evicted.
func TestRouteHistoryBounded(t *testing.T) {
	cfg := Config{Nodes: specs(t, "xavier:3")}
	cfg.Node.QueueCap = 1024
	cfg.Node.ManualDrain = true
	c, cl, stop := newTestCluster(t, cfg)
	defer stop()
	dotie := serve.SessionConfig{Network: nn.DOTIE, Level: 1}

	open, err := cl.CreateSession(dotie)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := cl.CreateSession(dotie)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SendEvents(gone.ID, genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 9, 80_000)); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(c.tab.Load().lookup(gone.ID).node.name); err != nil {
		t.Fatal(err)
	}
	c.ProbeNow()
	c.Pump()
	if _, err := cl.CloseSession(gone.ID); err != nil {
		t.Fatal(err)
	}
	before := c.Health()
	if before.FailoverSessions == 0 || before.FailoverShedFrames == 0 {
		t.Fatalf("no failover to keep count of: %+v", before)
	}
	pre, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4*serve.MaxClosed; i++ {
		snap, err := c.CreateSession(dotie)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.CloseSession(snap.ID); err != nil {
			t.Fatal(err)
		}
	}
	tab := c.tab.Load()
	if len(tab.open) != 1 || len(tab.local) != 1 || len(tab.closed) > serve.MaxClosed {
		t.Fatalf("route table holds %d open routes (%d indexed) and %d closed, want 1 and at most %d",
			len(tab.open), len(tab.local), len(tab.closed), serve.MaxClosed)
	}
	if _, ok := tab.open[open.ID]; !ok {
		t.Fatal("the open session's route was evicted")
	}
	after := c.Health()
	if after.FailoverSessions != before.FailoverSessions || after.FailoverShedFrames != before.FailoverShedFrames ||
		after.FailoverRecoveredFrames != before.FailoverRecoveredFrames {
		t.Fatalf("failover totals moved across the eviction: %+v -> %+v", before, after)
	}
	post, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"evcluster_failover_sessions_total", "evcluster_failover_shed_frames_total", "evcluster_failover_recovered_frames_total"} {
		if got, want := metricValue(t, post, name), metricValue(t, pre, name); got != want {
			t.Errorf("%s moved across the eviction: %v -> %v", name, want, got)
		}
	}
	if _, err := cl.Session(gone.ID); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("GET of an evicted session: err = %v, want a 404", err)
	}
	if _, err := cl.Session(open.ID); err != nil {
		t.Fatalf("GET of the open session: %v", err)
	}
}

// TestJournalReplayNoCrossArenaRelease regression-tests the frame
// ownership rule across failover: the corpse's frozen queue frames
// belong to the dead arena and must never be recycled by the new
// owner. Replay re-ingests fresh copies on the survivor; pumping and
// closing everything must leave both arenas' pools balanced.
func TestJournalReplayNoCrossArenaRelease(t *testing.T) {
	cfg := Config{Nodes: specs(t, "xavier:2")}
	cfg.Node.QueueCap = 4096
	cfg.Node.ManualDrain = true
	cfg.Node.Journal = true
	c, cl, stop := newTestCluster(t, cfg)
	defer stop()

	snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	owner := c.tab.Load().lookup(snap.ID).node
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 13, 100_000)
	res, err := cl.SendEvents(snap.ID, stream)
	if err != nil {
		t.Fatalf("SendEvents: %v", err)
	}
	if res.QueueLen == 0 {
		t.Fatal("nothing queued before the kill")
	}

	if err := c.KillNode(owner.name); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	deadLive := owner.server().ArenaStats().Total.Live()
	c.ProbeNow() // replay onto the survivor

	// Drain the resumed session on the survivor; the corpse's arena must
	// not see any of those releases (its live count is frozen).
	c.Pump()
	if got := owner.server().ArenaStats().Total.Live(); got != deadLive {
		t.Fatalf("dead arena live count moved across replay: %d -> %d", deadLive, got)
	}
	if err := c.ReviveNode(owner.name); err != nil {
		t.Fatalf("ReviveNode: %v", err)
	}
	if _, err := cl.CloseSession(snap.ID); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	// Survivor's arena is balanced after close: every frame it ingested
	// (including replayed ones) went back to its own pools.
	for _, n := range c.nodes {
		if n.name == owner.name {
			continue
		}
		if live := n.server().ArenaStats().Frames.Live(); live != 0 {
			t.Fatalf("node %s leaks %d live frames after close", n.name, live)
		}
	}
}

// TestStreamResumesAcrossFailover kills a node mid-SSE-stream and
// checks the client resumes gaplessly through the router: the second
// connection (since=<last seq>) picks up strictly after the first and
// delivers the killed node's queued work once the journal replays.
func TestStreamResumesAcrossFailover(t *testing.T) {
	cfg := Config{Nodes: specs(t, "xavier:2")}
	cfg.Node.QueueCap = 4096
	cfg.Node.ManualDrain = true
	cfg.Node.Journal = true
	c, cl, stop := newTestCluster(t, cfg)
	defer stop()

	snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	rt := c.tab.Load().lookup(snap.ID)
	owner, localID := rt.node, rt.localID

	// Phase A drains to completion: its results are streamable.
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 17, 160_000)
	for _, ch := range chunks(stream.Slice(0, 80_000), 80_000, 20_000) {
		if _, err := cl.SendEvents(snap.ID, ch); err != nil {
			t.Fatalf("SendEvents (phase A): %v", err)
		}
	}
	c.Pump()
	st, err := owner.server().SessionJournalStats(localID)
	if err != nil {
		t.Fatalf("SessionJournalStats: %v", err)
	}
	if st.Retained == 0 {
		t.Fatal("phase A produced no streamable results")
	}

	// Pass 1 reads everything phase A emitted, then drops the stream —
	// the client's view of the world right before the node dies.
	errStop := errors.New("drop connection")
	var first []serve.ResultEvent
	err = cl.StreamResults(context.Background(), snap.ID, 0, func(ev serve.ResultEvent) error {
		first = append(first, ev)
		if len(first) == st.Retained {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("pass 1 err = %v, want errStop", err)
	}

	// Phase B queues without draining, then the owner dies: only the
	// replicated journal can get those frames back.
	res, err := cl.SendEvents(snap.ID, stream.Slice(80_000, 160_000))
	if err != nil {
		t.Fatalf("SendEvents (phase B): %v", err)
	}
	if res.QueueLen == 0 {
		t.Fatal("phase B queued nothing")
	}
	if err := c.KillNode(owner.name); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	c.ProbeNow()
	c.Pump() // drain the replayed frames on the survivor
	if _, err := cl.CloseSession(snap.ID); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}

	// Pass 2 resumes through the router against the new owner.
	var second []serve.ResultEvent
	err = cl.StreamResults(context.Background(), snap.ID, first[len(first)-1].Seq, func(ev serve.ResultEvent) error {
		second = append(second, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("pass 2: %v", err)
	}
	if len(second) == 0 {
		t.Fatal("resumed stream delivered nothing after the failover")
	}
	union := append(append([]serve.ResultEvent{}, first...), second...)
	var frames int
	for i, ev := range union {
		if i > 0 && ev.Seq <= union[i-1].Seq {
			t.Fatalf("sequence not strictly increasing at %d: %d after %d", i, ev.Seq, union[i-1].Seq)
		}
		frames += ev.Frames
	}
	if frames == 0 {
		t.Fatal("no frames delivered across the resumed stream")
	}
	h := c.Health()
	if h.FailoverShedFrames != 0 || h.FailoverRecoveredFrames == 0 {
		t.Fatalf("failover accounting: %+v", h)
	}
}

// TestResultReplicationSeedsResumedJournal is the seq-recycling
// regression: results share the chunk sequence counter, so a session
// whose chunks are all acked at kill time (replica log holds only
// result entries) must still resume with its sequence counter past
// every seq the dead node handed out, and with the catch-up ring
// restored. Without result replication the resumed journal restarts
// at zero and re-assigns seqs at or below a streaming client's
// since=<seq> cursor — the client's filter then silently swallows
// every post-failover result.
func TestResultReplicationSeedsResumedJournal(t *testing.T) {
	cfg := Config{Nodes: specs(t, "xavier:2")}
	cfg.Node.QueueCap = 4096
	cfg.Node.ManualDrain = true
	cfg.Node.Journal = true
	c, cl, stop := newTestCluster(t, cfg)
	defer stop()

	snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	rt := c.tab.Load().lookup(snap.ID)
	owner, localID := rt.node, rt.localID

	// Phase A drains fully: every chunk acks, so only replicated
	// results keep the sequence watermark alive on the buddy.
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 29, 120_000)
	for _, ch := range chunks(stream.Slice(0, 60_000), 60_000, 20_000) {
		if _, err := cl.SendEvents(snap.ID, ch); err != nil {
			t.Fatalf("SendEvents (phase A): %v", err)
		}
	}
	c.Pump()
	st, err := owner.server().SessionJournalStats(localID)
	if err != nil {
		t.Fatalf("SessionJournalStats: %v", err)
	}
	if st.Unacked != 0 || st.Retained == 0 {
		t.Fatalf("phase A not fully acked with results: %+v", st)
	}
	if _, entries := c.buddyFor(owner).server().ReplicaStats(); entries == 0 {
		t.Fatal("acked session left no replica entries — results are not replicated")
	}

	// The client consumes everything phase A emitted; its cursor now
	// sits at the dead incarnation's sequence watermark.
	errStop := errors.New("drop connection")
	var first []serve.ResultEvent
	err = cl.StreamResults(context.Background(), snap.ID, 0, func(ev serve.ResultEvent) error {
		first = append(first, ev)
		if len(first) == st.Retained {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("pass 1 err = %v, want errStop", err)
	}
	cursor := first[len(first)-1].Seq
	if cursor < st.Seq {
		t.Fatalf("cursor %d below journal watermark %d", cursor, st.Seq)
	}

	if err := c.KillNode(owner.name); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	c.ProbeNow()

	// The resumed journal must start past the dead incarnation's
	// watermark, not at zero.
	rt = c.tab.Load().lookup(snap.ID)
	newNode, newLocal := rt.node, rt.localID
	nst, err := newNode.server().SessionJournalStats(newLocal)
	if err != nil {
		t.Fatalf("SessionJournalStats after failover: %v", err)
	}
	if nst.Seq < st.Seq {
		t.Fatalf("resumed journal seq %d below dead watermark %d — seqs will recycle", nst.Seq, st.Seq)
	}
	if nst.Retained != st.Retained {
		t.Fatalf("resumed ring retained %d results, dead node had %d", nst.Retained, st.Retained)
	}

	// Post-failover work must reach the client's existing cursor
	// gaplessly: every new result sorts strictly after it.
	if _, err := cl.SendEvents(snap.ID, stream.Slice(60_000, 120_000)); err != nil {
		t.Fatalf("SendEvents after failover: %v", err)
	}
	c.Pump()
	if _, err := cl.CloseSession(snap.ID); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	var second []serve.ResultEvent
	err = cl.StreamResults(context.Background(), snap.ID, cursor, func(ev serve.ResultEvent) error {
		second = append(second, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("pass 2: %v", err)
	}
	if len(second) == 0 {
		t.Fatal("post-failover results invisible to the resumed cursor — sequence numbers were recycled")
	}
	for i, ev := range second {
		if ev.Seq <= cursor {
			t.Fatalf("result %d seq %d not after cursor %d", i, ev.Seq, cursor)
		}
		if i > 0 && ev.Seq <= second[i-1].Seq {
			t.Fatalf("sequence not strictly increasing at %d", i)
		}
	}
	// A from-zero reader sees the restored pre-kill results too.
	var full []serve.ResultEvent
	if err := cl.StreamResults(context.Background(), snap.ID, 0, func(ev serve.ResultEvent) error {
		full = append(full, ev)
		return nil
	}); err != nil {
		t.Fatalf("full read: %v", err)
	}
	if len(full) != len(first)+len(second) {
		t.Fatalf("full read %d events, want restored %d + new %d", len(full), len(first), len(second))
	}
}

// TestFailoverFallsBackWhenBuddyDraining pins the buddy-unavailable
// path: when the node holding the replicas cannot host the resumed
// session (it is draining), failover must take the replicas anyway and
// replay them on a placed survivor instead of shedding the frames or
// losing the session.
func TestFailoverFallsBackWhenBuddyDraining(t *testing.T) {
	cfg := Config{Nodes: specs(t, "xavier:3")}
	cfg.Node.QueueCap = 4096
	cfg.Node.ManualDrain = true
	cfg.Node.Journal = true
	c, cl, stop := newTestCluster(t, cfg)
	defer stop()

	snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 31, 100_000)
	var queued uint64
	for _, ch := range chunks(stream, 100_000, 25_000) {
		res, err := cl.SendEvents(snap.ID, ch)
		if err != nil {
			t.Fatalf("SendEvents: %v", err)
		}
		queued = uint64(res.QueueLen)
	}
	if queued == 0 {
		t.Fatal("nothing queued before the kill")
	}
	rt := c.tab.Load().lookup(snap.ID)
	owner, buddy := rt.node, rt.buddy
	if buddy == nil {
		t.Fatal("no buddy after journaled ingest")
	}

	// The buddy drains (its replica store survives — only its sessions
	// move), then the owner dies: a concurrent drain+kill.
	if err := c.DrainNode(buddy.name); err != nil {
		t.Fatalf("DrainNode(buddy): %v", err)
	}
	if err := c.KillNode(owner.name); err != nil {
		t.Fatalf("KillNode(owner): %v", err)
	}
	c.ProbeNow()

	got, err := cl.Session(snap.ID)
	if err != nil {
		t.Fatalf("Session after failover: %v", err)
	}
	if got.State != "active" {
		t.Fatalf("session lost despite a surviving replica: %+v", got)
	}
	if got.Node == owner.name || got.Node == buddy.name {
		t.Fatalf("session landed on %s, want the third node", got.Node)
	}
	h := c.Health()
	if h.FailoverShedFrames != 0 {
		t.Fatalf("shed %d frames with replicas in hand, want 0", h.FailoverShedFrames)
	}
	if h.FailoverRecoveredFrames < queued {
		t.Fatalf("recovered %d frames, want >= %d queued", h.FailoverRecoveredFrames, queued)
	}
	if h.LostSessions != 0 {
		t.Fatalf("lost %d sessions, want 0", h.LostSessions)
	}

	// The resumed session keeps serving on the fallback node.
	c.Pump()
	fin, err := cl.CloseSession(snap.ID)
	if err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if fin.State != "closed" || fin.RawFramesDone == 0 {
		t.Fatalf("final snapshot: %+v", fin)
	}
}

// TestStaleReplicationDropped pins the epoch guard: replication that
// raced a failover sweep (the chunk went into the dead incarnation,
// the sweep took the replica log first) must be dropped, not appended
// — a stale old-incarnation entry in the buddy store would replay
// duplicate chunks into a later failover.
func TestStaleReplicationDropped(t *testing.T) {
	cfg := Config{Nodes: specs(t, "xavier:2")}
	cfg.Node.QueueCap = 4096
	cfg.Node.ManualDrain = true
	cfg.Node.Journal = true
	c, cl, stop := newTestCluster(t, cfg)
	defer stop()

	snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 37, 60_000)
	res, err := cl.SendEvents(snap.ID, stream.Slice(0, 30_000))
	if err != nil {
		t.Fatalf("SendEvents: %v", err)
	}
	stale := c.tab.Load() // the table the late replication was routed by
	rt := stale.lookup(snap.ID)
	owner := rt.node

	if err := c.KillNode(owner.name); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	c.ProbeNow() // bumps the epoch, takes and replays the replica log

	// A replication captured before the kill arrives late: it must see
	// the bumped epoch and drop instead of stranding a stale entry.
	late := serve.IngestResult{Seq: res.Seq + 1}
	c.replicate(stale, rt, serve.StreamChunk(stream.Slice(30_000, 60_000)), late)
	for _, n := range c.nodes {
		if sessions, entries := n.server().ReplicaStats(); sessions != 0 || entries != 0 {
			t.Fatalf("stale replication stranded %d entries on %s", entries, n.name)
		}
	}
	if rt := c.tab.Load().lookup(snap.ID); rt.buddy != nil {
		t.Fatalf("stale replication re-homed the buddy to %s", rt.buddy.name)
	}
}

// TestNoSurvivorsLosesSessions kills every node and checks sessions
// are reported lost rather than wedged.
func TestNoSurvivorsLosesSessions(t *testing.T) {
	c, cl, stop := newTestCluster(t, Config{Nodes: specs(t, "xavier:1")})
	defer stop()
	snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if err := c.KillNode("xavier0"); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	c.ProbeNow()
	h := c.Health()
	if h.Status != "down" || h.LostSessions != 1 {
		t.Fatalf("health = %+v", h)
	}
	got, err := cl.Session(snap.ID)
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if got.State != "closed" {
		t.Fatalf("lost session state %q", got.State)
	}
	// Ingest into a lost session must be refused, not black-holed on
	// the dead node.
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 5, 50_000)
	if _, err := cl.SendEvents(snap.ID, stream); err == nil {
		t.Fatal("ingest into lost session succeeded")
	}
	// Creating with no alive nodes fails as a 503, not a bad request.
	if _, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1}); err == nil {
		t.Fatal("create with no alive nodes succeeded")
	} else if !strings.Contains(err.Error(), "503") {
		t.Fatalf("no-nodes create error not a 503: %v", err)
	}
}

// TestAdminEndpoints exercises kill/drain/nodes over HTTP.
func TestAdminEndpoints(t *testing.T) {
	tc, stop := newTestClusterURL(t, Config{Nodes: specs(t, "xavier:2")})
	defer stop()
	post := func(path string) int {
		resp, err := http.Post(tc.base+path, "", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/nodes/xavier0/drain"); code != 200 {
		t.Fatalf("drain: %d", code)
	}
	if code := post("/v1/nodes/xavier1/kill"); code != 200 {
		t.Fatalf("kill: %d", code)
	}
	if code := post("/v1/nodes/ghost/kill"); code != 404 {
		t.Fatalf("kill ghost: %d", code)
	}
	resp, err := http.Get(tc.base + "/v1/nodes")
	if err != nil {
		t.Fatalf("GET /v1/nodes: %v", err)
	}
	var nodes []NodeHealth
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatalf("decode nodes: %v", err)
	}
	resp.Body.Close()
	if len(nodes) != 2 || nodes[0].State != "draining" || nodes[1].State != "dead" {
		t.Fatalf("nodes = %+v", nodes)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := New(Config{Nodes: []NodeSpec{{Platform: "xavier"}}, Policy: "bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := New(Config{Nodes: []NodeSpec{{Platform: "tpu"}}, ProbeInterval: -1}); err == nil {
		t.Fatal("unknown platform accepted")
	}
	if _, err := New(Config{Nodes: []NodeSpec{
		{Name: "a", Platform: "xavier"}, {Name: "a", Platform: "orin"},
	}, ProbeInterval: -1}); err == nil {
		t.Fatal("duplicate node name accepted")
	}
}
