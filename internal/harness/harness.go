package harness

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"evedge/internal/cluster"
	"evedge/internal/events"
	"evedge/internal/obs"
	"evedge/internal/sched"
	"evedge/internal/serve"
)

// driver abstracts the system under test: the sharded fleet or a
// single node. Everything runs synchronously on the caller's
// goroutine.
type driver interface {
	create(cfg serve.SessionConfig) (serve.SessionSnapshot, error)
	ingest(id string, chunk *events.Stream) error
	closeSession(id string) (serve.SessionSnapshot, error)
	pump()
	probe()
	chaos(kind int, name string) error
	totals() serve.SessionTotals
	counters() (failovers, shed, recovered, lost, migrations uint64)
	schedStats() sched.Stats
	nodes() []NodeSample
	stages() []obs.StageSummary
	writeTrace(w io.Writer) error
	close()
}

// clusterDriver runs the scenario against an embedded fleet.
type clusterDriver struct{ c *cluster.Cluster }

func (d *clusterDriver) create(cfg serve.SessionConfig) (serve.SessionSnapshot, error) {
	return d.c.CreateSession(cfg)
}
func (d *clusterDriver) ingest(id string, chunk *events.Stream) error {
	_, err := d.c.Ingest(id, serve.StreamChunk(chunk))
	return err
}
func (d *clusterDriver) closeSession(id string) (serve.SessionSnapshot, error) {
	return d.c.CloseSession(id)
}
func (d *clusterDriver) pump()  { d.c.Pump() }
func (d *clusterDriver) probe() { d.c.ProbeNow() }
func (d *clusterDriver) chaos(kind int, name string) error {
	switch kind {
	case actKill:
		return d.c.KillNode(name)
	case actDrain:
		return d.c.DrainNode(name)
	case actRevive:
		return d.c.ReviveNode(name)
	case actUndrain:
		return d.c.UndrainNode(name)
	}
	return fmt.Errorf("harness: unknown chaos kind %d", kind)
}
func (d *clusterDriver) totals() serve.SessionTotals { return d.c.FleetTotals() }
func (d *clusterDriver) schedStats() sched.Stats     { return d.c.SchedTotals() }
func (d *clusterDriver) counters() (uint64, uint64, uint64, uint64, uint64) {
	h := d.c.Health()
	return h.FailoverSessions, h.FailoverShedFrames, h.FailoverRecoveredFrames, h.LostSessions, h.RebalanceMigrations
}
func (d *clusterDriver) nodes() []NodeSample {
	stats := d.c.NodeStats()
	h := d.c.Health()
	out := make([]NodeSample, len(stats))
	for i, st := range stats {
		out[i] = NodeSample{
			Name:           st.Name,
			Platform:       st.Platform,
			State:          st.State,
			Sessions:       h.Nodes[i].SessionsActive,
			Utilization:    h.Nodes[i].Load.Utilization,
			ResidualQueued: st.ResidualQueued,
			ResidualAgg:    st.ResidualAgg,
			RetiredQueued:  st.RetiredQueued,
			RetiredAgg:     st.RetiredAgg,
		}
	}
	return out
}
func (d *clusterDriver) stages() []obs.StageSummary {
	return obs.Summaries(d.c.StageHists())
}
func (d *clusterDriver) writeTrace(w io.Writer) error { return d.c.WriteTrace(w) }
func (d *clusterDriver) close()                       { d.c.Close() }

// serveDriver runs the scenario against one embedded server — the
// same engine exercising the single-node path with no router between.
type serveDriver struct{ s *serve.Server }

func (d *serveDriver) create(cfg serve.SessionConfig) (serve.SessionSnapshot, error) {
	sess, err := d.s.CreateSession(cfg)
	if err != nil {
		return serve.SessionSnapshot{}, err
	}
	return d.s.Snapshot(sess.ID)
}
func (d *serveDriver) ingest(id string, chunk *events.Stream) error {
	_, err := d.s.Ingest(id, chunk)
	return err
}
func (d *serveDriver) closeSession(id string) (serve.SessionSnapshot, error) {
	snap, err := d.s.CloseSession(id)
	if err != nil {
		return serve.SessionSnapshot{}, err
	}
	return *snap, nil
}
func (d *serveDriver) pump()  { d.s.Pump() }
func (d *serveDriver) probe() {}
func (d *serveDriver) chaos(kind int, name string) error {
	return fmt.Errorf("harness: node action on a single-server scenario")
}
func (d *serveDriver) totals() serve.SessionTotals { return d.s.Totals() }
func (d *serveDriver) schedStats() sched.Stats     { return d.s.SchedStats() }
func (d *serveDriver) counters() (uint64, uint64, uint64, uint64, uint64) {
	return 0, 0, 0, 0, 0
}
func (d *serveDriver) nodes() []NodeSample {
	ns := NodeSample{
		Name:        "server",
		Platform:    d.s.Platform().Name,
		State:       "up",
		Utilization: d.s.Load().Utilization,
	}
	for _, snap := range d.s.Snapshots() {
		if snap.State == "active" {
			ns.Sessions++
			ns.ResidualQueued += snap.QueueLen
			ns.ResidualAgg += snap.AggPending
		}
	}
	return []NodeSample{ns}
}
func (d *serveDriver) stages() []obs.StageSummary {
	return obs.Summaries(d.s.StageHists())
}
func (d *serveDriver) writeTrace(w io.Writer) error { return d.s.WriteTrace(w) }
func (d *serveDriver) close()                       { d.s.Close() }

// hsess is one scripted client stream: its fleet session ID plus the
// seeded generator state producing its event chunks.
type hsess struct {
	id   string
	spec SessionSpec
	rng  *rand.Rand
	w, h int
}

// chunk generates the session's events for [t0, t1) at the given rate
// gain: uniformly spread, time-sorted, seeded per session.
func (hs *hsess) chunk(t0, t1 int64, gain float64) *events.Stream {
	s := events.NewStream(hs.w, hs.h)
	n := int(hs.spec.RateHz * gain * float64(t1-t0) / 1e6)
	if n <= 0 {
		return s
	}
	span := t1 - t0
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = t0 + hs.rng.Int63n(span)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	for _, t := range ts {
		pol := events.On
		if hs.rng.Intn(2) == 0 {
			pol = events.Off
		}
		s.Append(events.Event{
			X: uint16(hs.rng.Intn(hs.w)), Y: uint16(hs.rng.Intn(hs.h)),
			TS: t, Pol: pol,
		})
	}
	return s
}

// runner is one scenario execution.
type runner struct {
	sc     Script
	seed   int64
	drv    driver
	plan   *plan
	nowUS  int64 // virtual clock, microseconds since start
	open   []*hsess
	nextID int64 // arrival ordinal, seeds each session's RNG
	res    *Result
}

// Run executes the script with the seed and returns the recorded
// timeline. The run is fully deterministic: same (script, seed) pair,
// byte-identical Encode output.
func Run(sc Script, seed int64) (*Result, error) {
	return RunTraced(sc, seed, nil)
}

// RunTraced is Run with an optional Chrome trace sink: when traceW is
// non-nil (and the script enables tracing), the merged trace-event
// JSON is written there after teardown, before the system under test
// shuts down. Under the virtual clock the trace bytes are as
// deterministic as the timeline: same (script, seed), same bytes.
func RunTraced(sc Script, seed int64, traceW io.Writer) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.normalized()
	r := &runner{sc: sc, seed: seed, plan: compile(sc)}
	r.res = &Result{
		Scenario:   sc.Name,
		Seed:       seed,
		TickUS:     sc.TickUS,
		Ticks:      sc.TotalTicks(),
		CooldownUS: sc.RebalanceCooldownUS,
		SampleUS:   int64(sc.SampleEvery) * sc.TickUS,
		NoKills:    true,
	}
	for _, ph := range sc.Phases {
		if len(ph.Kill) > 0 {
			r.res.NoKills = false
		}
	}

	nodeCfg := serve.DefaultConfig()
	nodeCfg.ManualDrain = true
	nodeCfg.Mapper = serve.MapperPolicy(sc.Mapper)
	nodeCfg.BatchMax = sc.BatchMax
	if sc.Adapt {
		nodeCfg.Adapt = serve.AdaptConfig{Retune: true}
	}
	if sc.Trace {
		nodeCfg.Trace = obs.Config{Enabled: true, Node: "server"}
	}
	nodeCfg.Journal = sc.Journal
	if sc.Nodes == "" {
		srv, err := serve.New(nodeCfg)
		if err != nil {
			return nil, err
		}
		r.drv = &serveDriver{s: srv}
	} else {
		specs, err := cluster.ParseNodeSpecs(sc.Nodes)
		if err != nil {
			return nil, err
		}
		c, err := cluster.New(cluster.Config{
			Nodes:             specs,
			Policy:            cluster.PlacementPolicy(sc.Policy),
			ProbeInterval:     -1, // the runner probes explicitly
			RebalanceGap:      sc.RebalanceGap,
			RebalanceCooldown: time.Duration(sc.RebalanceCooldownUS) * time.Microsecond,
			Elapsed:           func() time.Duration { return time.Duration(r.nowUS) * time.Microsecond },
			Node:              nodeCfg,
		})
		if err != nil {
			return nil, err
		}
		r.drv = &clusterDriver{c: c}
	}
	defer r.drv.close()

	if err := r.loop(); err != nil {
		return nil, err
	}
	if sc.Trace {
		r.res.Stages = r.drv.stages()
		if traceW != nil {
			if err := r.drv.writeTrace(traceW); err != nil {
				return nil, fmt.Errorf("harness: writing trace: %w", err)
			}
		}
	}
	return r.res, nil
}

// loop is the tick engine: actions, traffic, pump, probe, sample.
func (r *runner) loop() error {
	total := r.sc.TotalTicks()
	for tick := 0; tick < total; tick++ {
		r.nowUS = int64(tick) * r.sc.TickUS
		for _, a := range r.plan.at(tick) {
			if err := r.apply(a); err != nil {
				return err
			}
		}
		gain := r.plan.gains[tick]
		for _, hs := range r.open {
			chunk := hs.chunk(r.nowUS, r.nowUS+r.sc.TickUS, gain)
			if chunk.Len() == 0 {
				continue
			}
			if err := r.drv.ingest(hs.id, chunk); err != nil {
				return fmt.Errorf("harness: tick %d ingest %s: %w", tick, hs.id, err)
			}
		}
		if (tick+1)%r.sc.PumpEvery == 0 {
			r.drv.pump()
		}
		r.drv.probe()
		if (tick+1)%r.sc.SampleEvery == 0 {
			r.record("sample", "")
		}
	}
	// Teardown: close every open session (flushes aggregators), pump
	// the stragglers, take the terminal observation.
	r.nowUS = int64(total) * r.sc.TickUS
	for len(r.open) > 0 {
		if err := r.depart(1); err != nil {
			return err
		}
	}
	r.drv.pump()
	r.res.Final = r.entry("final", "")
	return nil
}

// apply executes one plan action and records it.
func (r *runner) apply(a action) error {
	switch a.kind {
	case actPhase:
		r.record("phase", "phase "+a.arg)
	case actKill, actDrain, actRevive, actUndrain:
		if err := r.drv.chaos(a.kind, a.arg); err != nil {
			return err
		}
		// Chaos takes effect via the probe pass, immediately — the
		// scripted operator wants the consequence on this tick's record.
		r.drv.probe()
		r.record("action", [...]string{actKill: "kill ", actDrain: "drain ", actRevive: "revive ", actUndrain: "undrain "}[a.kind]+a.arg)
	case actDepart:
		if err := r.depart(a.n); err != nil {
			return err
		}
	case actArrive:
		for i := 0; i < a.n; i++ {
			if err := r.arrive(); err != nil {
				return err
			}
		}
	}
	return nil
}

// arrive creates the next session from the mix.
func (r *runner) arrive() error {
	spec := r.sc.Mix[int(r.nextID)%len(r.sc.Mix)]
	snap, err := r.drv.create(serve.SessionConfig{
		Network:    spec.Network,
		Level:      spec.Level,
		QueueCap:   spec.QueueCap,
		DropPolicy: spec.DropPolicy,
	})
	if err != nil {
		return fmt.Errorf("harness: creating session (%s): %w", spec.Network, err)
	}
	hs := &hsess{
		id:   snap.ID,
		spec: spec,
		rng:  rand.New(rand.NewSource(r.seed ^ (r.nextID+1)*0x1E3779B97F4A7C15)),
		w:    r.sc.SensorW,
		h:    r.sc.SensorH,
	}
	r.nextID++
	r.open = append(r.open, hs)
	node := ""
	if snap.Node != "" {
		node = " -> " + snap.Node
	}
	r.record("action", fmt.Sprintf("create %s (%s/%d)%s", snap.ID, spec.Network, spec.Level, node))
	return nil
}

// depart closes the n oldest open sessions and records their finals.
func (r *runner) depart(n int) error {
	for i := 0; i < n && len(r.open) > 0; i++ {
		hs := r.open[0]
		r.open = r.open[1:]
		snap, err := r.drv.closeSession(hs.id)
		if err != nil {
			return fmt.Errorf("harness: closing session %s: %w", hs.id, err)
		}
		r.res.Sessions = append(r.res.Sessions, SessionFinal{
			ID:              snap.ID,
			Network:         snap.Network,
			Level:           snap.Level,
			State:           snap.State,
			Node:            snap.Node,
			EventsIn:        snap.EventsIn,
			FramesIn:        snap.FramesIn,
			FramesDropped:   snap.FramesDropped,
			RawFramesDone:   snap.RawFramesDone,
			Failovers:       snap.Failovers,
			Migrations:      snap.Migrations,
			ShedFrames:      snap.FailoverShedFrames,
			RecoveredFrames: snap.FailoverRecoveredFrames,
			Retunes:         snap.Retunes,
			Remaps:          snap.Remaps,
			MeanLatencyUS:   snap.Latency.MeanUS,
			P99LatencyUS:    snap.Latency.P99US,
		})
		r.record("action", "close "+hs.id)
	}
	return nil
}

// entry builds one timeline record from the current fleet observation.
func (r *runner) entry(kind, note string) Entry {
	fo, shed, rec, lost, mig := r.drv.counters()
	st := r.drv.schedStats()
	return Entry{
		TUS:             r.nowUS,
		Kind:            kind,
		Note:            note,
		Sessions:        len(r.open),
		Totals:          totalsSample(r.drv.totals()),
		Failovers:       fo,
		ShedFrames:      shed,
		Recovered:       rec,
		Lost:            lost,
		Migrations:      mig,
		SchedSubmitted:  st.Submitted,
		SchedDispatched: st.Dispatched,
		SchedDispatches: st.Dispatches,
		Nodes:           r.drv.nodes(),
	}
}

func (r *runner) record(kind, note string) {
	r.res.Timeline = append(r.res.Timeline, r.entry(kind, note))
}
