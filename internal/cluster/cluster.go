// Package cluster shards the Ev-Edge serving layer across a fleet of
// heterogeneous nodes. A Cluster embeds N serve.Server instances (each
// its own simulated platform — Xavier, Orin, mixed) behind a router
// that owns session placement and proxies the whole session lifecycle
// (create / ingest / poll / close) to the owning node over the same
// HTTP API a single evserve node speaks, so clients and evload work
// against a cluster unchanged.
//
// Placement is load-aware (least-loaded by capacity-weighted active
// session cost from each node's load signal) or deterministic (hash of
// the fleet-wide session ID over the alive node set). A probe loop
// watches node health; when a node is killed or drained, the router
// fails its sessions over to surviving nodes: the session is
// re-created at the same network/level on a new node and keeps its
// fleet-wide ID. A drain closes sessions gracefully first, so queued
// frames execute and nothing is shed.
//
// Ingest takes a node's one path: serve.IngestHandler reads the body,
// and Cluster.Ingest hands the chunk to the owner's Server.IngestChunk.
// With the per-node journal enabled (serve.Config.Journal), a kill is
// lossless too: every ingested chunk is replicated to a deterministic
// buddy node (the next alive node after the owner in construction
// order) as the EVAR bytes the client sent, and trimmed as its frames
// complete, and every emitted result follows it there (carrying the
// session's sequence watermark and the catch-up ring contents); on a
// kill, failover resumes the session on the buddy (serve.Server.Replay)
// by replaying the unacknowledged chunk entries' records through that
// same path — queued frames are recovered (failover_recovered_frames)
// instead of shed — while replicated results refill the resumed
// catch-up ring and push the sequence counter past everything the dead
// incarnation handed out, so a streaming client's since=<seq> cursor
// stays gapless across the kill. Without the journal, frames still sitting
// in the dead node's ingest queues are shed and counted
// (failover_shed_frames).
// Per-session counters restart after a migration — the fleet-level
// counters accumulate across it.
//
// # Lock order
//
// A goroutine that holds several of the cluster's mutexes at once takes
// them in this order, never against it:
//
//	Cluster.adminMu → Cluster.migMu → route.repMu → Cluster.mu
//	Cluster.adminMu → node.retiredMu
//
// What each guards, and why it sits where it does:
//
//   - adminMu serializes node state transitions; revive and drain run
//     their failover or migration sweep under it, so it comes first.
//   - migMu serializes the sweeps (failover, drain, load rebalance). A
//     sweep takes one route's repMu at a time, never two.
//   - repMu serializes one route's replication (chunk and result
//     appends, buddy re-homes, the drop on close) against a sweep of
//     that route. The route's epoch is read and written under mu, but a
//     sweep or rebalance bumps it only while also holding repMu, so a
//     replication that holds repMu sees either the old owner with the
//     old epoch or the new owner with the new one.
//   - mu guards the routing table and is innermost: nothing else is
//     locked, and no node server is called, while it is held.
//   - retiredMu guards a node's retired incarnations and is a leaf.
//
// A node server call that completes queued frames fires the result
// hook, which takes the repMu of the route each result belongs to.
// CloseSession and Close pump the node's scheduler on the calling
// goroutine and so complete any session's queued work, not only their
// own. So no node close runs under a repMu: moveRoute's graceful close
// runs before it takes repMu and its orphan undo after it lets go, and
// the rebalance closes the hot copy after it lets go. A replay under
// repMu ingests into a session the route does not point at yet, so a
// result it fires on the sweep's goroutine finds no route and takes no
// lock.
package cluster

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"evedge/internal/control"
	"evedge/internal/hw"
	"evedge/internal/nn"
	"evedge/internal/obs"
	"evedge/internal/sched"
	"evedge/internal/serve"
)

// Node states.
const (
	stateUp int32 = iota
	stateDraining
	stateDead
)

// NodeSpec describes one fleet node.
type NodeSpec struct {
	// Name identifies the node in routing, health and metrics; empty
	// auto-names it "<platform><index>".
	Name string
	// Platform is a built-in platform preset name (hw.Platforms).
	Platform string
	// Workers sizes the node's worker pool (0 = serve default).
	Workers int
}

// DefaultNodeName is the name New gives the i-th node when its spec
// leaves Name empty — the single source of the "<platform><index>"
// convention admin endpoints and scenario scripts address nodes by.
func DefaultNodeName(spec NodeSpec, i int) string {
	if spec.Name != "" {
		return spec.Name
	}
	return fmt.Sprintf("%s%d", strings.ToLower(spec.Platform), i)
}

// ParseNodeSpecs parses the -nodes flag syntax: a comma-separated list
// of "platform[:count]" groups, e.g. "xavier:4,orin:4" for four Xavier
// nodes plus four Orin nodes, or "xavier" for a single node.
func ParseNodeSpecs(s string) ([]NodeSpec, error) {
	var specs []NodeSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name := part
		count := 1
		if i := strings.IndexByte(part, ':'); i >= 0 {
			name = part[:i]
			n, err := strconv.Atoi(part[i+1:])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("cluster: bad node count in %q", part)
			}
			count = n
		}
		if _, err := hw.PlatformByName(name); err != nil {
			return nil, err
		}
		for i := 0; i < count; i++ {
			specs = append(specs, NodeSpec{Platform: strings.ToLower(name)})
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: no node specs in %q", s)
	}
	return specs, nil
}

// Config tunes the cluster.
type Config struct {
	// Nodes lists the fleet members (at least one).
	Nodes []NodeSpec
	// Policy places new sessions: PolicyLeastLoaded (default) or
	// PolicyHash.
	Policy PlacementPolicy
	// ProbeInterval paces the health-probe loop that detects failed
	// nodes and triggers failover (default 1s; negative disables the
	// loop — ProbeNow still probes on demand).
	ProbeInterval time.Duration
	// RebalanceGap enables load-driven session migration: when the
	// capacity-weighted utilization spread between the hottest and the
	// coldest alive node exceeds this gap, the probe loop migrates one
	// session from hot to cold (gracefully — queued frames execute
	// before the move). 0 disables; the same node-load signal that
	// places new sessions drives it.
	RebalanceGap float64
	// RebalanceCooldown is the minimum wall time between load-driven
	// migrations (default 5s), bounding migration churn.
	RebalanceCooldown time.Duration
	// RebalanceQueueDepth lets the rebalancer trigger on the spread of
	// live scheduler queue depths across nodes (pending invocations,
	// max - min) even when the utilization gap sits below RebalanceGap.
	// 0 disables the queue-depth trigger; it only applies while
	// RebalanceGap > 0 (the rebalancer itself must be enabled).
	RebalanceQueueDepth int
	// Elapsed reports time since the cluster started, feeding the load
	// rebalancer's cooldown gate. nil uses the wall clock; a
	// deterministic driver (the scenario harness) injects its virtual
	// clock so migration pacing replays identically under one seed.
	Elapsed func() time.Duration
	// Node is the base per-node server config; Platform is overridden
	// by each NodeSpec, Workers only when the spec sets it.
	Node serve.Config
}

// node is one fleet member: an embedded server plus liveness state.
// The server pointer is swappable: reviving a killed node installs a
// fresh incarnation while the dead one is retired — kept, not dropped,
// because its stranded sessions and counters stay part of the fleet's
// accounting (frame conservation, monotonic totals).
type node struct {
	name     string
	platform string
	cfg      serve.Config // per-node server config, reused by revive
	srv      atomic.Pointer[serve.Server]
	state    atomic.Int32

	retiredMu sync.Mutex
	retired   []*serve.Server
}

func (n *node) server() *serve.Server { return n.srv.Load() }

// incarnations returns every server the node has run, retired first,
// current last.
func (n *node) incarnations() []*serve.Server {
	n.retiredMu.Lock()
	out := append([]*serve.Server(nil), n.retired...)
	n.retiredMu.Unlock()
	return append(out, n.server())
}

func (n *node) alive() bool { return n.state.Load() == stateUp }
func (n *node) stateName() string {
	switch n.state.Load() {
	case stateDraining:
		return "draining"
	case stateDead:
		return "dead"
	}
	return "up"
}

// route maps a fleet-wide session ID to its current owner.
type route struct {
	extID   string
	cfg     serve.SessionConfig
	node    *node
	localID string
	closed  bool
	// buddy is the node holding the session's replicated journal
	// entries (nil until the first journaled ingest, or when no other
	// node is alive). Re-resolved on every replicated chunk so it
	// tracks fleet membership changes.
	buddy *node
	// repMu serializes the route's replication traffic — chunk and
	// result appends, buddy re-homes, the final drop on close —
	// against the failover/migration sweeps, which hold it across
	// take/replay/commit. An in-flight replication therefore either
	// lands before the sweep takes the replica log (and replays) or
	// runs after the commit and sees the bumped epoch.
	repMu sync.Mutex
	// epoch counts ownership flips (failover, drain, rebalance).
	// Replication captured under an older epoch is dropped instead of
	// appended: a chunk ingested into a node that died before its
	// replication ran must not strand a stale old-incarnation entry in
	// the buddy store, where a later failover would replay it into the
	// wrong incarnation. Guarded by Cluster.mu.
	epoch uint64
	// shedFrames accumulates ingest-queue frames lost to kill-failovers
	// of this session, surfaced so clients can account for the gap.
	shedFrames uint64
	// recoveredFrames accumulates frames regenerated by replaying the
	// replicated journal after kill-failovers of this session.
	recoveredFrames uint64
	failovers       int
	// migrations counts load-driven moves to another node (graceful —
	// nothing shed, but per-session counters restart like a failover).
	migrations int
}

// Cluster is the sharded serving fleet: embedded nodes plus the
// routing state. Create one with New, mount Handler on a listener,
// Close on shutdown.
type Cluster struct {
	cfg   Config
	nodes []*node
	start time.Time

	// mu guards the routing table; migMu serializes failover and drain
	// migrations so a node's sessions move exactly once; adminMu
	// serializes node state transitions (kill/drain/revive/undrain) so
	// concurrent admin requests cannot interleave a transition — e.g.
	// two revives double-building servers, or a drain/undrain pair
	// leaving the node up but refusing sessions.
	mu      sync.Mutex
	routes  map[string]*route
	order   []string // external IDs in creation order
	migMu   sync.Mutex
	adminMu sync.Mutex

	nextID       atomic.Uint64
	lostSessions atomic.Uint64
	migrations   atomic.Uint64

	// Failover accounting lives on the routes (live counters) plus the
	// monotonic closed roll-up below, all guarded by mu: when a
	// failed-over session closes, its counters move from the live sum
	// into closed* in the same critical section, so the fleet totals
	// (evcluster_failover_*_total) can never under-count across a close
	// — the bug scattered per-snapshot accounting had.
	closedFailovers uint64
	closedShed      uint64
	closedRecovered uint64

	// rebalancer gates load-driven migrations (nil when disabled). It
	// consumes the same node-load signals placement uses, in wall-time
	// microseconds since start.
	rebalancer *control.RemapPlanner

	// tracer records fleet-plane instants (failovers, migrations, node
	// state changes, router hops) on the "fleet" track; nil when the
	// per-node trace config is off. Per-node lifecycle spans live in
	// each node's own tracer; GET /v1/trace merges all of them.
	tracer *obs.Tracer

	probeStop chan struct{}
	probeOnce sync.Once
	probeWG   sync.WaitGroup

	muxOnce sync.Once
	mux     *http.ServeMux
}

// New validates cfg, starts every node's worker pool and the health
// probe loop, and returns the cluster.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	policy, err := ParsePlacementPolicy(string(cfg.Policy))
	if err != nil {
		return nil, err
	}
	cfg.Policy = policy
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	c := &Cluster{
		cfg:       cfg,
		routes:    map[string]*route{},
		start:     time.Now(),
		probeStop: make(chan struct{}),
	}
	if cfg.Node.Trace.Enabled {
		tcfg := cfg.Node.Trace
		tcfg.Node = "router"
		c.tracer = obs.NewTracer(tcfg)
	}
	if cfg.RebalanceGap > 0 {
		cooldown := cfg.RebalanceCooldown
		if cooldown <= 0 {
			cooldown = 5 * time.Second
		}
		c.rebalancer = control.NewRemapPlanner(control.RemapConfig{
			ImbalanceTh: cfg.RebalanceGap,
			CooldownUS:  float64(cooldown.Microseconds()),
			QueueTh:     cfg.RebalanceQueueDepth,
		})
	}
	names := map[string]bool{}
	for i, spec := range cfg.Nodes {
		platform, err := hw.PlatformByName(spec.Platform)
		if err != nil {
			c.closeNodes()
			return nil, err
		}
		name := DefaultNodeName(spec, i)
		if names[name] {
			c.closeNodes()
			return nil, fmt.Errorf("cluster: duplicate node name %q", name)
		}
		names[name] = true
		ncfg := cfg.Node
		ncfg.Platform = platform
		if spec.Workers > 0 {
			ncfg.Workers = spec.Workers
		}
		// Each node's trace lanes carry its own name; the config is kept
		// on the node, so a revived incarnation inherits it.
		ncfg.Trace.Node = name
		n := &node{name: name, platform: spec.Platform}
		if ncfg.Journal {
			// Journaled results replicate to the session's buddy the same
			// way chunks do, so a failover can re-seed the resumed
			// journal's sequence counter and catch-up ring.
			ncfg.OnResult = c.resultHook(n)
		}
		n.cfg = ncfg
		srv, err := serve.New(ncfg)
		if err != nil {
			c.closeNodes()
			return nil, fmt.Errorf("cluster: node %s: %w", name, err)
		}
		n.srv.Store(srv)
		c.nodes = append(c.nodes, n)
	}
	if cfg.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop(cfg.ProbeInterval)
	}
	return c, nil
}

// closeNodes stops every constructed node (New error paths, Close),
// retired incarnations included.
func (c *Cluster) closeNodes() {
	for _, n := range c.nodes {
		for _, srv := range n.incarnations() {
			srv.Close()
		}
	}
}

// elapsed is time since start on the configured clock (wall by
// default; the harness injects its virtual clock).
func (c *Cluster) elapsed() time.Duration {
	if c.cfg.Elapsed != nil {
		return c.cfg.Elapsed()
	}
	return time.Since(c.start)
}

// mark records one fleet-plane trace instant at the cluster clock.
// Deterministic replay holds exactly when the harness injects its
// virtual clock via Config.Elapsed; on the wall clock the instants
// still order correctly, they just carry wall timestamps.
func (c *Cluster) mark(name string, count int64) {
	c.tracer.Instant("fleet", obs.StageCtl, name, float64(c.elapsed().Microseconds()), count)
}

// WriteTrace renders the fleet's merged Chrome trace: the router's
// fleet track plus every node incarnation's lifecycle lanes, each
// under its own process group.
func (c *Cluster) WriteTrace(w io.Writer) error {
	if c.tracer == nil {
		return fmt.Errorf("cluster: tracing disabled (set Node.Trace.Enabled)")
	}
	tracers := []*obs.Tracer{c.tracer}
	for _, n := range c.nodes {
		for _, srv := range n.incarnations() {
			if t := srv.Tracer(); t != nil {
				tracers = append(tracers, t)
			}
		}
	}
	return obs.WriteChrome(w, tracers...)
}

// StageHists merges the per-stage latency histograms across every node
// incarnation — the fleet-wide stage breakdown. nil when tracing is
// off.
func (c *Cluster) StageHists() []obs.HistSnapshot {
	if c.tracer == nil {
		return nil
	}
	var all [][]obs.HistSnapshot
	for _, n := range c.nodes {
		for _, srv := range n.incarnations() {
			if h := srv.StageHists(); h != nil {
				all = append(all, h)
			}
		}
	}
	return obs.MergeHists(all...)
}

// Close stops the probe loop and every node's worker pool.
func (c *Cluster) Close() {
	c.probeOnce.Do(func() { close(c.probeStop) })
	c.probeWG.Wait()
	c.closeNodes()
}

// probeLoop periodically probes node health and fails over sessions
// stranded on dead nodes.
func (c *Cluster) probeLoop(interval time.Duration) {
	defer c.probeWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-t.C:
			c.ProbeNow()
		}
	}
}

// ProbeNow runs one health-probe pass: any dead or draining node that
// still owns routed sessions has them moved to surviving nodes (a
// create can race a kill or drain and land on a node the migration
// sweep already missed), then the load rebalancer gets one decision.
func (c *Cluster) ProbeNow() {
	for _, n := range c.nodes {
		switch n.state.Load() {
		case stateDead:
			c.failoverNode(n)
		case stateDraining:
			c.migrate(n, true)
		}
	}
	c.maybeRebalance()
}

// maybeRebalance consumes the node-load signals and, when the
// utilization spread between the hottest and the coldest alive node
// exceeds the configured gap (and the cooldown expired), migrates one
// session from hot to cold — the fleet-level analogue of the per-node
// NMP remap: placement tracks the load, not just session churn.
func (c *Cluster) maybeRebalance() {
	if c.rebalancer == nil {
		return
	}
	alive := c.aliveNodes(nil)
	if len(alive) < 2 {
		return
	}
	nowUS := float64(c.elapsed().Microseconds())
	loads := make([]serve.NodeLoad, len(alive))
	devs := make([]control.DeviceSignals, len(alive))
	for i, n := range alive {
		loads[i] = n.server().Load()
		// Queued is the node's live scheduler queue depth
		// (serve.NodeLoad.PendingInvocations) — the execution
		// scheduler's signal, gated by Config.RebalanceQueueDepth — so
		// the fleet rebalancer reacts to real queue pressure, not only
		// the static capacity-weighted session cost. BacklogUS stays 0:
		// the node's drain-time spread is cumulative over its lifetime
		// (it never decays once work completes), so comparing it
		// against the gate's time threshold would migrate sessions off
		// healthy idle fleets forever.
		devs[i] = control.DeviceSignals{
			Utilization: loads[i].Utilization,
			Queued:      loads[i].PendingInvocations,
		}
	}
	if !c.rebalancer.ShouldRemap(nowUS, devs) {
		return
	}
	if c.migrateForLoad(alive, loads) {
		c.rebalancer.Committed(nowUS, 0)
	} else {
		c.rebalancer.Done(nowUS)
	}
}

// migrateForLoad picks the session on the hottest node whose move to
// the coldest node most reduces the fleet's maximum utilization, and
// moves it gracefully (close on hot — queued frames execute — then
// re-create on cold under the same fleet-wide ID). Returns false when
// no move strictly improves the balance.
func (c *Cluster) migrateForLoad(alive []*node, loads []serve.NodeLoad) bool {
	hot, cold := 0, 0
	for i := range alive {
		if loads[i].Utilization > loads[hot].Utilization {
			hot = i
		}
		if loads[i].Utilization < loads[cold].Utilization {
			cold = i
		}
	}
	if alive[hot] == alive[cold] || loads[hot].CapacityMACs <= 0 || loads[cold].CapacityMACs <= 0 {
		return false
	}
	hotN, coldN := alive[hot], alive[cold]
	hotSrv, coldSrv := hotN.server(), coldN.server()

	c.mu.Lock()
	var candidates []*route
	for _, id := range c.order {
		rt := c.routes[id]
		if rt.node == hotN && !rt.closed {
			candidates = append(candidates, rt)
		}
	}
	c.mu.Unlock()

	curMax := loads[hot].Utilization
	var best *route
	bestMax := curMax
	for _, rt := range candidates {
		net, err := nn.ByName(rt.cfg.Network)
		if err != nil {
			continue
		}
		cost := float64(net.TotalMACs())
		hotAfter := loads[hot].Utilization - cost/loads[hot].CapacityMACs
		coldAfter := loads[cold].Utilization + cost/loads[cold].CapacityMACs
		newMax := hotAfter
		if coldAfter > newMax {
			newMax = coldAfter
		}
		if newMax < bestMax-1e-12 {
			bestMax = newMax
			best = rt
		}
	}
	if best == nil {
		return false
	}

	// Serialize with failover/drain sweeps so a session moves once.
	c.migMu.Lock()
	defer c.migMu.Unlock()
	c.mu.Lock()
	stillOurs := best.node == hotN && !best.closed
	oldID := best.localID
	c.mu.Unlock()
	if !stillOurs {
		return false
	}
	// Create-then-commit-then-close: the route flips to the new owner
	// before the old session closes, so concurrent ingest never lands in
	// a window where neither node owns the stream, and a failed create
	// leaves the session running on the hot node untouched.
	sess, err := coldSrv.CreateSession(best.cfg)
	if err != nil {
		return false
	}
	// The commit and the replica drop run under the route's replication
	// mutex: an in-flight replication for the hot incarnation either
	// lands before the drop (and is dropped with the rest) or waits and
	// then sees the bumped epoch.
	best.repMu.Lock()
	c.mu.Lock()
	if best.closed || best.node != hotN || best.localID != oldID {
		// A client close (or another sweep) won the race; undo ours.
		c.mu.Unlock()
		best.repMu.Unlock()
		_, _ = coldSrv.CloseSession(sess.ID)
		return false
	}
	best.epoch++
	best.node = coldN
	best.localID = sess.ID
	best.migrations++
	prevBuddy := best.buddy
	best.buddy = nil
	c.mu.Unlock()
	if prevBuddy != nil && prevBuddy.state.Load() != stateDead {
		// Stale replicas: the old incarnation's journal closes below with
		// every queued frame executed; its entries must not replay into
		// the re-created session.
		prevBuddy.server().ReplicaDrop(best.extID)
	}
	best.repMu.Unlock()
	// Graceful: the old session's queued frames execute during close.
	_, _ = hotSrv.CloseSession(oldID)
	c.migrations.Add(1)
	c.mark("rebalance:"+best.extID+":"+hotN.name+">"+coldN.name, 1)
	return true
}

// Node returns a fleet member by name.
func (c *Cluster) nodeByName(name string) (*node, error) {
	for _, n := range c.nodes {
		if n.name == name {
			return n, nil
		}
	}
	return nil, fmt.Errorf("cluster: no node %q", name)
}

// KillNode simulates a node failure: its worker pool stops and the
// node is marked dead. Queued frames on the node are lost; the next
// probe (or any request that hits the dead route) fails its sessions
// over to surviving nodes and counts the shed frames.
func (c *Cluster) KillNode(name string) error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	n, err := c.nodeByName(name)
	if err != nil {
		return err
	}
	if n.state.Swap(stateDead) == stateDead {
		return fmt.Errorf("cluster: node %q already dead", name)
	}
	n.server().Close()
	c.mark("kill:"+name, 1)
	return nil
}

// ReviveNode brings a killed node back: any session still routed to
// the dead incarnation is failed over first (so no route dangles into
// the new server), then a fresh server starts under the node's
// original config. The dead incarnation is retired, not discarded —
// its stranded sessions and counters stay part of the fleet's
// accounting, exactly like the pre-revive corpse did.
func (c *Cluster) ReviveNode(name string) error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	n, err := c.nodeByName(name)
	if err != nil {
		return err
	}
	if n.state.Load() != stateDead {
		return fmt.Errorf("cluster: node %q is %s, not dead", name, n.stateName())
	}
	c.failoverNode(n)
	srv, err := serve.New(n.cfg)
	if err != nil {
		return fmt.Errorf("cluster: reviving node %s: %w", name, err)
	}
	old := n.srv.Swap(srv)
	n.retiredMu.Lock()
	n.retired = append(n.retired, old)
	n.retiredMu.Unlock()
	n.state.Store(stateUp)
	c.mark("revive:"+name, 1)
	return nil
}

// UndrainNode returns a draining node to service: it accepts new
// sessions again. Sessions drained off it earlier stay where they
// landed; placement repopulates the node as traffic arrives.
func (c *Cluster) UndrainNode(name string) error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	n, err := c.nodeByName(name)
	if err != nil {
		return err
	}
	if !n.state.CompareAndSwap(stateDraining, stateUp) {
		return fmt.Errorf("cluster: node %q is %s, not draining", name, n.stateName())
	}
	n.server().SetDraining(false)
	c.mark("undrain:"+name, 1)
	return nil
}

// DrainNode gracefully migrates a node's sessions away: the node stops
// accepting new sessions, every routed session is closed on it (its
// queued frames execute — nothing is shed) and re-created on a
// surviving node under the same config, keeping its fleet-wide ID.
func (c *Cluster) DrainNode(name string) error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	n, err := c.nodeByName(name)
	if err != nil {
		return err
	}
	if !n.state.CompareAndSwap(stateUp, stateDraining) {
		return fmt.Errorf("cluster: node %q is %s", name, n.stateName())
	}
	n.server().SetDraining(true)
	c.mark("drain:"+name, 1)
	c.migrate(n, true)
	return nil
}

// failoverNode moves every session still routed to the dead node onto
// survivors. Safe to call repeatedly and concurrently.
func (c *Cluster) failoverNode(n *node) {
	c.migrate(n, false)
}

// migrate moves the node's routed sessions elsewhere. graceful closes
// each session on the old node first (drain: queued frames execute).
// Otherwise the old node is dead: when its unacknowledged journal
// entries survive on a buddy, the session resumes there (or on a
// placed survivor when the buddy cannot host) — the chunk entries
// replay through the normal ingest path and the queued frames are
// recovered; without a replica (journal off, buddy dead, nothing
// unacknowledged) the dead node's queued frames are shed.
func (c *Cluster) migrate(n *node, graceful bool) {
	c.migMu.Lock()
	defer c.migMu.Unlock()
	srv := n.server()
	c.mu.Lock()
	var affected []*route
	for _, id := range c.order {
		rt := c.routes[id]
		if rt.node == n && !rt.closed {
			affected = append(affected, rt)
		}
	}
	c.mu.Unlock()
	for _, rt := range affected {
		c.moveRoute(rt, n, srv, graceful)
	}
}

// moveRoute moves one route off n (dead or draining). It holds the
// route's replication mutex for the whole move, so an in-flight
// replication either finishes before the replica log is taken here
// (and its entry replays) or waits and then observes the epoch this
// commit bumps — a late append can never strand a stale
// old-incarnation entry in the buddy store.
func (c *Cluster) moveRoute(rt *route, n *node, srv *serve.Server, graceful bool) {
	var shed uint64
	if graceful {
		// The graceful close runs before repMu is taken: it drains the
		// session's queued frames, and their completions fire the
		// result-replication hook, which needs repMu itself — holding
		// it across the close would deadlock. Any entries the drain
		// replicates are dropped with the rest of the stale log below.
		c.mu.Lock()
		localID := rt.localID
		ours := rt.node == n && !rt.closed
		c.mu.Unlock()
		if !ours {
			return
		}
		if _, err := srv.CloseSession(localID); err != nil {
			// The session may have raced a client close; count what
			// its queue still held and move on.
			if snap, serr := srv.Snapshot(localID); serr == nil {
				shed = uint64(snap.QueueLen)
			}
		}
	}
	rt.repMu.Lock()
	c.mu.Lock()
	if rt.node != n || rt.closed {
		// A client close (or another sweep) resolved the route while we
		// waited on repMu; nothing left to move.
		c.mu.Unlock()
		rt.repMu.Unlock()
		return
	}
	localID := rt.localID
	buddy := rt.buddy
	c.mu.Unlock()

	if !graceful {
		if snap, err := srv.Snapshot(localID); err == nil {
			// Dead node: whatever sat in the ingest queue is lost unless
			// the journal replica below recovers it.
			shed = uint64(snap.QueueLen)
		}
	}
	// Pull the replicated journal off the buddy before placing: a
	// kill-failover with surviving entries resumes on the buddy itself
	// when it can host, so replay normally never crosses another
	// network hop. A draining buddy still holds the replicas — take
	// them; only the new session lands elsewhere.
	var entries []serve.ReplicaEntry
	if !graceful && buddy != nil && buddy.state.Load() != stateDead {
		entries = buddy.server().ReplicaTake(rt.extID)
	}
	var target *node
	var sess *serve.Session
	if len(entries) > 0 && buddy.alive() {
		if s2, err := buddy.server().CreateSession(rt.cfg); err == nil {
			target, sess = buddy, s2
		}
		// A buddy that cannot host (raced into draining or overload)
		// falls through to placement: the replicas are already in hand,
		// replay just crosses one extra hop instead of losing the
		// session.
	}
	if target == nil {
		if placed, err := c.place(rt.extID, n); err == nil {
			if s2, cerr := placed.server().CreateSession(rt.cfg); cerr == nil {
				target, sess = placed, s2
			}
		}
	}
	if target == nil {
		// No survivor can host the session: it is gone, along with
		// whatever the replicas could have recovered.
		c.mu.Lock()
		rt.epoch++
		rt.shedFrames += shed
		c.terminateRouteLocked(rt, shed)
		c.mu.Unlock()
		rt.repMu.Unlock()
		c.lostSessions.Add(1)
		return
	}
	// Replay before committing the route: the new session is only
	// reachable through this sweep until the route flips, so the
	// replayed chunks re-enter ingest strictly before any new client
	// chunk — preserving the session's watermark ordering.
	var recovered uint64
	if len(entries) > 0 {
		shed = 0
		recovered = target.server().Replay(sess.ID, entries)
	}
	c.mu.Lock()
	if rt.closed {
		// A client close landed while we re-created the session:
		// undo the new copy instead of committing an orphan the
		// fleet's load signal would count forever. The route's
		// counters were already folded by that close, so the late
		// shed goes straight into the closed roll-up. The close runs
		// after repMu is released: it pumps the target's scheduler, whose
		// completions fire the result hook, which takes repMu.
		rt.shedFrames += shed
		c.closedShed += shed
		c.mu.Unlock()
		rt.repMu.Unlock()
		_, _ = target.server().CloseSession(sess.ID)
		return
	}
	prevBuddy := rt.buddy
	rt.epoch++
	rt.node = target
	rt.localID = sess.ID
	rt.buddy = nil // entries consumed; next ingest re-homes the replica
	rt.shedFrames += shed
	rt.recoveredFrames += recovered
	rt.failovers++
	c.mu.Unlock()
	if graceful && prevBuddy != nil && prevBuddy.state.Load() != stateDead {
		// A graceful move executed every queued frame during close; the
		// old incarnation's replica entries are stale (their sequence
		// numbers belong to the closed journal) and must not replay
		// into the re-created session later.
		prevBuddy.server().ReplicaDrop(rt.extID)
	}
	rt.repMu.Unlock()
	// Annotate the move on the fleet track: a graceful migration shed
	// nothing, a replayed kill-failover carries the frames it
	// recovered, a bare kill-failover the frames it lost.
	switch {
	case graceful:
		c.mark("migrate:"+rt.extID+":"+n.name+">"+target.name, int64(shed))
	case recovered > 0 || len(entries) > 0:
		c.mark("replay:"+rt.extID+":"+n.name+">"+target.name, int64(recovered))
	default:
		c.mark("failover:"+rt.extID+":"+n.name+">"+target.name, int64(shed))
	}
}

// terminateRouteLocked folds a terminating route's failover counters
// into the monotonic closed roll-up; callers hold c.mu and must have
// applied any final shed to rt before calling. Safe against a
// concurrent client close: if the route is already closed (and hence
// already folded), only the late shed delta is added.
func (c *Cluster) terminateRouteLocked(rt *route, lateShed uint64) {
	if rt.closed {
		c.closedShed += lateShed
		return
	}
	rt.closed = true
	c.foldClosedLocked(rt)
}

// foldClosedLocked moves a route's failover counters from the live sum
// into the closed roll-up; called exactly once, under c.mu, when
// rt.closed flips to true.
func (c *Cluster) foldClosedLocked(rt *route) {
	c.closedFailovers += uint64(rt.failovers)
	c.closedShed += rt.shedFrames
	c.closedRecovered += rt.recoveredFrames
}

// failoverCounts sums the fleet's monotonic failover accounting: the
// closed roll-up plus every open route's live counters, read in one
// critical section so a closing session can never be counted in
// neither (an under-count) or both (a double count).
func (c *Cluster) failoverCounts() (sessions, shed, recovered uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sessions, shed, recovered = c.closedFailovers, c.closedShed, c.closedRecovered
	for _, rt := range c.routes {
		if rt.closed {
			continue
		}
		sessions += uint64(rt.failovers)
		shed += rt.shedFrames
		recovered += rt.recoveredFrames
	}
	return sessions, shed, recovered
}

// buddyFor resolves a session owner's deterministic replication buddy:
// the next alive node after the owner in construction order (wrapping),
// nil when no other node is alive. Determinism matters — the failover
// sweep must find the replicas exactly where the ingest path put them.
func (c *Cluster) buddyFor(owner *node) *node {
	for i, n := range c.nodes {
		if n != owner {
			continue
		}
		for k := 1; k < len(c.nodes); k++ {
			cand := c.nodes[(i+k)%len(c.nodes)]
			if cand != owner && cand.alive() {
				return cand
			}
		}
		return nil
	}
	return nil
}

// replicate copies one journaled chunk to the session's buddy node and
// trims the replica log to the chunk's ack watermark. When the buddy
// changed since the last chunk (fleet membership moved), surviving
// entries re-home to the new buddy first so the unacknowledged window
// stays whole on one node. The whole exchange runs under the route's
// replication mutex: re-home plus append is atomic against concurrent
// appends, and a failover sweep that won the race has already bumped
// the epoch — the stale chunk is dropped (its frames are counted shed
// by the sweep's snapshot) instead of stranding an old-incarnation
// entry that a later failover would replay.
func (c *Cluster) replicate(rt *route, owner *node, epoch uint64, chunk serve.Chunk, res serve.IngestResult) {
	entry, err := serve.ChunkReplica(res.Seq, chunk)
	if err != nil {
		return
	}
	rt.repMu.Lock()
	defer rt.repMu.Unlock()
	buddy := c.buddyFor(owner)
	c.mu.Lock()
	if rt.epoch != epoch || rt.closed {
		// The route flipped (failover, migration) or closed after this
		// chunk was ingested; its journal entry belongs to the dead
		// incarnation.
		c.mu.Unlock()
		return
	}
	prev := rt.buddy
	rt.buddy = buddy
	extID := rt.extID
	c.mu.Unlock()
	if prev != nil && prev != buddy && prev.state.Load() != stateDead {
		moved := prev.server().ReplicaTake(extID)
		if buddy != nil {
			for _, e := range moved {
				buddy.server().ReplicaAppend(extID, e, 0)
			}
		}
	}
	if buddy == nil {
		return
	}
	buddy.server().ReplicaAppend(extID, entry, res.AckSeq)
	if prev != buddy {
		// Buddy (re)assignment is rare — mark it; per-chunk appends are
		// far too hot for the bounded ctl ring.
		c.mark("replicate:"+extID+">"+buddy.name, 1)
	}
}

// resultHook builds node n's serve.Config.OnResult callback: it maps
// the node-local session back to its fleet route and ships the result
// to the route's buddy, carrying the session's sequence watermark —
// and the catch-up ring contents — across a future failover. Results follow the chunks' buddy (rt.buddy, set by
// replicate) so the whole journal survives together on one node; a
// result that outruns its session's first replicated chunk is simply
// skipped, the next append carries the watermark forward.
func (c *Cluster) resultHook(n *node) func(string, serve.ResultEvent, uint64) {
	return func(localID string, ev serve.ResultEvent, ackSeq uint64) {
		c.mu.Lock()
		var rt *route
		for _, r := range c.routes {
			if r.node == n && r.localID == localID && !r.closed {
				rt = r
				break
			}
		}
		c.mu.Unlock()
		if rt == nil {
			return
		}
		rt.repMu.Lock()
		defer rt.repMu.Unlock()
		c.mu.Lock()
		stale := rt.closed || rt.node != n || rt.localID != localID
		buddy := rt.buddy
		extID := rt.extID
		c.mu.Unlock()
		if stale || buddy == nil || buddy.state.Load() == stateDead {
			return
		}
		buddy.server().ReplicaAppend(extID, serve.ReplicaEntry{Seq: ev.Seq, Result: ev}, ackSeq)
	}
}

// --- session lifecycle (programmatic surface; HTTP handlers proxy
// through these) ---

// CreateSession places a session on the fleet and returns its snapshot
// under the fleet-wide ID.
func (c *Cluster) CreateSession(cfg serve.SessionConfig) (serve.SessionSnapshot, error) {
	extID := fmt.Sprintf("c%d", c.nextID.Add(1))
	n, err := c.place(extID, nil)
	if err != nil {
		return serve.SessionSnapshot{}, err
	}
	sess, err := n.server().CreateSession(cfg)
	if err != nil {
		return serve.SessionSnapshot{}, err
	}
	rt := &route{extID: extID, cfg: cfg, node: n, localID: sess.ID}
	c.mu.Lock()
	c.routes[extID] = rt
	c.order = append(c.order, extID)
	c.mu.Unlock()
	// The create can race a kill/drain: placement saw the node up, but
	// by the time the route registers the migration sweep may already
	// have run and missed it. Re-check and move the session ourselves.
	switch n.state.Load() {
	case stateDead:
		c.failoverNode(n)
	case stateDraining:
		c.migrate(n, true)
	}
	return c.snapshotRoute(rt)
}

// endpoint resolves a route to its current owner, failing the owner's
// sessions over first when it is dead (a request can race the probe).
// A route that ended on a dead node (lost session, or closed before
// the node died) is rejected rather than proxied: the corpse would
// accept frames no worker will ever drain.
func (c *Cluster) endpoint(extID string) (*node, string, *route, error) {
	for {
		c.mu.Lock()
		rt, ok := c.routes[extID]
		if !ok {
			c.mu.Unlock()
			return nil, "", nil, fmt.Errorf("%w: %q", serve.ErrNoSession, extID)
		}
		n, localID, closed := rt.node, rt.localID, rt.closed
		c.mu.Unlock()
		if n.state.Load() == stateDead {
			if closed {
				return nil, "", nil, fmt.Errorf("cluster: session %q is closed (node %s is dead)", extID, n.name)
			}
			c.failoverNode(n)
			continue
		}
		return n, localID, rt, nil
	}
}

// Ingest hands one chunk to the session's owning node. A load-driven
// migration can flip the route mid-request; when the send fails and
// the route has moved, the same chunk retries against the new owner
// instead of surfacing a spurious error to the client.
func (c *Cluster) Ingest(extID string, chunk serve.Chunk) (serve.IngestResult, error) {
	for {
		n, localID, rt, err := c.endpoint(extID)
		if err != nil {
			return serve.IngestResult{}, err
		}
		// Capture the route's epoch before the send: if a failover sweep
		// flips the route while the chunk is in flight, the bumped epoch
		// tells replicate the entry belongs to the dead incarnation. A
		// route that moved between resolution and here re-resolves; a
		// closed route proceeds — the server owns that error, and
		// replicate's epoch/closed check drops any journal entry.
		c.mu.Lock()
		epoch := rt.epoch
		current := rt.node == n && rt.localID == localID
		c.mu.Unlock()
		if !current {
			continue
		}
		res, err := n.server().IngestChunk(localID, chunk)
		if err == nil {
			// Router-hop annotation: which node served this chunk, and how
			// many frames the hop produced.
			c.mark("hop:"+rt.extID+">"+n.name, int64(res.Frames))
			if res.Seq > 0 {
				// Journaled chunk: replicate it to the buddy before acking
				// the client, so a kill after this return can replay it.
				c.replicate(rt, n, epoch, chunk, res)
			}
			return res, nil
		}
		if n.state.Load() == stateDead {
			// The owner died between route resolution and the send (a
			// closed server rejects ingest rather than stranding frames on
			// the corpse); loop — endpoint fails the session over and the
			// chunk retries against the new owner.
			continue
		}
		// A drain closes the session on its owner before it moves the
		// route, and holds migMu until the route has moved.
		draining := n.state.Load() == stateDraining
		if draining {
			c.migMu.Lock()
		}
		c.mu.Lock()
		moved := rt.node != n || rt.localID != localID
		c.mu.Unlock()
		if draining {
			c.migMu.Unlock()
		}
		if !moved {
			return res, err
		}
	}
}

// Snapshot returns the session's state under its fleet-wide ID.
func (c *Cluster) Snapshot(extID string) (serve.SessionSnapshot, error) {
	c.mu.Lock()
	rt, ok := c.routes[extID]
	c.mu.Unlock()
	if !ok {
		return serve.SessionSnapshot{}, fmt.Errorf("%w: %q", serve.ErrNoSession, extID)
	}
	return c.snapshotRoute(rt)
}

// snapshotRoute reads the owning node's snapshot and rewrites it to
// the fleet view: fleet-wide ID, node name, failover accounting,
// lost-session state.
func (c *Cluster) snapshotRoute(rt *route) (serve.SessionSnapshot, error) {
	c.mu.Lock()
	n, localID, closed := rt.node, rt.localID, rt.closed
	extID := rt.extID
	failovers, shed, recovered, migrations := rt.failovers, rt.shedFrames, rt.recoveredFrames, rt.migrations
	c.mu.Unlock()
	snap, err := n.server().Snapshot(localID)
	if err != nil {
		if closed {
			// Lost to a total failover or evicted after close: report the
			// terminal state instead of a routing error.
			snap = serve.SessionSnapshot{State: "closed"}
		} else {
			return serve.SessionSnapshot{}, err
		}
	}
	snap.ID = extID
	snap.Node = n.name
	snap.Failovers = failovers
	snap.FailoverShedFrames = shed
	snap.FailoverRecoveredFrames = recovered
	snap.Migrations = migrations
	if closed && snap.State == "active" {
		snap.State = "closed"
	}
	return snap, nil
}

// Snapshots lists every routed session in creation order.
func (c *Cluster) Snapshots() []serve.SessionSnapshot {
	c.mu.Lock()
	routes := make([]*route, 0, len(c.order))
	for _, id := range c.order {
		routes = append(routes, c.routes[id])
	}
	c.mu.Unlock()
	out := make([]serve.SessionSnapshot, 0, len(routes))
	for _, rt := range routes {
		snap, err := c.snapshotRoute(rt)
		if err != nil {
			continue // evicted on the node; drop from the listing
		}
		out = append(out, snap)
	}
	return out
}

// CloseSession closes the session on its owning node and returns the
// final snapshot under the fleet-wide ID. A migration can move the
// session while the close is in flight; the stale close lands on the
// old (already-closed) local session, so re-resolve and close the new
// owner too — otherwise the migrated copy would leak as an orphan.
func (c *Cluster) CloseSession(extID string) (serve.SessionSnapshot, error) {
	var (
		snap *serve.SessionSnapshot
		n    *node
		rt   *route
	)
	for {
		var localID string
		var err error
		n, localID, rt, err = c.endpoint(extID)
		if err != nil {
			return serve.SessionSnapshot{}, err
		}
		snap, err = n.server().CloseSession(localID)
		if err != nil {
			return serve.SessionSnapshot{}, err
		}
		// Marking closed in the same critical section as the moved check
		// makes this atomic against a migration commit: either the
		// migration already flipped the route (we loop and close the new
		// copy) or it will see closed and undo itself. Folding the
		// route's failover counters into the monotonic closed roll-up in
		// the same section keeps the fleet totals from under-counting
		// across the close.
		c.mu.Lock()
		moved := rt.node != n || rt.localID != localID
		if !moved {
			rt.closed = true
			c.foldClosedLocked(rt)
		}
		c.mu.Unlock()
		if !moved {
			break
		}
	}
	c.mu.Lock()
	failovers, shed, recovered, migrations := rt.failovers, rt.shedFrames, rt.recoveredFrames, rt.migrations
	buddy := rt.buddy
	c.mu.Unlock()
	if buddy != nil && buddy.state.Load() != stateDead {
		// The session is done; its replicated journal has nothing left to
		// recover. The drop serializes with in-flight replication so a
		// late append cannot resurrect the log after it (the route is
		// marked closed above, so appends arriving later skip themselves).
		rt.repMu.Lock()
		buddy.server().ReplicaDrop(extID)
		rt.repMu.Unlock()
	}
	out := *snap
	out.ID = extID
	out.Node = n.name
	out.Failovers = failovers
	out.FailoverShedFrames = shed
	out.FailoverRecoveredFrames = recovered
	out.Migrations = migrations
	return out, nil
}

// NodeNames lists the fleet members in construction order.
func (c *Cluster) NodeNames() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.name
	}
	return out
}

// aliveNodes returns placeable nodes (up, not draining, not excluded)
// in construction order.
func (c *Cluster) aliveNodes(exclude *node) []*node {
	var out []*node
	for _, n := range c.nodes {
		if n != exclude && n.alive() {
			out = append(out, n)
		}
	}
	return out
}

// Pump synchronously drains every live node's scheduled sessions —
// the fleet-wide twin of serve.Server.Pump, only meaningful when the
// per-node config sets ManualDrain. Dead nodes are skipped; their
// queues are frozen evidence for the failover accounting.
func (c *Cluster) Pump() {
	for _, n := range c.nodes {
		if n.state.Load() != stateDead {
			n.server().Pump()
		}
	}
}

// NodeStats is one node's deterministic accounting view, summed over
// every incarnation the node has run (a killed-then-revived node keeps
// its corpse's counters). Residuals count frames sitting in local
// active sessions — ingest queues plus DSFA aggregators — which is
// exactly the term that closes fleet-wide frame conservation:
//
//	FramesIn == RawFramesDone + FramesDropped + FramesDroppedDSFA
//	            + ResidualQueued + ResidualAgg
//
// at any quiescent point (queues pumped, no requests in flight).
type NodeStats struct {
	Name     string
	Platform string
	State    string
	Totals   serve.SessionTotals
	// Residual* count the current incarnation's in-flight frames;
	// Retired* the frames stranded forever in killed incarnations
	// (evidence of past failovers, still part of conservation).
	ResidualQueued int
	ResidualAgg    int
	RetiredQueued  int
	RetiredAgg     int
}

// NodeStats reports every node's accounting view in construction
// order.
func (c *Cluster) NodeStats() []NodeStats {
	out := make([]NodeStats, 0, len(c.nodes))
	for _, n := range c.nodes {
		st := NodeStats{Name: n.name, Platform: n.platform, State: n.stateName()}
		incs := n.incarnations()
		for i, srv := range incs {
			st.Totals.Merge(srv.Totals())
			var q, a int
			for _, snap := range srv.Snapshots() {
				if snap.State == "active" {
					q += snap.QueueLen
					a += snap.AggPending
				}
			}
			if i == len(incs)-1 {
				st.ResidualQueued, st.ResidualAgg = st.ResidualQueued+q, st.ResidualAgg+a
			} else {
				st.RetiredQueued, st.RetiredAgg = st.RetiredQueued+q, st.RetiredAgg+a
			}
		}
		out = append(out, st)
	}
	return out
}

// FleetTotals sums the monotonic session roll-up across every node and
// incarnation.
func (c *Cluster) FleetTotals() serve.SessionTotals {
	var t serve.SessionTotals
	for _, n := range c.nodes {
		for _, srv := range n.incarnations() {
			t.Merge(srv.Totals())
		}
	}
	return t
}

// SchedTotals sums every node's execution-scheduler counters across
// incarnations — the fleet's micro-batching roll-up (dispatches,
// coalesced members, occupancy).
func (c *Cluster) SchedTotals() sched.Stats {
	var t sched.Stats
	for _, n := range c.nodes {
		for _, srv := range n.incarnations() {
			t.Merge(srv.SchedStats())
		}
	}
	return t
}

// sessionsOn counts open routed sessions per node name.
func (c *Cluster) sessionsOn() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]int{}
	for _, rt := range c.routes {
		if !rt.closed {
			out[rt.node.name]++
		}
	}
	return out
}
