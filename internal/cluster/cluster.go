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
// # Ownership
//
// The routing state — every route, each node's liveness and server
// incarnations, the fleet's failover counters — is immutable and
// published whole: readers (ingest, result hooks, snapshots, health,
// metrics) load it and take no lock. One owner mutex applies every
// change in order (create, close, a failover/drain/rebalance move,
// kill/drain/revive/undrain, a buddy re-home) and publishes the result
// as the next table version, its epoch. A node close pumps its
// scheduler and fires result hooks for any session, so the owner may
// hold its mutex across node calls and a hook never takes it. Replicas
// are fenced where they are stored: every replica append, take and drop
// carries the epoch of the table it was decided on, and the buddy
// refuses an append older than the session's last take or drop, so a
// chunk or result of a superseded incarnation cannot land after its
// log moved; a chunk refused so because its owner died goes to the new
// owner before its ingest returns. A failover replays into a session
// the table does not point at yet, so the replay's results find no
// route.
package cluster

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
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
	// rebalancer's cooldown gate and the fleet trace's instants. nil
	// uses the wall clock; a deterministic driver (the scenario harness)
	// injects its virtual clock so migration pacing replays identically
	// under one seed. It is called with the cluster's owner mutex held
	// (probe passes, kill, drain, revive, undrain and every session
	// move), so it must not call into the Cluster: such a call
	// deadlocks.
	Elapsed func() time.Duration
	// Node is the base per-node server config; Platform is overridden
	// by each NodeSpec, Workers only when the spec sets it.
	Node serve.Config
}

// node is one fleet member: an embedded server plus liveness state,
// both in the nodeState the owner publishes.
type node struct {
	name     string
	platform string
	cfg      serve.Config // per-node server config, reused by revive
	st       atomic.Pointer[nodeState]
}

// nodeState is one published version of a node. Reviving a killed node
// installs a fresh incarnation and retires the dead one — kept, not
// dropped, because its stranded sessions and counters stay part of the
// fleet's accounting (frame conservation, monotonic totals).
type nodeState struct {
	state   int32
	srv     *serve.Server
	retired []*serve.Server
}

func (n *node) server() *serve.Server { return n.st.Load().srv }
func (n *node) state() int32          { return n.st.Load().state }
func (n *node) alive() bool           { return n.state() == stateUp }

// set publishes the node's next state; the owner mutex must be held.
func (n *node) set(state int32, srv *serve.Server, retired []*serve.Server) {
	n.st.Store(&nodeState{state: state, srv: srv, retired: retired})
}

// incarnations returns every server the node has run, retired first,
// current last.
func (n *node) incarnations() []*serve.Server {
	st := n.st.Load()
	return append(slices.Clip(st.retired), st.srv)
}

func (n *node) stateName() string {
	switch n.state() {
	case stateDraining:
		return "draining"
	case stateDead:
		return "dead"
	}
	return "up"
}

// route maps a fleet-wide session ID to its current owner. A published
// route is never modified; a change publishes a copy.
type route struct {
	extID   string
	seq     uint64 // creation order
	cfg     serve.SessionConfig
	node    *node
	srv     *serve.Server // the node incarnation holding the session
	localID string
	closed  bool
	// buddy is the node holding the session's replicated journal
	// entries (nil until the first journaled ingest, or when no other
	// node is alive). Re-resolved on every replicated chunk so it
	// tracks fleet membership changes.
	buddy *node
	// shedFrames accumulates ingest-queue frames lost to kill-failovers
	// of this session, surfaced so clients can account for the gap;
	// recoveredFrames the frames framed again on a new owner after them,
	// by replaying the replicated journal or by re-sending a chunk the
	// dead owner took after its failover took the replica log.
	shedFrames, recoveredFrames uint64
	failovers                   int
	// migrations counts load-driven moves to another node (graceful —
	// nothing shed, but per-session counters restart like a failover).
	migrations int
}

// dead reports whether the node incarnation holding rt's session has
// died: its node is dead, or was revived with a fresh server since.
func (rt *route) dead() bool {
	st := rt.node.st.Load()
	return st.state == stateDead || st.srv != rt.srv
}

// localKey names an open route by its owner and node-local session ID.
type localKey struct {
	node    *node
	localID string
}

// table is one published version of the routing state.
type table struct {
	// epoch is the version: every change the owner applies publishes
	// the next one.
	epoch uint64
	// open holds the open routes by fleet ID and local the same routes
	// by owner and local session ID; closed holds the newest
	// serve.MaxClosed closed ones, oldest first.
	open   map[string]*route
	local  map[localKey]*route
	closed []*route
	// The fleet's monotonic failover accounting, counted when a move
	// happens, so closing or evicting a route never lowers it.
	failovers, shed, recovered, lost, migrations uint64
}

// lookup returns extID's route, open or among the newest closed ones.
func (t *table) lookup(extID string) *route {
	if rt := t.open[extID]; rt != nil {
		return rt
	}
	for _, rt := range t.closed {
		if rt.extID == extID {
			return rt
		}
	}
	return nil
}

// opened returns the open routes on n, or on every node when n is nil,
// in creation order.
func (t *table) opened(n *node) []*route {
	var out []*route
	for _, rt := range t.open {
		if n == nil || rt.node == n {
			out = append(out, rt)
		}
	}
	slices.SortFunc(out, func(a, b *route) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// put replaces old (nil for a new route) with rt. The closed list is
// shared with older versions: it is only appended to past its length
// or copied before a write.
func (t *table) put(old, rt *route) {
	if old != nil && !old.closed {
		delete(t.open, old.extID)
		delete(t.local, localKey{old.node, old.localID})
	}
	switch {
	case !rt.closed:
		t.open[rt.extID] = rt
		t.local[localKey{rt.node, rt.localID}] = rt
	case old != nil && old.closed:
		t.closed = slices.Clone(t.closed)
		t.closed[slices.Index(t.closed, old)] = rt
	default:
		t.closed = append(slices.Clip(t.closed), rt)
		if len(t.closed) > serve.MaxClosed {
			t.closed = t.closed[1:]
		}
	}
}

// Cluster is the sharded serving fleet: embedded nodes plus the
// routing state. Create one with New, mount Handler on a listener,
// Close on shutdown.
type Cluster struct {
	cfg   Config
	nodes []*node
	start time.Time

	// owner serializes every change to the routing state and to the
	// nodes' states; tab is the published routing table.
	owner sync.Mutex
	tab   atomic.Pointer[table]

	nextID atomic.Uint64

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
		start:     time.Now(),
		probeStop: make(chan struct{}),
	}
	c.tab.Store(&table{open: map[string]*route{}, local: map[localKey]*route{}})
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
		n.set(stateUp, srv, nil)
		c.nodes = append(c.nodes, n)
	}
	if cfg.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop(cfg.ProbeInterval)
	}
	return c, nil
}

// servers returns every server incarnation of every node, in node
// order, retired ones first.
func (c *Cluster) servers() []*serve.Server {
	var out []*serve.Server
	for _, n := range c.nodes {
		out = append(out, n.incarnations()...)
	}
	return out
}

// closeNodes stops every constructed node (New error paths, Close),
// retired incarnations included.
func (c *Cluster) closeNodes() {
	for _, srv := range c.servers() {
		srv.Close()
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
	for _, srv := range c.servers() {
		if t := srv.Tracer(); t != nil {
			tracers = append(tracers, t)
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
	for _, srv := range c.servers() {
		if h := srv.StageHists(); h != nil {
			all = append(all, h)
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
// still owns routed sessions has them moved to surviving nodes, then
// the load rebalancer gets one decision.
func (c *Cluster) ProbeNow() {
	c.owner.Lock()
	defer c.owner.Unlock()
	for _, n := range c.nodes {
		switch n.state() {
		case stateDead:
			c.migrate(n, false)
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
// moves it gracefully (re-create on cold under the same fleet-wide ID,
// then close on hot — queued frames execute). Returns false when no
// move strictly improves the balance. The owner mutex must be held.
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
	curMax := loads[hot].Utilization
	var best *route
	bestMax := curMax
	for _, rt := range c.tab.Load().opened(hotN) {
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
	// Create-then-commit-then-close: the route flips to the new owner
	// before the old session closes, so concurrent ingest never lands in
	// a window where neither node owns the stream, and a failed create
	// leaves the session running on the hot node untouched.
	coldSrv := coldN.server()
	sess, err := coldSrv.CreateSession(best.cfg)
	if err != nil {
		return false
	}
	moved := *best
	moved.node, moved.srv, moved.localID, moved.buddy = coldN, coldSrv, sess.ID, nil
	moved.migrations++
	t := c.commit(func(t *table) {
		t.put(best, &moved)
		t.migrations++
	})
	// Stale replicas: the old incarnation's journal closes below with
	// every queued frame executed; its entries must not replay into the
	// re-created session.
	c.dropReplicas(best, t.epoch)
	// Graceful: the old session's queued frames execute during close.
	_, _ = best.srv.CloseSession(best.localID)
	c.mark("rebalance:"+best.extID+":"+hotN.name+">"+coldN.name, 1)
	return true
}

// commit publishes a copy of the routing table, changed by fn, as the
// next epoch and returns it. The owner mutex must be held.
func (c *Cluster) commit(fn func(t *table)) *table {
	old := c.tab.Load()
	t := *old
	t.epoch++
	t.open = maps.Clone(old.open)
	t.local = maps.Clone(old.local)
	fn(&t)
	c.tab.Store(&t)
	return &t
}

// dropReplicas discards rt's replica log on its buddy, fencing it at
// epoch.
func (c *Cluster) dropReplicas(rt *route, epoch uint64) {
	if rt.buddy != nil && rt.buddy.state() != stateDead {
		rt.buddy.server().ReplicaDrop(rt.extID, epoch)
	}
}

// nodeByName returns a fleet member by name.
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
	c.owner.Lock()
	defer c.owner.Unlock()
	n, err := c.nodeByName(name)
	if err != nil {
		return err
	}
	st := n.st.Load()
	if st.state == stateDead {
		return fmt.Errorf("cluster: node %q already dead", name)
	}
	n.set(stateDead, st.srv, st.retired)
	st.srv.Close()
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
	c.owner.Lock()
	defer c.owner.Unlock()
	n, err := c.nodeByName(name)
	if err != nil {
		return err
	}
	if n.state() != stateDead {
		return fmt.Errorf("cluster: node %q is %s, not dead", name, n.stateName())
	}
	c.migrate(n, false)
	srv, err := serve.New(n.cfg)
	if err != nil {
		return fmt.Errorf("cluster: reviving node %s: %w", name, err)
	}
	st := n.st.Load()
	n.set(stateUp, srv, append(slices.Clip(st.retired), st.srv))
	c.mark("revive:"+name, 1)
	return nil
}

// UndrainNode returns a draining node to service: it accepts new
// sessions again. Sessions drained off it earlier stay where they
// landed; placement repopulates the node as traffic arrives.
func (c *Cluster) UndrainNode(name string) error {
	c.owner.Lock()
	defer c.owner.Unlock()
	n, err := c.nodeByName(name)
	if err != nil {
		return err
	}
	st := n.st.Load()
	if st.state != stateDraining {
		return fmt.Errorf("cluster: node %q is %s, not draining", name, n.stateName())
	}
	n.set(stateUp, st.srv, st.retired)
	st.srv.SetDraining(false)
	c.mark("undrain:"+name, 1)
	return nil
}

// DrainNode gracefully migrates a node's sessions away: the node stops
// accepting new sessions, every routed session is closed on it (its
// queued frames execute — nothing is shed) and re-created on a
// surviving node under the same config, keeping its fleet-wide ID.
func (c *Cluster) DrainNode(name string) error {
	c.owner.Lock()
	defer c.owner.Unlock()
	n, err := c.nodeByName(name)
	if err != nil {
		return err
	}
	st := n.st.Load()
	if st.state != stateUp {
		return fmt.Errorf("cluster: node %q is %s", name, n.stateName())
	}
	n.set(stateDraining, st.srv, st.retired)
	st.srv.SetDraining(true)
	c.mark("drain:"+name, 1)
	c.migrate(n, true)
	return nil
}

// migrate moves the node's routed sessions elsewhere, in creation
// order. graceful closes each session on the old node first (drain:
// queued frames execute). Otherwise the old node is dead: when its
// unacknowledged journal entries survive on a buddy, the session
// resumes there (or on a placed survivor when the buddy cannot host) —
// the chunk entries replay through the normal ingest path and the
// queued frames are recovered; without a replica (journal off, buddy
// dead, nothing unacknowledged) the dead node's queued frames are shed.
// The owner mutex must be held.
func (c *Cluster) migrate(n *node, graceful bool) {
	for _, rt := range c.tab.Load().opened(n) {
		c.moveRoute(rt, graceful)
	}
}

// moveRoute moves one open route off its dead or draining node. The
// owner mutex must be held.
func (c *Cluster) moveRoute(rt *route, graceful bool) {
	var shed uint64
	if graceful {
		// The close drains the session's queued frames; their results
		// replicate to the buddy and are dropped with the rest of the
		// stale log below.
		if _, err := rt.srv.CloseSession(rt.localID); err != nil {
			// The session may have been closed on the node already; count
			// what its queue still held and move on.
			if snap, serr := rt.srv.Snapshot(rt.localID); serr == nil {
				shed = uint64(snap.QueueLen)
			}
		}
	} else if snap, err := rt.srv.Snapshot(rt.localID); err == nil {
		// Dead node: whatever sat in the ingest queue is lost unless the
		// journal replica below recovers it.
		shed = uint64(snap.QueueLen)
	}
	// Pull the replicated journal off the buddy before placing, fenced
	// at the epoch this move publishes: a kill-failover with surviving
	// entries resumes on the buddy itself when it can host, so replay
	// normally never crosses another network hop. A draining buddy
	// still holds the replicas — take them; only the new session lands
	// elsewhere.
	var entries []serve.ReplicaEntry
	if !graceful && rt.buddy != nil && rt.buddy.state() != stateDead {
		entries = rt.buddy.server().ReplicaTake(rt.extID, c.tab.Load().epoch+1)
	}
	var target *node
	var sess *serve.Session
	if len(entries) > 0 && rt.buddy.alive() {
		if s2, err := rt.buddy.server().CreateSession(rt.cfg); err == nil {
			target, sess = rt.buddy, s2
		}
		// A buddy that cannot host (draining or overloaded) falls through
		// to placement: the replicas are already in hand, replay just
		// crosses one extra hop instead of losing the session.
	}
	if target == nil {
		if placed, err := c.place(rt.extID, rt.node); err == nil {
			if s2, cerr := placed.server().CreateSession(rt.cfg); cerr == nil {
				target, sess = placed, s2
			}
		}
	}
	moved := *rt
	if target == nil {
		// No survivor can host the session: it is gone, along with
		// whatever the replicas could have recovered.
		moved.closed = true
		moved.shedFrames += shed
		c.commit(func(t *table) {
			t.put(rt, &moved)
			t.shed += shed
			t.lost++
		})
		return
	}
	// Replay before publishing the move: the new session is reachable
	// only through this sweep until then, so the replayed chunks
	// re-enter ingest strictly before any new client chunk — preserving
	// the session's watermark ordering.
	var recovered uint64
	if len(entries) > 0 {
		shed = 0
		recovered = target.server().Replay(sess.ID, entries)
	}
	moved.node, moved.srv, moved.localID, moved.buddy = target, target.server(), sess.ID, nil
	moved.shedFrames += shed
	moved.recoveredFrames += recovered
	moved.failovers++
	t := c.commit(func(t *table) {
		t.put(rt, &moved)
		t.failovers++
		t.shed += shed
		t.recovered += recovered
	})
	if graceful {
		// A graceful move executed every queued frame during close; the
		// old incarnation's replica entries are stale (their sequence
		// numbers belong to the closed journal).
		c.dropReplicas(rt, t.epoch)
	}
	// Annotate the move on the fleet track: a graceful migration shed
	// nothing, a replayed kill-failover carries the frames it
	// recovered, a bare kill-failover the frames it lost.
	move := rt.extID + ":" + rt.node.name + ">" + target.name
	switch {
	case graceful:
		c.mark("migrate:"+move, int64(shed))
	case len(entries) > 0:
		c.mark("replay:"+move, int64(recovered))
	default:
		c.mark("failover:"+move, int64(shed))
	}
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

// replicate copies one journaled chunk, ingested into rt as table t
// routed it, to the session's buddy, trimming the replica log to the
// chunk's ack watermark. When fleet membership moved the buddy, or the
// buddy refused the append because its log was taken or dropped since t,
// the owner re-homes the route first and the append goes where the
// route now points. It reports false, storing nothing, when rt's
// incarnation has moved or closed: the chunk belongs to a superseded
// incarnation.
func (c *Cluster) replicate(t *table, rt *route, chunk serve.Chunk, res serve.IngestResult) bool {
	entry, err := serve.ChunkReplica(res.Seq, chunk)
	if err != nil {
		return true
	}
	for refused := false; ; refused = true {
		if refused || rt.buddy != c.buddyFor(rt.node) {
			if t, rt = c.rehome(rt); rt == nil {
				return false
			}
		}
		if rt.buddy == nil || rt.buddy.server().ReplicaAppend(rt.extID, entry, res.AckSeq, t.epoch) {
			return true
		}
	}
}

// rehome points rt's replicas at its owner's current buddy, moving the
// surviving entries there, and returns the table and route as they now
// stand: a nil route when rt's incarnation has moved or closed.
func (c *Cluster) rehome(rt *route) (*table, *route) {
	c.owner.Lock()
	defer c.owner.Unlock()
	t := c.tab.Load()
	cur := t.open[rt.extID]
	if cur == nil || cur.srv != rt.srv || cur.localID != rt.localID {
		return t, nil
	}
	buddy := c.buddyFor(cur.node)
	if buddy == cur.buddy {
		return t, cur
	}
	next := *cur
	next.buddy = buddy
	t = c.commit(func(t *table) { t.put(cur, &next) })
	// Publish first, then take: an append routed by the old table either
	// lands before the take and moves with the log, or is refused.
	if prev := cur.buddy; prev != nil && prev.state() != stateDead {
		for _, e := range prev.server().ReplicaTake(cur.extID, t.epoch) {
			if buddy != nil {
				buddy.server().ReplicaAppend(cur.extID, e, 0, t.epoch)
			}
		}
	}
	if buddy != nil {
		// Buddy (re)assignment is rare — mark it; per-chunk appends are
		// far too hot for the bounded ctl ring.
		c.mark("replicate:"+cur.extID+">"+buddy.name, 1)
	}
	return t, &next
}

// resultHook builds node n's serve.Config.OnResult callback: it maps
// the node-local session back to its fleet route and ships the result
// to the route's buddy, carrying the session's sequence watermark —
// and the catch-up ring contents — across a future failover. Results
// follow the chunks' buddy so the whole journal survives together on
// one node; a result that outruns its session's first replicated chunk
// is skipped, the next append carries the watermark forward. A node
// close fires the hook on the closing goroutine, under the owner mutex
// when the owner closes, so the hook reads the published table and
// takes no lock; a refused append retries on the newer table the take
// or drop that refused it published.
func (c *Cluster) resultHook(n *node) func(string, serve.ResultEvent, uint64) {
	return func(localID string, ev serve.ResultEvent, ackSeq uint64) {
		for {
			t := c.tab.Load()
			rt := t.local[localKey{n, localID}]
			if rt == nil || rt.buddy == nil || rt.buddy.state() == stateDead ||
				rt.buddy.server().ReplicaAppend(rt.extID, serve.ReplicaEntry{Seq: ev.Seq, Result: ev}, ackSeq, t.epoch) {
				return
			}
		}
	}
}

// --- session lifecycle (programmatic surface; the router's
// serve.SessionAPI mounts these) ---

// CreateSession places a session on the fleet and returns its snapshot
// under the fleet-wide ID.
func (c *Cluster) CreateSession(cfg serve.SessionConfig) (serve.SessionSnapshot, error) {
	seq := c.nextID.Add(1)
	extID := fmt.Sprintf("c%d", seq)
	c.owner.Lock()
	n, err := c.place(extID, nil)
	if err != nil {
		c.owner.Unlock()
		return serve.SessionSnapshot{}, err
	}
	srv := n.server()
	sess, err := srv.CreateSession(cfg)
	if err != nil {
		c.owner.Unlock()
		return serve.SessionSnapshot{}, err
	}
	rt := &route{extID: extID, seq: seq, cfg: cfg, node: n, srv: srv, localID: sess.ID}
	c.commit(func(t *table) { t.put(nil, rt) })
	c.owner.Unlock()
	return c.snapshotRoute(rt)
}

// route resolves a fleet-wide ID to its route and the table it was
// resolved from, failing the owner's sessions over first when it is
// dead (a request can race the probe).
func (c *Cluster) route(extID string) (*table, *route, error) {
	t := c.tab.Load()
	if rt := t.open[extID]; rt == nil || rt.node.state() != stateDead {
		return resolved(t, extID)
	}
	c.owner.Lock()
	defer c.owner.Unlock()
	return c.routeLocked(extID)
}

// routeLocked is route for a caller that holds the owner mutex.
func (c *Cluster) routeLocked(extID string) (*table, *route, error) {
	if rt := c.tab.Load().open[extID]; rt != nil && rt.node.state() == stateDead {
		c.migrate(rt.node, false)
	}
	return resolved(c.tab.Load(), extID)
}

// resolved returns extID's route in t. A closed route that ended on a
// dead node (lost session, or closed before the node died) is rejected
// rather than proxied: the corpse would accept frames no worker will
// ever drain. An open route whose node dies after t was read is
// returned; the dead server refuses the call, and Ingest retries.
func resolved(t *table, extID string) (*table, *route, error) {
	rt := t.lookup(extID)
	if rt == nil {
		return nil, nil, fmt.Errorf("%w: %q", serve.ErrNoSession, extID)
	}
	if rt.closed && rt.node.state() == stateDead {
		return nil, nil, fmt.Errorf("cluster: session %q is closed (node %s is dead)", extID, rt.node.name)
	}
	return t, rt, nil
}

// Ingest hands one chunk to the session's owning node. A move can close
// the session under the chunk; the same chunk then retries against the
// new owner instead of surfacing a spurious error to the client.
func (c *Cluster) Ingest(extID string, chunk serve.Chunk) (serve.IngestResult, error) {
	stranded := false
	for {
		t, rt, err := c.route(extID)
		if err != nil {
			return serve.IngestResult{}, err
		}
		res, err := rt.srv.IngestChunk(rt.localID, chunk)
		if err == nil {
			// Router-hop annotation: which node served this chunk, and how
			// many frames the hop produced.
			c.mark("hop:"+rt.extID+">"+rt.node.name, int64(res.Frames))
			// Journaled chunk: replicate it to the buddy before acking the
			// client, so a kill after this return can replay it. When the
			// owner died and its failover took the replica log first, the
			// chunk is stranded in the dead incarnation: send it to the new
			// owner instead, which recovers its frames as a replay would.
			if res.Seq > 0 && !c.replicate(t, rt, chunk, res) && rt.dead() {
				stranded = true
				continue
			}
			if stranded {
				c.recovered(extID, uint64(res.Frames))
			}
			return res, nil
		}
		// The owner applies a move whole, so once it is idle the table
		// says whether one moved this incarnation (a drain closes the
		// session before it moves the route) or its node died under the
		// chunk (a closed server rejects ingest); either way, retry.
		c.owner.Lock()
		now := c.tab.Load().lookup(extID)
		c.owner.Unlock()
		if now != nil && now.srv == rt.srv && now.localID == rt.localID && !rt.dead() {
			return res, err
		}
	}
}

// recovered counts n frames a chunk stranded on a dead owner framed
// again on session extID's new owner.
func (c *Cluster) recovered(extID string, n uint64) {
	c.owner.Lock()
	defer c.owner.Unlock()
	c.commit(func(t *table) {
		if rt := t.lookup(extID); rt != nil {
			next := *rt
			next.recoveredFrames += n
			t.put(rt, &next)
		}
		t.recovered += n
	})
}

// Snapshot returns the session's state under its fleet-wide ID.
func (c *Cluster) Snapshot(extID string) (serve.SessionSnapshot, error) {
	rt := c.tab.Load().lookup(extID)
	if rt == nil {
		return serve.SessionSnapshot{}, fmt.Errorf("%w: %q", serve.ErrNoSession, extID)
	}
	return c.snapshotRoute(rt)
}

// snapshotRoute reads the owning node's snapshot and rewrites it to
// the fleet view: fleet-wide ID, node name, failover accounting,
// lost-session state.
func (c *Cluster) snapshotRoute(rt *route) (serve.SessionSnapshot, error) {
	snap, err := rt.srv.Snapshot(rt.localID)
	if err != nil {
		if !rt.closed {
			return serve.SessionSnapshot{}, err
		}
		// Lost to a total failover or evicted on the node after close:
		// report the terminal state instead of a routing error.
		snap = serve.SessionSnapshot{State: "closed"}
	}
	if rt.closed && snap.State == "active" {
		snap.State = "closed"
	}
	return rt.fleetView(snap), nil
}

// fleetView rewrites a node snapshot of rt's session to the fleet view.
func (rt *route) fleetView(snap serve.SessionSnapshot) serve.SessionSnapshot {
	snap.ID = rt.extID
	snap.Node = rt.node.name
	snap.Failovers = rt.failovers
	snap.FailoverShedFrames = rt.shedFrames
	snap.FailoverRecoveredFrames = rt.recoveredFrames
	snap.Migrations = rt.migrations
	return snap
}

// Snapshots lists every routed session in creation order: the open
// ones and the newest serve.MaxClosed closed ones.
func (c *Cluster) Snapshots() []serve.SessionSnapshot {
	t := c.tab.Load()
	routes := append(t.opened(nil), t.closed...)
	slices.SortFunc(routes, func(a, b *route) int { return cmp.Compare(a.seq, b.seq) })
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
// final snapshot under the fleet-wide ID.
func (c *Cluster) CloseSession(extID string) (serve.SessionSnapshot, error) {
	c.owner.Lock()
	defer c.owner.Unlock()
	_, rt, err := c.routeLocked(extID)
	if err != nil {
		return serve.SessionSnapshot{}, err
	}
	snap, err := rt.srv.CloseSession(rt.localID)
	if err != nil {
		return serve.SessionSnapshot{}, err
	}
	if !rt.closed {
		closed := *rt
		closed.closed = true
		t := c.commit(func(t *table) { t.put(rt, &closed) })
		// The session is done; its replicated journal has nothing left to
		// recover, and the fence keeps a late append from resurrecting it.
		c.dropReplicas(rt, t.epoch)
	}
	return rt.fleetView(*snap), nil
}

// Journal reports session extID's journal as its owner keeps it and
// every entry the fleet's live nodes hold for it in their replica
// stores, in node order.
func (c *Cluster) Journal(extID string) (serve.JournalStats, []serve.ReplicaEntry, error) {
	rt := c.tab.Load().lookup(extID)
	if rt == nil {
		return serve.JournalStats{}, nil, fmt.Errorf("%w: %q", serve.ErrNoSession, extID)
	}
	var log []serve.ReplicaEntry
	for _, n := range c.nodes {
		if n.state() != stateDead {
			log = append(log, n.server().ReplicaLog(extID)...)
		}
	}
	st, err := rt.srv.SessionJournalStats(rt.localID)
	return st, log, err
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
		if n.state() != stateDead {
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
	for _, srv := range c.servers() {
		t.Merge(srv.Totals())
	}
	return t
}

// SchedTotals sums every node's execution-scheduler counters across
// incarnations — the fleet's micro-batching roll-up (dispatches,
// coalesced members, occupancy).
func (c *Cluster) SchedTotals() sched.Stats {
	var t sched.Stats
	for _, srv := range c.servers() {
		t.Merge(srv.SchedStats())
	}
	return t
}

// sessionsOn counts open routed sessions per node name.
func (c *Cluster) sessionsOn() map[string]int {
	out := map[string]int{}
	for _, rt := range c.tab.Load().local {
		out[rt.node.name]++
	}
	return out
}
