package cluster

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"evedge/internal/serve"
)

// NodeHealth is one fleet member's view in /healthz.
type NodeHealth struct {
	Name           string         `json:"name"`
	Platform       string         `json:"platform"`
	State          string         `json:"state"` // up | draining | dead
	SessionsActive int            `json:"sessions_active"`
	SessionsTotal  int            `json:"sessions_total"`
	Workers        int            `json:"workers"`
	Load           serve.NodeLoad `json:"load"`
}

// Health is the cluster /healthz payload. Its top-level fields mirror
// the single-node serve.Health JSON (status, uptime_s, sessions_*,
// workers, platform, mapper) so single-node clients keep decoding it;
// the fleet detail rides alongside.
type Health struct {
	Status         string  `json:"status"` // ok | degraded | down
	UptimeS        float64 `json:"uptime_s"`
	SessionsActive int     `json:"sessions_active"`
	SessionsTotal  int     `json:"sessions_total"`
	Workers        int     `json:"workers"`
	Platform       string  `json:"platform"`
	Mapper         string  `json:"mapper"`

	Policy             string `json:"policy"`
	NodesUp            int    `json:"nodes_up"`
	NodesTotal         int    `json:"nodes_total"`
	FailoverSessions   uint64 `json:"failover_sessions"`
	FailoverShedFrames uint64 `json:"failover_shed_frames"`
	// FailoverRecoveredFrames counts frames regenerated after node kills
	// (lossless failover): by replaying replicated journals, or by
	// re-sending a chunk a dying owner took after its log was taken.
	FailoverRecoveredFrames uint64 `json:"failover_recovered_frames"`
	LostSessions            uint64 `json:"lost_sessions"`
	// RebalanceMigrations counts load-driven session moves (the
	// signal-triggered migrations, not kill/drain failovers).
	RebalanceMigrations uint64       `json:"rebalance_migrations"`
	Nodes               []NodeHealth `json:"nodes"`
}

// Health reports fleet and per-node state.
func (c *Cluster) Health() Health {
	h := Health{
		UptimeS:    time.Since(c.start).Seconds(),
		Platform:   c.fleetName(),
		Mapper:     string(c.cfg.Node.Mapper),
		Policy:     string(c.cfg.Policy),
		NodesTotal: len(c.nodes),

		SessionsTotal: int(c.nextID.Load()),
	}
	t := c.tab.Load()
	h.FailoverSessions, h.FailoverShedFrames, h.FailoverRecoveredFrames = t.failovers, t.shed, t.recovered
	h.LostSessions, h.RebalanceMigrations = t.lost, t.migrations
	if h.Mapper == "" {
		h.Mapper = string(serve.MapperRR)
	}
	perNode := c.sessionsOn()
	for _, n := range c.nodes {
		nh := NodeHealth{
			Name:           n.name,
			Platform:       n.platform,
			State:          n.stateName(),
			SessionsActive: perNode[n.name],
		}
		sh := n.server().Health()
		nh.SessionsTotal = sh.SessionsTotal
		nh.Workers = sh.Workers
		nh.Load = n.server().Load()
		if n.alive() {
			h.NodesUp++
			h.Workers += nh.Workers
			h.SessionsActive += nh.SessionsActive
		}
		h.Nodes = append(h.Nodes, nh)
	}
	switch {
	case h.NodesUp == 0:
		h.Status = "down"
	case h.NodesUp < len(c.nodes):
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	return h
}

// fleetName summarizes the fleet composition, e.g.
// "fleet(xavier x2, orin x2)".
func (c *Cluster) fleetName() string {
	counts := map[string]int{}
	var order []string
	for _, n := range c.nodes {
		if counts[n.platform] == 0 {
			order = append(order, n.platform)
		}
		counts[n.platform]++
	}
	parts := make([]string, len(order))
	for i, p := range order {
		parts[i] = fmt.Sprintf("%s x%d", p, counts[p])
	}
	return "fleet(" + strings.Join(parts, ", ") + ")"
}

// handleMetrics renders fleet totals, per-node gauges, and every
// node's own series (scoped by a node label) in one scrape.
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	pw := serve.NewPromWriter()
	h := c.Health()
	pw.Gauge("evcluster_uptime_seconds", "Cluster router uptime.", "", h.UptimeS)
	pw.Gauge("evcluster_nodes", "Configured fleet size.", "", float64(h.NodesTotal))
	pw.Gauge("evcluster_nodes_up", "Nodes accepting sessions.", "", float64(h.NodesUp))
	pw.Gauge("evcluster_sessions_active", "Open sessions routed across the fleet.", "", float64(h.SessionsActive))
	pw.Gauge("evcluster_sessions_total", "Sessions created since start (fleet-wide IDs).", "", float64(h.SessionsTotal))
	pw.Counter("evcluster_failover_sessions_total", "Sessions re-created on a surviving node.", "", float64(h.FailoverSessions))
	pw.Counter("evcluster_failover_shed_frames_total", "Queued frames lost to node failures.", "", float64(h.FailoverShedFrames))
	pw.Counter("evcluster_failover_recovered_frames_total", "Queued frames recovered by journal replay after node failures.", "", float64(h.FailoverRecoveredFrames))
	pw.Counter("evcluster_sessions_lost_total", "Sessions lost because no node survived.", "", float64(h.LostSessions))
	pw.Counter("evcluster_rebalance_migrations_total", "Load-driven session migrations.", "", float64(h.RebalanceMigrations))

	// Fleet totals from every node's monotonic roll-up, dead nodes and
	// retired incarnations included: closed sessions are folded in at
	// close time, so the counters do not depend on closed-session
	// retention, the in-process corpse of a killed node carries exactly
	// the last-seen totals a real router would have cached before
	// losing the scrape, and a revive retires that corpse instead of
	// zeroing its contribution.
	var events, frames, dropped, invocs, rawDone, retunes, remaps float64
	for i, n := range c.nodes {
		nh := h.Nodes[i]
		lbl := serve.PromLabels("node", n.name, "platform", n.platform)
		up := 0.0
		if n.alive() {
			up = 1
		}
		pw.Gauge("evcluster_node_up", "1 when the node accepts sessions.", lbl, up)
		pw.Gauge("evcluster_node_sessions_active", "Open routed sessions on the node.", lbl, float64(nh.SessionsActive))
		pw.Gauge("evcluster_node_utilization", "Capacity-weighted active-session cost.", lbl, nh.Load.Utilization)
		pw.Gauge("evcluster_node_queued_frames", "Frames waiting in the node's ingest queues.", lbl, float64(nh.Load.QueuedFrames))
		pw.Gauge("evcluster_node_capacity_macs", "Aggregate peak MAC rate of the node.", lbl, nh.Load.CapacityMACs)
		pw.Gauge("evcluster_node_pending_invocations", "Invocations waiting in the node's scheduler run queues.", lbl, float64(nh.Load.PendingInvocations))
		pw.Gauge("evcluster_node_backlog_us", "Deepest device queue relative to the idlest on the node (virtual us).", lbl, nh.Load.BacklogUS)
		var nt serve.SessionTotals
		for _, srv := range n.incarnations() {
			nt.Merge(srv.Totals())
		}
		events += float64(nt.EventsIn)
		frames += float64(nt.FramesIn)
		dropped += float64(nt.FramesDropped)
		invocs += float64(nt.Invocations)
		rawDone += float64(nt.RawFramesDone)
		retunes += float64(nt.Retunes)
		remaps += float64(nt.Remaps)
	}
	pw.Counter("evcluster_events_total", "Events ingested across the fleet.", "", events)
	pw.Counter("evcluster_frames_total", "Sparse frames produced across the fleet.", "", frames)
	pw.Counter("evcluster_frames_dropped_total", "Frames shed by ingest queues across the fleet.", "", dropped)
	pw.Counter("evcluster_invocations_total", "Inference launches across the fleet.", "", invocs)
	pw.Counter("evcluster_raw_frames_done_total", "Raw frames completed across the fleet.", "", rawDone)
	pw.Counter("evcluster_retunes_total", "DSFA retunes applied across the fleet.", "", retunes)
	pw.Counter("evcluster_remaps_total", "Execution plans installed after the first across the fleet.", "", remaps)

	// Fleet-wide execution-scheduler roll-up: how much cross-session
	// work the per-node schedulers coalesced into micro-batches.
	st := c.SchedTotals()
	pw.Counter("evcluster_sched_submitted_total", "Invocations submitted to node schedulers across the fleet.", "", float64(st.Submitted))
	pw.Counter("evcluster_sched_dispatches_total", "Micro-batches dispatched across the fleet.", "", float64(st.Dispatches))
	pw.Counter("evcluster_sched_coalesced_total", "Invocations that rode multi-member micro-batches across the fleet.", "", float64(st.Coalesced))
	pw.Gauge("evcluster_sched_batch_occupancy", "Mean invocations per dispatch across the fleet (1 = serialized).", "", st.Occupancy())

	// Every alive node's own series, scoped by node.
	for _, n := range c.nodes {
		if n.state() == stateDead {
			continue
		}
		n.server().WriteMetrics(pw, "evserve", serve.PromLabels("node", n.name))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(pw.String()))
}
