package serve

import (
	"evedge/internal/control"
	"evedge/internal/nmp"
	"evedge/internal/nn"
	"evedge/internal/obs"
	"evedge/internal/perf"
	"evedge/internal/pipeline"
	"evedge/internal/taskgraph"
)

// serveNMPConfig is the reduced search MapperNMP runs: small enough to
// run at session-create latency, large enough to beat round-robin
// placements.
func serveNMPConfig() nmp.Config {
	cfg := nmp.DefaultConfig()
	cfg.Population = 12
	cfg.Generations = 8
	return cfg
}

// NodeLoad is the server's load signal: what a fleet router needs to
// place sessions across heterogeneous nodes. Cost is the sum of the
// active sessions' per-inference dense MACs; Capacity is the
// platform's aggregate peak MAC rate at each device's best precision,
// so Utilization compares fairly across e.g. a Xavier and an Orin
// (the same session set loads the bigger platform less).
type NodeLoad struct {
	SessionsActive int     `json:"sessions_active"`
	QueuedFrames   int     `json:"queued_frames"`
	CostMACs       float64 `json:"cost_macs"`
	CapacityMACs   float64 `json:"capacity_macs"`
	Utilization    float64 `json:"utilization"`
	// PendingInvocations counts invocations sitting in the execution
	// scheduler's run queues right now — the live queue-depth signal
	// the fleet rebalancer consumes on top of the capacity-weighted
	// utilization. BacklogUS is the cumulative drain-time spread
	// between the node's busiest and idlest device (virtual us): it
	// grows over the node's lifetime and never decays, so it is an
	// operator-facing imbalance gauge, not a live backlog — the
	// migration gate must not compare it against time thresholds.
	PendingInvocations int     `json:"pending_invocations"`
	BacklogUS          float64 `json:"backlog_us"`
}

// deviceSignals snapshots per-device utilization, engine backlog and
// scheduler queue depth — the control plane's per-PE input, sourced
// from the execution scheduler's signals instead of ad-hoc engine
// reads. Backlog is measured relative to the least-backlogged device:
// at the makespan every absolute backlog is zero by definition, but
// the spread between device drain times is exactly the queue imbalance
// the remap gate wants to see. Queued adds the not-yet-dispatched
// invocations sitting in the scheduler's run queues.
func (s *Server) deviceSignals() ([]control.DeviceSignals, float64) {
	now := s.engine.Makespan()
	depths := s.sched.QueueDepths()
	devs := make([]control.DeviceSignals, len(s.cfg.Platform.Devices))
	minFree := 0.0
	for i, d := range s.cfg.Platform.Devices {
		free := s.engine.BusyUntil(d)
		devs[i] = control.DeviceSignals{BacklogUS: free, Queued: depths[d.ID]}
		if now > 0 {
			devs[i].Utilization = s.engine.BusyTime(d) / now
		}
		if i == 0 || free < minFree {
			minFree = free
		}
	}
	for i := range devs {
		devs[i].BacklogUS -= minFree
	}
	return devs, now
}

// Load returns the node-load signal a fleet router places against:
// active-session inference cost weighted by the platform's capacity.
func (s *Server) Load() NodeLoad {
	active := s.activeSessions()
	l := NodeLoad{SessionsActive: len(active), CapacityMACs: s.capacityMACs}
	for _, sess := range active {
		l.CostMACs += float64(sess.Net.TotalMACs())
		sess.mu.Lock()
		l.QueuedFrames += sess.queue.len()
		sess.mu.Unlock()
	}
	if l.CapacityMACs > 0 {
		l.Utilization = l.CostMACs / l.CapacityMACs
	}
	devs, _ := s.deviceSignals()
	for _, d := range devs {
		l.PendingInvocations += d.Queued
		l.BacklogUS = max(l.BacklogUS, d.BacklogUS)
	}
	return l
}

// rebalance recomputes the placement of all active sessions under the
// configured policy and installs the per-session plans. The placement
// computation (which for MapperNMP is an evolutionary search taking
// real time) runs outside sessMu so ingest, stats and health traffic
// are never stalled behind it; a generation check detects a
// concurrently changed session set and retries.
func (s *Server) rebalance() error {
	for {
		s.sessMu.Lock()
		gen := s.placeGen
		active := s.activeSessionsLocked()
		prev := s.lastAsg
		s.sessMu.Unlock()
		if len(active) == 0 {
			return nil
		}
		nets := make([]*nn.Network, len(active))
		for i, sess := range active {
			nets[i] = sess.Net
		}
		var asg *taskgraph.Assignment
		var err error
		if s.cfg.Mapper == MapperNMP {
			asg, err = s.searchAssignment(nets)
		} else {
			// Round-robin rows are rebuilt only for sessions that moved.
			asg, err = nmp.RRNetworkFrom(prev, nets, s.cfg.Platform)
		}
		if err != nil {
			return err
		}
		s.sessMu.Lock()
		if gen != s.placeGen {
			// The active set changed while we searched; recompute.
			s.sessMu.Unlock()
			continue
		}
		if err := s.installLocked(active, asg); err != nil {
			s.sessMu.Unlock()
			return err
		}
		s.sessMu.Unlock()
		return nil
	}
}

// installLocked installs a multi-task assignment over the active
// sessions' plan slots and records it as the warm-start seed. A
// session whose assignment row maps every layer as its installed plan
// does keeps that plan: no plan is built for it and no remap counted.
// Callers hold sessMu with the generation verified.
func (s *Server) installLocked(active []*Session, asg *taskgraph.Assignment) error {
	for i, sess := range active {
		if sess.plan.Load().MapsLike(asg, i) {
			continue
		}
		plan, err := pipeline.PlanFromAssignment(asg, i, sess.Level >= pipeline.LevelE2SF)
		if err != nil {
			return err
		}
		sess.plan.Swap(plan)
	}
	s.lastAsg = asg
	return nil
}

// maybeRemap runs one pass of the online remap loop: if device load
// signals show enough imbalance and the cooldown has expired, a
// warm-started incremental search (nmp.SearchFrom) runs from the live
// assignment, and its result is installed only when it predicts enough
// improvement. Called from workers after a drain pass; the planner's
// in-flight claim keeps it single-threaded.
func (s *Server) maybeRemap() {
	if s.planner == nil {
		return
	}
	// Cheap gate first: maybeRemap runs on every drain completion, and
	// during cooldown (or with a search in flight) the full signals
	// snapshot would be discarded anyway.
	clock := s.engine.Makespan()
	if !s.planner.Ready(clock) {
		return
	}
	devs, now := s.deviceSignals()
	if !s.planner.ShouldRemap(now, devs) {
		return
	}

	s.sessMu.Lock()
	gen := s.placeGen
	active := s.activeSessionsLocked()
	cur := s.lastAsg
	s.sessMu.Unlock()
	if cur == nil || len(active) == 0 || len(cur.Device) != len(active) {
		// No installed assignment to warm-start from (rebalance pending
		// or racing); release the claim and let the cooldown pace retry.
		s.planner.Done(now)
		return
	}

	nets := make([]*nn.Network, len(active))
	for i, sess := range active {
		nets[i] = sess.Net
	}
	mapper, err := s.buildMapper(nets)
	if err != nil {
		s.planner.Done(now)
		return
	}
	curLat, _, err := mapper.Predict(cur)
	if err != nil {
		s.planner.Done(now)
		return
	}
	res, err := mapper.SearchFrom(cur, s.planner.Budget())
	if err != nil {
		s.planner.Done(now)
		return
	}
	gain := 0.0
	if curLat > 0 {
		gain = (curLat - res.LatencyUS) / curLat
	}
	if !s.planner.Accept(curLat, res.LatencyUS) {
		s.planner.Done(now)
		return
	}

	s.sessMu.Lock()
	if gen != s.placeGen {
		// Session churn while searching: its rebalance installed a fresh
		// placement; drop this stale candidate.
		s.sessMu.Unlock()
		s.planner.Done(now)
		return
	}
	err = s.installLocked(active, res.Assignment)
	s.sessMu.Unlock()
	if err != nil {
		s.planner.Done(now)
		return
	}
	s.planner.Committed(now, gain)
	s.ctlTrack.Instant(obs.StageCtl, "remap", now, int64(len(active)))
}

// buildMapper profiles the workload and configures the Network Mapper
// (whose accuracy budgets default to Table 2) — shared by the create/close
// rebalance (full search) and the online remap (warm-started search).
func (s *Server) buildMapper(nets []*nn.Network) (*nmp.Mapper, error) {
	db, err := perf.BuildProfileDB(s.model, nets, true, nil)
	if err != nil {
		return nil, err
	}
	return nmp.NewMapper(db, s.model, serveNMPConfig())
}

// searchAssignment runs the full Network Mapper search over the active
// workload.
func (s *Server) searchAssignment(nets []*nn.Network) (*taskgraph.Assignment, error) {
	mapper, err := s.buildMapper(nets)
	if err != nil {
		return nil, err
	}
	res, err := mapper.Search()
	if err != nil {
		return nil, err
	}
	return res.Assignment, nil
}
