// Package control is the online adaptation plane that closes Ev-Edge's
// runtime loop for long-lived serving. The paper's headline result
// depends on *runtime* adaptation — DSFA tracks scene dynamics and
// hardware backlog, the NMP remaps networks across heterogeneous PEs
// as load shifts — but a serving deployment freezes both at session
// creation. This package supplies the two controllers that un-freeze
// them:
//
//   - Retuner: a per-session hysteresis controller that widens the
//     DSFA aggregation window (larger buckets, looser delay/density
//     thresholds, harder combine modes) while the session is backed
//     up, and narrows it back toward the create-time tuning when the
//     backlog clears. Scene dynamics modulate the hysteresis: merging
//     a static scene costs little accuracy, so widening is eager;
//     a dynamic scene narrows eagerly to recover temporal fidelity.
//
//   - RemapPlanner: a per-node cooldown gate that watches device-level
//     load signals (utilization spread, queue backlog) and decides
//     when a warm-started incremental NMP search (nmp.SearchFrom) is
//     worth running, and whether its result is enough of an
//     improvement to install.
//
// Both controllers are pure decision logic over telemetry snapshots:
// the serve layer feeds them SessionSample/DeviceSignals and applies
// their outputs (dsfa retunes, plan swaps); the cluster router feeds
// the same DeviceSignals shape with node-level loads to decide session
// migration. Keeping the decisions here, free of HTTP and engine
// state, makes them deterministic and unit-testable.
package control

import (
	"sync"

	"evedge/internal/dsfa"
)

// SessionSample is one session's cumulative telemetry snapshot. The
// Retuner diffs successive samples itself, so producers only report
// running totals — no windowing state leaks into the serving layer.
type SessionSample struct {
	// StreamUS is the session's stream-time watermark (virtual us).
	StreamUS int64
	// FramesDropped counts frames shed anywhere: ingest queue plus the
	// DSFA inference queue.
	FramesDropped uint64
	// QueueLen/QueueCap describe the bounded ingest queue.
	QueueLen, QueueCap int
	// AggQueued is merged buckets awaiting dispatch.
	AggQueued int
	// DensitySum/DensityN accumulate the spatial density of ingested
	// frames; the controller reads scene dynamics from window means.
	DensitySum float64
	DensityN   int
}

// DeviceSignals is one processing element's (or, at the fleet level,
// one node's) load signal.
type DeviceSignals struct {
	// Utilization is busy time over elapsed time (PE) or
	// capacity-weighted session cost (node).
	Utilization float64
	// BacklogUS is queued-but-unexecuted work in virtual microseconds,
	// measured relative to the least-backlogged peer. Producers that
	// cannot express backlog in time units leave it 0; the remap gate
	// then decides on utilization alone.
	BacklogUS float64
	// Queued counts invocations waiting in the execution scheduler's
	// run queue for this PE (0 when the producer has no scheduler) —
	// the queue-depth signal internal/sched exposes. The remap gate
	// treats a queued-invocation spread past RemapConfig.QueueTh as a
	// third trigger.
	Queued int
}

// DSFAConfig tunes the per-session retune controller.
type DSFAConfig struct {
	// DecideEveryUS is the minimum stream time between decisions.
	DecideEveryUS int64
}

// The retune controller's fixed tuning.
const (
	// patience is how many consecutive pressured (or calm) decisions
	// must accumulate before the controller widens (or narrows) —
	// the hysteresis that keeps it from chattering on noise.
	patience = 2
	// highWater and lowWater are ingest-queue fill fractions: above
	// highWater counts as backlog pressure, below lowWater as calm.
	highWater, lowWater = 0.75, 0.25
	// maxWiden caps the widening exponent: thresholds scale by up to
	// 2^maxWiden over the create-time anchor tuning.
	maxWiden = 3
	// dynamicsTh is the relative change in window-mean frame density
	// that counts as a scene shift.
	dynamicsTh = 0.35
)

// DefaultDSFAConfig returns the controller defaults: decide at most
// every 50 ms of stream time.
func DefaultDSFAConfig() DSFAConfig {
	return DSFAConfig{DecideEveryUS: 50_000}
}

// normalized fills zero fields with defaults.
func (c DSFAConfig) normalized() DSFAConfig {
	if c.DecideEveryUS <= 0 {
		c.DecideEveryUS = DefaultDSFAConfig().DecideEveryUS
	}
	return c
}

// Retuner is the per-session DSFA controller. It anchors at the
// session's create-time tuning (the narrow end, chosen per task for
// accuracy) and tracks a widening exponent: each widening step doubles
// the merge-bucket size and the delay/density admission thresholds and
// — past the first step — forces the cAdd combine mode, trading
// temporal granularity for backlog clearance exactly as the paper's
// Sec. 4.2 trades them under load. Narrowing walks back toward the
// anchor when the queue drains.
type Retuner struct {
	cfg    DSFAConfig
	anchor dsfa.Config

	widen    int
	pressure int
	calm     int

	sampled      bool
	last         SessionSample
	lastDecideUS int64
	prevWinDen   float64
	hasPrevDen   bool
	dynamic      bool

	retunes uint64
}

// NewRetuner builds a controller anchored at the session's create-time
// aggregator tuning.
func NewRetuner(cfg DSFAConfig, anchor dsfa.Config) *Retuner {
	return &Retuner{cfg: cfg.normalized(), anchor: anchor}
}

// Config derives the aggregator tuning for the current widening level.
func (r *Retuner) Config() dsfa.Config {
	cfg := r.anchor
	if r.widen == 0 {
		return cfg
	}
	factor := 1 << r.widen
	cfg.MBSize = r.anchor.MBSize * factor
	cfg.MtThUS = r.anchor.MtThUS * int64(factor)
	cfg.MdTh = r.anchor.MdTh * float64(factor)
	if cfg.EBufSize < cfg.MBSize {
		cfg.EBufSize = cfg.MBSize
	}
	// cBatch does not merge at all; the first widening step must start
	// merging, and deep widening merges hard regardless of anchor mode.
	if r.anchor.Mode == dsfa.CBatch || r.widen >= 2 {
		cfg.Mode = dsfa.CAdd
	}
	return cfg
}

// Retunes returns how many tuning changes the controller has emitted.
func (r *Retuner) Retunes() uint64 { return r.retunes }

// Observe folds one telemetry sample and returns (cfg, true) when the
// controller decides the aggregator should be retuned to cfg. Samples
// arriving faster than DecideEveryUS of stream time are absorbed
// without a decision.
func (r *Retuner) Observe(s SessionSample) (dsfa.Config, bool) {
	if !r.sampled {
		r.sampled = true
		r.last = s
		r.lastDecideUS = s.StreamUS
		return dsfa.Config{}, false
	}
	if s.StreamUS-r.lastDecideUS < r.cfg.DecideEveryUS {
		return dsfa.Config{}, false
	}

	// Window deltas since the previous decision.
	dDrop := s.FramesDropped - r.last.FramesDropped
	fill := 0.0
	if s.QueueCap > 0 {
		fill = float64(s.QueueLen) / float64(s.QueueCap)
	}
	// Scene dynamics: relative change of the window-mean density.
	if dn := s.DensityN - r.last.DensityN; dn > 0 {
		winDen := (s.DensitySum - r.last.DensitySum) / float64(dn)
		if r.hasPrevDen && r.prevWinDen > 0 {
			rel := (winDen - r.prevWinDen) / r.prevWinDen
			if rel < 0 {
				rel = -rel
			}
			r.dynamic = rel > dynamicsTh
		}
		r.prevWinDen = winDen
		r.hasPrevDen = true
	}
	r.last = s
	r.lastDecideUS = s.StreamUS

	pressured := fill >= highWater || dDrop > 0 ||
		s.AggQueued >= r.anchor.QueueCap
	calm := fill <= lowWater && dDrop == 0 && s.AggQueued == 0

	// Dynamics modulate the hysteresis: a static scene widens eagerly
	// (merging it costs little accuracy), a dynamic scene narrows
	// eagerly (temporal fidelity is worth more).
	widenPatience, narrowPatience := patience, patience
	if !r.dynamic {
		widenPatience = 1
	} else {
		narrowPatience = 1
	}

	switch {
	case pressured:
		r.calm = 0
		r.pressure++
		if r.pressure >= widenPatience && r.widen < maxWiden {
			r.pressure = 0
			r.widen++
			r.retunes++
			return r.Config(), true
		}
	case calm:
		r.pressure = 0
		r.calm++
		if r.calm >= narrowPatience && r.widen > 0 {
			r.calm = 0
			r.widen--
			r.retunes++
			return r.Config(), true
		}
	default:
		r.pressure = 0
		r.calm = 0
	}
	return dsfa.Config{}, false
}

// RemapConfig tunes the per-node remap planner.
type RemapConfig struct {
	// CooldownUS is the minimum virtual time between installed remaps
	// (wall-clock us at the fleet level); it bounds search cost and
	// stops plan thrash.
	CooldownUS float64
	// ImbalanceTh is the device-utilization spread (max - min) that
	// justifies searching for a better mapping.
	ImbalanceTh float64
	// QueueTh is the scheduler queue-depth spread (max - min queued
	// invocations across PEs) that justifies a remap search on its own.
	// 0 disables the trigger (the default): utilization and backlog
	// spreads keep gating as before.
	QueueTh int
}

// The remap planner's fixed tuning.
const (
	// remapMinGain is the fractional predicted-latency improvement a
	// candidate plan must deliver to be installed.
	remapMinGain = 0.05
	// remapBudget caps the warm-started search's generations so a
	// remap completes at control-loop latency.
	remapBudget = 6
)

// DefaultRemapConfig returns the planner defaults.
func DefaultRemapConfig() RemapConfig {
	return RemapConfig{
		CooldownUS:  250_000,
		ImbalanceTh: 0.25,
	}
}

// normalized fills zero fields with defaults.
func (c RemapConfig) normalized() RemapConfig {
	def := DefaultRemapConfig()
	if c.CooldownUS <= 0 {
		c.CooldownUS = def.CooldownUS
	}
	if c.ImbalanceTh <= 0 {
		c.ImbalanceTh = def.ImbalanceTh
	}
	return c
}

// RemapPlanner gates warm-started NMP remaps behind load imbalance and
// a cooldown. It is shared state across worker goroutines (serve) or
// probe passes (cluster), so it locks internally.
type RemapPlanner struct {
	mu        sync.Mutex
	cfg       RemapConfig
	lastUS    float64
	hasRemap  bool
	searches  uint64
	committed uint64
	lastGain  float64
	inFlight  bool
}

// NewRemapPlanner builds a planner; the first trigger is allowed
// immediately (no cooldown before any remap happened).
func NewRemapPlanner(cfg RemapConfig) *RemapPlanner {
	return &RemapPlanner{cfg: cfg.normalized()}
}

// Imbalance is the utilization spread across devices (max - min).
func Imbalance(devs []DeviceSignals) float64 {
	if len(devs) == 0 {
		return 0
	}
	min, max := devs[0].Utilization, devs[0].Utilization
	for _, d := range devs[1:] {
		if d.Utilization < min {
			min = d.Utilization
		}
		if d.Utilization > max {
			max = d.Utilization
		}
	}
	return max - min
}

// BacklogSpread is the queue-depth spread across devices (max - min of
// BacklogUS).
func BacklogSpread(devs []DeviceSignals) float64 {
	if len(devs) == 0 {
		return 0
	}
	min, max := devs[0].BacklogUS, devs[0].BacklogUS
	for _, d := range devs[1:] {
		if d.BacklogUS < min {
			min = d.BacklogUS
		}
		if d.BacklogUS > max {
			max = d.BacklogUS
		}
	}
	return max - min
}

// QueuedSpread is the scheduler queue-depth spread across devices
// (max - min of Queued invocations).
func QueuedSpread(devs []DeviceSignals) int {
	if len(devs) == 0 {
		return 0
	}
	min, max := devs[0].Queued, devs[0].Queued
	for _, d := range devs[1:] {
		if d.Queued < min {
			min = d.Queued
		}
		if d.Queued > max {
			max = d.Queued
		}
	}
	return max - min
}

// Ready reports whether a remap attempt could be claimed at nowUS —
// the cheap pre-gate (no signals needed) callers on hot paths check
// before paying for a telemetry snapshot. It claims nothing.
func (p *RemapPlanner) Ready(nowUS float64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inFlight {
		return false
	}
	return !p.hasRemap || nowUS-p.lastUS >= p.cfg.CooldownUS
}

// ShouldRemap reports whether the device signals at virtual time nowUS
// justify starting a warm remap search, and claims the attempt (a
// second caller gets false until Done/Committed releases it). Two
// signals trigger: lifetime-utilization spread past ImbalanceTh,
// instantaneous queue-depth spread worth more than one cooldown of
// work (one device drowning while another idles), or — when QueueTh
// is configured — a scheduler queued-invocation spread past it.
func (p *RemapPlanner) ShouldRemap(nowUS float64, devs []DeviceSignals) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inFlight {
		return false
	}
	if p.hasRemap && nowUS-p.lastUS < p.cfg.CooldownUS {
		return false
	}
	queuedHot := p.cfg.QueueTh > 0 && QueuedSpread(devs) >= p.cfg.QueueTh
	if Imbalance(devs) < p.cfg.ImbalanceTh && BacklogSpread(devs) < p.cfg.CooldownUS && !queuedHot {
		return false
	}
	p.inFlight = true
	p.searches++
	return true
}

// Accept decides whether a candidate plan with predicted latency
// newLatencyUS should replace the current plan at curLatencyUS.
func (p *RemapPlanner) Accept(curLatencyUS, newLatencyUS float64) bool {
	if curLatencyUS <= 0 {
		return false
	}
	return (curLatencyUS-newLatencyUS)/curLatencyUS >= remapMinGain
}

// Committed records an installed remap at virtual time nowUS and
// releases the in-flight claim.
func (p *RemapPlanner) Committed(nowUS float64, gain float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastUS = nowUS
	p.hasRemap = true
	p.committed++
	p.lastGain = gain
	p.inFlight = false
}

// Done releases the in-flight claim after a search that did not
// install (still starts the cooldown, so a fruitless search is not
// retried immediately).
func (p *RemapPlanner) Done(nowUS float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastUS = nowUS
	p.hasRemap = true
	p.inFlight = false
}

// Budget returns the warm-start generation budget.
func (p *RemapPlanner) Budget() int { return remapBudget }

// CooldownRemainingUS reports the virtual time left before the next
// remap is allowed (0 when ready) — exposed in /metrics.
func (p *RemapPlanner) CooldownRemainingUS(nowUS float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.hasRemap {
		return 0
	}
	if rem := p.cfg.CooldownUS - (nowUS - p.lastUS); rem > 0 {
		return rem
	}
	return 0
}

// Stats reports (searches started, remaps installed, last installed
// fractional gain).
func (p *RemapPlanner) Stats() (searches, committed uint64, lastGain float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.searches, p.committed, p.lastGain
}
