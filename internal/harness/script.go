// Package harness is the deterministic scenario engine for the
// Ev-Edge serving stack. A declarative Script — phases of session
// arrivals and departures over a heterogeneous task mix, traffic
// bursts, scene-dynamics shifts, node kill/drain/revive/undrain — is
// compiled into a timed action plan and executed against an embedded
// cluster.Cluster (or a single serve.Server) on a virtual clock with a
// seeded RNG. Every tick the runner generates each session's event
// chunk, ingests it through the real routing/serving path, pumps the
// manual-drain worker queues, runs one health-probe pass, and records
// a structured timeline entry (fleet totals, per-node residuals,
// failover/migration counters).
//
// Determinism is the point: nothing in the loop reads the wall clock
// or runs on a background goroutine (serve.Config.ManualDrain,
// cluster.Config.Elapsed, negative ProbeInterval), so the same
// (scenario, seed) pair replays to a byte-identical JSON timeline —
// the regression bed every scaling PR runs against. The invariant
// checker in invariants.go then verifies system-wide properties on the
// recorded timeline: fleet-wide frame conservation, monotonic totals,
// no session lost on drain, migration-cooldown respect.
package harness

import (
	"fmt"

	"evedge/internal/cluster"
	"evedge/internal/nn"
	"evedge/internal/serve"
)

// SessionSpec describes one kind of client stream the scenario
// creates: the network it runs, the optimization level, its queue
// bound and shedding policy, and its base event rate.
type SessionSpec struct {
	// Network is a zoo network name (nn.AllNames).
	Network string `json:"network"`
	// Level is the cumulative optimization level 0-3.
	Level int `json:"level"`
	// QueueCap bounds the ingest queue (0 = server default).
	QueueCap int `json:"queue_cap,omitempty"`
	// DropPolicy is "drop-oldest" (default) or "drop-newest".
	DropPolicy string `json:"drop_policy,omitempty"`
	// RateHz is the base event rate in events per stream-second,
	// before phase gains and bursts.
	RateHz float64 `json:"rate_hz"`
}

// Burst is a traffic spike inside a phase: between FromTick and
// FromTick+Ticks (phase-relative), every session's event rate is
// multiplied by Gain on top of the phase gain.
type Burst struct {
	FromTick int     `json:"from_tick"`
	Ticks    int     `json:"ticks"`
	Gain     float64 `json:"gain"`
}

// Phase is one stage of a scenario. All actions fire at the phase
// start tick, in the field order below; arrivals spread over the phase
// when ArriveEvery is set.
type Phase struct {
	Name string `json:"name"`
	// Ticks is the phase duration in scenario ticks (>= 1).
	Ticks int `json:"ticks"`
	// Arrive creates this many sessions at phase start, round-robin
	// over the scenario Mix.
	Arrive int `json:"arrive,omitempty"`
	// ArriveEvery additionally creates one session every N ticks
	// through the phase (0 = off).
	ArriveEvery int `json:"arrive_every,omitempty"`
	// Depart closes the oldest open sessions at phase start.
	Depart int `json:"depart,omitempty"`
	// RateGain scales every session's event rate for the phase
	// (0 = 1.0). Changing it across phases is the scenario's
	// scene-dynamics shift: frame density follows the event rate, and
	// the adaptive controllers see exactly that signal.
	RateGain float64 `json:"rate_gain,omitempty"`
	// Burst is an optional traffic spike inside the phase.
	Burst *Burst `json:"burst,omitempty"`
	// Node chaos at phase start, by node name (e.g. "xavier0").
	Kill    []string `json:"kill,omitempty"`
	Drain   []string `json:"drain,omitempty"`
	Revive  []string `json:"revive,omitempty"`
	Undrain []string `json:"undrain,omitempty"`
}

// Expect is the scenario's own outcome contract, checked by the test
// suite and evscenario on top of the generic invariants.
type Expect struct {
	// MinRetunes is the minimum fleet-wide DSFA retunes.
	MinRetunes uint64 `json:"min_retunes,omitempty"`
	// MinMigrations is the minimum load-driven session migrations.
	MinMigrations uint64 `json:"min_migrations,omitempty"`
	// MinFailovers is the minimum kill/drain session failovers.
	MinFailovers uint64 `json:"min_failovers,omitempty"`
	// MinRecovered is the minimum journal-replayed frames fleet-wide
	// (requires Journal on the script).
	MinRecovered uint64 `json:"min_recovered,omitempty"`
	// ZeroShed requires the run to end with zero failover-shed frames —
	// the lossless-failover contract for journaled scenarios.
	ZeroShed bool `json:"zero_shed,omitempty"`
	// Drops requires at least one shed frame somewhere (ingest queue,
	// DSFA queue, or failover shed).
	Drops bool `json:"drops,omitempty"`
	// MinBatchOccupancy requires the final fleet-wide micro-batch
	// occupancy (scheduler submissions per dispatch) to reach at least
	// this value — > 1 proves cross-invocation coalescing happened.
	MinBatchOccupancy float64 `json:"min_batch_occupancy,omitempty"`
	// MaxStageP99US bounds the p99 of per-stage frame-lifecycle
	// latency (virtual us) by stage name ("queue", "exec", ...).
	// Requires Trace on the script; a named stage that recorded no
	// samples is itself a violation. Checked against Result.Stages.
	MaxStageP99US map[string]float64 `json:"max_stage_p99_us,omitempty"`
}

// Script is a declarative scenario. The zero values of most fields
// take defaults in normalized(); Validate reports structural errors
// before anything runs.
type Script struct {
	Name  string `json:"name"`
	Notes string `json:"notes,omitempty"`

	// Nodes is the fleet spec ("xavier:2,orin:1"); empty runs the
	// scenario against a single embedded serve.Server instead of a
	// cluster (chaos actions are then invalid).
	Nodes string `json:"nodes,omitempty"`
	// Policy is the placement policy (cluster only; "" = least-loaded).
	Policy string `json:"policy,omitempty"`
	// Mapper is the per-node session placement ("" = rr).
	Mapper string `json:"mapper,omitempty"`
	// BatchMax caps the execution scheduler's micro-batches on every
	// node (0 = serve default; 1 = serialized, no coalescing).
	BatchMax int `json:"batch_max,omitempty"`
	// Adapt enables the online control plane (DSFA retuning) on every
	// node for the whole run.
	Adapt bool `json:"adapt,omitempty"`
	// Trace enables frame-lifecycle tracing on every node: the run
	// records per-stage latency histograms into Result.Stages and can
	// emit a Chrome trace via RunTraced. Deterministic under the
	// virtual clock — same (scenario, seed), same trace bytes.
	Trace bool `json:"trace,omitempty"`
	// Journal enables the per-session event journal on every node:
	// ingested chunks replicate to a buddy node and a kill resumes the
	// dead node's sessions by replaying the journal instead of shedding
	// their queued frames.
	Journal bool `json:"journal,omitempty"`
	// RebalanceGap > 0 enables load-driven session migration between
	// nodes (cluster only), gated by RebalanceCooldownUS of virtual
	// time.
	RebalanceGap        float64 `json:"rebalance_gap,omitempty"`
	RebalanceCooldownUS int64   `json:"rebalance_cooldown_us,omitempty"`

	// TickUS is the virtual tick length (default 20ms).
	TickUS int64 `json:"tick_us,omitempty"`
	// PumpEvery drains the worker queues every N ticks (default 1);
	// larger values let ingest backlog build between drains.
	PumpEvery int `json:"pump_every,omitempty"`
	// SampleEvery records a timeline sample every N ticks (default 1).
	SampleEvery int `json:"sample_every,omitempty"`
	// SensorW/SensorH is the synthetic camera geometry (default
	// 173x130, the half-scale DAVIS346).
	SensorW, SensorH int `json:"-"`

	// Mix is the heterogeneous session palette arrivals cycle through.
	Mix []SessionSpec `json:"mix"`
	// Phases run back to back; total ticks is their sum.
	Phases []Phase `json:"phases"`

	Expect Expect `json:"expect,omitempty"`
}

// Defaults.
const (
	defaultTickUS  = 20_000
	defaultSensorW = 173
	defaultSensorH = 130
)

// normalized fills zero fields with defaults.
func (sc Script) normalized() Script {
	if sc.TickUS <= 0 {
		sc.TickUS = defaultTickUS
	}
	if sc.PumpEvery <= 0 {
		sc.PumpEvery = 1
	}
	if sc.SampleEvery <= 0 {
		sc.SampleEvery = 1
	}
	if sc.SensorW <= 0 {
		sc.SensorW = defaultSensorW
	}
	if sc.SensorH <= 0 {
		sc.SensorH = defaultSensorH
	}
	if sc.RebalanceGap > 0 && sc.RebalanceCooldownUS <= 0 {
		sc.RebalanceCooldownUS = 10 * sc.TickUS
	}
	return sc
}

// Validate reports structural script errors: empty phases or mix,
// unknown networks, chaos actions against a single-server scenario or
// unknown node names, bursts outside their phase.
func (sc Script) Validate() error {
	sc = sc.normalized()
	if sc.Name == "" {
		return fmt.Errorf("harness: script has no name")
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("harness: script %q has no phases", sc.Name)
	}
	if len(sc.Mix) == 0 {
		return fmt.Errorf("harness: script %q has no session mix", sc.Name)
	}
	for i, m := range sc.Mix {
		if _, err := nn.ByName(m.Network); err != nil {
			return fmt.Errorf("harness: script %q mix[%d]: %w", sc.Name, i, err)
		}
		if _, err := serve.ParseDropPolicy(m.DropPolicy); err != nil {
			return fmt.Errorf("harness: script %q mix[%d]: %w", sc.Name, i, err)
		}
		if m.RateHz <= 0 {
			return fmt.Errorf("harness: script %q mix[%d] (%s): rate must be positive, got %g",
				sc.Name, i, m.Network, m.RateHz)
		}
	}
	nodeNames := map[string]bool{}
	if sc.Nodes != "" {
		specs, err := cluster.ParseNodeSpecs(sc.Nodes)
		if err != nil {
			return fmt.Errorf("harness: script %q: %w", sc.Name, err)
		}
		if _, err := cluster.ParsePlacementPolicy(sc.Policy); err != nil {
			return fmt.Errorf("harness: script %q: %w", sc.Name, err)
		}
		for i, spec := range specs {
			nodeNames[cluster.DefaultNodeName(spec, i)] = true
		}
	}
	for pi, ph := range sc.Phases {
		if ph.Ticks < 1 {
			return fmt.Errorf("harness: script %q phase %d (%s): ticks must be >= 1", sc.Name, pi, ph.Name)
		}
		if ph.Burst != nil {
			b := ph.Burst
			if b.FromTick < 0 || b.Ticks < 1 || b.FromTick+b.Ticks > ph.Ticks {
				return fmt.Errorf("harness: script %q phase %d (%s): burst [%d,%d) outside phase of %d ticks",
					sc.Name, pi, ph.Name, b.FromTick, b.FromTick+b.Ticks, ph.Ticks)
			}
			if b.Gain <= 0 {
				return fmt.Errorf("harness: script %q phase %d (%s): burst gain must be positive", sc.Name, pi, ph.Name)
			}
		}
		for _, group := range [][]string{ph.Kill, ph.Drain, ph.Revive, ph.Undrain} {
			for _, name := range group {
				if sc.Nodes == "" {
					return fmt.Errorf("harness: script %q phase %d (%s): node action %q needs a cluster (Nodes is empty)",
						sc.Name, pi, ph.Name, name)
				}
				if !nodeNames[name] {
					return fmt.Errorf("harness: script %q phase %d (%s): unknown node %q", sc.Name, pi, ph.Name, name)
				}
			}
		}
	}
	if sc.Nodes == "" && sc.RebalanceGap > 0 {
		return fmt.Errorf("harness: script %q: rebalance gap needs a cluster (Nodes is empty)", sc.Name)
	}
	return nil
}

// TotalTicks is the scenario length in ticks.
func (sc Script) TotalTicks() int {
	n := 0
	for _, ph := range sc.Phases {
		n += ph.Ticks
	}
	return n
}

// action kinds, in per-tick execution order.
const (
	actPhase = iota
	actKill
	actDrain
	actRevive
	actUndrain
	actDepart
	actArrive
)

// action is one compiled plan step.
type action struct {
	tick int
	kind int
	arg  string // node name (chaos) or phase name (actPhase)
	n    int    // count (arrive/depart)
}

// plan is the compiled script: actions sorted by (tick, kind) plus the
// per-tick rate gain.
type plan struct {
	actions []action
	gains   []float64 // per tick
}

// compile flattens the phases into absolute-tick actions and gains.
// The script must already be normalized and validated.
func compile(sc Script) *plan {
	p := &plan{gains: make([]float64, sc.TotalTicks())}
	start := 0
	for _, ph := range sc.Phases {
		p.actions = append(p.actions, action{tick: start, kind: actPhase, arg: ph.Name})
		for _, name := range ph.Kill {
			p.actions = append(p.actions, action{tick: start, kind: actKill, arg: name})
		}
		for _, name := range ph.Drain {
			p.actions = append(p.actions, action{tick: start, kind: actDrain, arg: name})
		}
		for _, name := range ph.Revive {
			p.actions = append(p.actions, action{tick: start, kind: actRevive, arg: name})
		}
		for _, name := range ph.Undrain {
			p.actions = append(p.actions, action{tick: start, kind: actUndrain, arg: name})
		}
		if ph.Depart > 0 {
			p.actions = append(p.actions, action{tick: start, kind: actDepart, n: ph.Depart})
		}
		if ph.Arrive > 0 {
			p.actions = append(p.actions, action{tick: start, kind: actArrive, n: ph.Arrive})
		}
		if ph.ArriveEvery > 0 {
			for t := ph.ArriveEvery; t < ph.Ticks; t += ph.ArriveEvery {
				p.actions = append(p.actions, action{tick: start + t, kind: actArrive, n: 1})
			}
		}
		gain := ph.RateGain
		if gain <= 0 {
			gain = 1
		}
		for t := 0; t < ph.Ticks; t++ {
			g := gain
			if b := ph.Burst; b != nil && t >= b.FromTick && t < b.FromTick+b.Ticks {
				g *= b.Gain
			}
			p.gains[start+t] = g
		}
		start += ph.Ticks
	}
	// Stable order inside a tick: phase marker, chaos, departs,
	// arrivals — already appended in that order per phase, and phases
	// are appended in tick order, so a stable sort by tick suffices.
	sortActions(p.actions)
	return p
}

// sortActions orders by tick, preserving per-tick insertion order
// (insertion sort keeps it stable and the slices are small).
func sortActions(a []action) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].tick < a[j-1].tick; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// at returns the actions scheduled for one tick (plan actions are
// sorted by tick).
func (p *plan) at(tick int) []action {
	lo := 0
	for lo < len(p.actions) && p.actions[lo].tick < tick {
		lo++
	}
	hi := lo
	for hi < len(p.actions) && p.actions[hi].tick == tick {
		hi++
	}
	return p.actions[lo:hi]
}
