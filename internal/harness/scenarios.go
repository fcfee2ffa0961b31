package harness

import (
	"fmt"
	"sort"

	"evedge/internal/nn"
)

// stdMix is the default heterogeneous session palette: a tiny
// windowed tracker, two count-framed flow networks whose frame rate
// follows the event rate (they frame every zoo N events, so a phase's
// rate gain raises it), and a slow windowed depth network — four
// tasks, three framing behaviours, two optimization levels.
func stdMix() []SessionSpec {
	return []SessionSpec{
		{Network: nn.DOTIE, Level: 2, QueueCap: 48, RateHz: 60_000},
		{Network: nn.SpikeFlowNet, Level: 2, QueueCap: 32, RateHz: 80_000},
		{Network: nn.EVFlowNet, Level: 1, QueueCap: 32, RateHz: 60_000},
		{Network: nn.HidalgoDepth, Level: 2, QueueCap: 32, RateHz: 50_000},
	}
}

// tightMix is stdMix with small queue bounds — the palette for
// overload scenarios that must shed.
func tightMix() []SessionSpec {
	mix := stdMix()
	for i := range mix {
		mix[i].QueueCap = 12
	}
	return mix
}

// scenarios is the named library. Keep scripts deterministic-friendly:
// every knob that matters is in the script, nothing reads the
// environment.
func scenarios() []Script {
	return []Script{
		{
			Name:  "steady",
			Notes: "Single node, constant load with slow churn: the no-chaos baseline every other scenario is diffed against.",
			Mix:   stdMix(),
			Phases: []Phase{
				{Name: "warmup", Ticks: 10, Arrive: 3},
				{Name: "cruise", Ticks: 40, ArriveEvery: 10, Depart: 1},
				{Name: "cooldown", Ticks: 15, Depart: 2},
			},
		},
		{
			Name:      "flash-crowd",
			Notes:     "A quiet fleet hit by a sudden session wave plus a 6x traffic burst; bounded queues must shed, nothing may leak.",
			Nodes:     "xavier:2",
			Mix:       tightMix(),
			PumpEvery: 2,
			Phases: []Phase{
				{Name: "calm", Ticks: 15, Arrive: 2},
				{Name: "crowd", Ticks: 30, Arrive: 6, Burst: &Burst{FromTick: 5, Ticks: 12, Gain: 6}},
				{Name: "decay", Ticks: 20, Depart: 4},
			},
			Expect: Expect{Drops: true},
		},
		{
			Name: "rolling-kill",
			Notes: "Kill each node in turn, reviving the previous one, with the session journal on: every kill lands on an " +
				"un-pumped backlog, yet failovers replay the replicated journal instead of shedding — the lossless-failover contract.",
			Nodes:     "xavier:3",
			Mix:       stdMix(),
			PumpEvery: 2,
			Journal:   true,
			// Odd phase boundaries put every kill one tick after a skipped
			// pump, so the victim always holds queued frames the journal
			// must recover.
			Phases: []Phase{
				{Name: "warm", Ticks: 9, Arrive: 5},
				{Name: "kill-0", Ticks: 20, Kill: []string{"xavier0"}},
				{Name: "kill-1", Ticks: 20, Revive: []string{"xavier0"}, Kill: []string{"xavier1"}},
				{Name: "kill-2", Ticks: 20, Revive: []string{"xavier1"}, Kill: []string{"xavier2"}},
				{Name: "recover", Ticks: 16, Revive: []string{"xavier2"}},
			},
			Expect: Expect{MinFailovers: 3, ZeroShed: true, MinRecovered: 1},
		},
		{
			Name: "journal-catchup",
			Notes: "One node of a journaled pair dies mid-burst with a deep queued backlog; the buddy replays the replicated " +
				"journal, sheds nothing, and the revived node rejoins for the wind-down.",
			Nodes:     "xavier:2",
			Mix:       stdMix(),
			PumpEvery: 2,
			Journal:   true,
			Phases: []Phase{
				{Name: "warm", Ticks: 9, Arrive: 4, Burst: &Burst{FromTick: 4, Ticks: 5, Gain: 3}},
				{Name: "outage", Ticks: 20, Kill: []string{"xavier0"}},
				{Name: "recover", Ticks: 15, Revive: []string{"xavier0"}, Depart: 1},
			},
			Expect: Expect{MinFailovers: 1, ZeroShed: true, MinRecovered: 1},
		},
		{
			Name:  "drain-rebalance",
			Notes: "Gracefully drain a node and return it: every session survives, zero frames shed — the lossless-maintenance contract.",
			Nodes: "xavier:2,orin:1",
			Mix:   stdMix(),
			Phases: []Phase{
				{Name: "warm", Ticks: 10, Arrive: 6},
				{Name: "drain", Ticks: 25, Drain: []string{"xavier0"}},
				{Name: "return", Ticks: 25, Undrain: []string{"xavier0"}, ArriveEvery: 8},
				{Name: "wind-down", Ticks: 10, Depart: 3},
			},
			Expect: Expect{MinFailovers: 1},
		},
		{
			Name:      "dynamics-flip",
			Notes:     "Scene dynamics flip 1x -> 5x -> 1x on a single adaptive node: the DSFA controller must widen under the storm and narrow after.",
			Adapt:     true,
			Mix:       tightMix(),
			PumpEvery: 2,
			Phases: []Phase{
				{Name: "calm", Ticks: 25, Arrive: 4},
				{Name: "storm", Ticks: 30, RateGain: 5},
				{Name: "calm-again", Ticks: 25, RateGain: 1},
			},
			Expect: Expect{MinRetunes: 1, Drops: true},
		},
		{
			Name:   "hot-node-migration",
			Notes:  "Hash placement skews load across two equal nodes; the rebalancer must migrate sessions off the hot node, one per cooldown.",
			Nodes:  "xavier:2",
			Policy: "hash",
			Mix:    stdMix(),
			// The capacity-weighted utilization of a handful of sessions
			// is ~1e-3, so the gap threshold sits at that scale.
			RebalanceGap:        0.0008,
			RebalanceCooldownUS: 200_000,
			Phases: []Phase{
				{Name: "warm", Ticks: 10, Arrive: 6},
				{Name: "hot", Ticks: 45},
				{Name: "cool", Ticks: 10, Depart: 2},
			},
			Expect: Expect{MinMigrations: 1},
		},
		{
			Name: "batched-burst",
			Notes: "Six same-network sessions on one node under a flash-crowd burst: the execution scheduler must coalesce " +
				"compatible invocations into cross-session micro-batches (occupancy > 1) while conservation holds exactly.",
			Mix:       []SessionSpec{{Network: nn.DOTIE, Level: 2, QueueCap: 64, RateHz: 80_000}},
			PumpEvery: 2,
			Trace:     true,
			Phases: []Phase{
				{Name: "fill", Ticks: 10, Arrive: 6},
				{Name: "crowd", Ticks: 30, Burst: &Burst{FromTick: 5, Ticks: 15, Gain: 4}},
				{Name: "drain", Ticks: 15, Depart: 3},
			},
			// Stage p99 bounds sit ~2x above the measured seed-7 values
			// (queue 43.6ms, exec 1.1ms, frame 14.0ms): loose enough to
			// absorb seed-to-seed variation, tight enough that a stage
			// regression (queue runaway, slow kernels, latency creep)
			// trips the contract.
			Expect: Expect{
				MinBatchOccupancy: 1.5,
				MaxStageP99US:     map[string]float64{"queue": 90_000, "exec": 2_500, "frame": 30_000},
			},
		},
		{
			Name:  "mixed-platform",
			Notes: "Heterogeneous Xavier+Orin fleet under least-loaded placement with churn and one maintenance drain.",
			Nodes: "xavier:2,orin:2",
			Mix:   stdMix(),
			Phases: []Phase{
				{Name: "warm", Ticks: 10, Arrive: 8},
				{Name: "churn", Ticks: 30, ArriveEvery: 6, Depart: 2},
				{Name: "maintain", Ticks: 15, Drain: []string{"xavier0"}},
				{Name: "finish", Ticks: 15, Undrain: []string{"xavier0"}, Depart: 3},
			},
			Expect: Expect{MinFailovers: 1},
		},
		{
			Name:        "soak",
			Notes:       "Long mixed-chaos run: churn, a burst, a drain/undrain cycle and a kill/revive cycle back to back — the regression soak.",
			Nodes:       "xavier:2,orin:1",
			Mix:         stdMix(),
			PumpEvery:   2,
			SampleEvery: 5,
			Phases: []Phase{
				{Name: "warm", Ticks: 20, Arrive: 4},
				{Name: "churn-1", Ticks: 50, ArriveEvery: 10, Depart: 2, Burst: &Burst{FromTick: 20, Ticks: 10, Gain: 3}},
				{Name: "maintain", Ticks: 30, Drain: []string{"orin2"}},
				{Name: "churn-2", Ticks: 50, Undrain: []string{"orin2"}, ArriveEvery: 12, Depart: 2},
				{Name: "outage", Ticks: 30, Kill: []string{"xavier1"}},
				{Name: "recover", Ticks: 40, Revive: []string{"xavier1"}, ArriveEvery: 10},
				{Name: "wind-down", Ticks: 20, Depart: 4},
			},
			Expect: Expect{MinFailovers: 1},
		},
	}
}

// Names lists the scenario library in display order.
func Names() []string {
	all := scenarios()
	out := make([]string, len(all))
	for i, sc := range all {
		out[i] = sc.Name
	}
	sort.Strings(out)
	return out
}

// Get returns a library scenario by name.
func Get(name string) (Script, error) {
	for _, sc := range scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Script{}, fmt.Errorf("harness: unknown scenario %q (have %v)", name, Names())
}
