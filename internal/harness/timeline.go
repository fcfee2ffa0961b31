package harness

import (
	"encoding/json"

	"evedge/internal/obs"
	"evedge/internal/serve"
)

// TotalsSample is the JSON-friendly projection of the fleet's
// monotonic counter roll-up recorded in every timeline entry.
type TotalsSample struct {
	Sessions          uint64 `json:"sessions"`
	EventsIn          uint64 `json:"events_in"`
	FramesIn          uint64 `json:"frames_in"`
	FramesDropped     uint64 `json:"frames_dropped"`
	FramesDroppedDSFA uint64 `json:"frames_dropped_dsfa"`
	Invocations       uint64 `json:"invocations"`
	RawFramesDone     uint64 `json:"raw_frames_done"`
	Retunes           uint64 `json:"retunes"`
	Remaps            uint64 `json:"remaps"`
	LatencyCount      uint64 `json:"latency_count"`
}

func totalsSample(t serve.SessionTotals) TotalsSample {
	return TotalsSample{
		Sessions:          t.Sessions,
		EventsIn:          t.EventsIn,
		FramesIn:          t.FramesIn,
		FramesDropped:     t.FramesDropped,
		FramesDroppedDSFA: t.FramesDroppedDSFA,
		Invocations:       t.Invocations,
		RawFramesDone:     t.RawFramesDone,
		Retunes:           t.Retunes,
		Remaps:            t.Remaps,
		LatencyCount:      t.LatencyCount,
	}
}

// NodeSample is one node's state in a timeline entry. Residuals count
// frames sitting in the node's local active sessions (ingest queues
// and DSFA aggregators, every incarnation) — the term that closes
// fleet-wide frame conservation.
type NodeSample struct {
	Name        string  `json:"name"`
	Platform    string  `json:"platform,omitempty"`
	State       string  `json:"state"`
	Sessions    int     `json:"sessions"`
	Utilization float64 `json:"utilization"`
	// Residual* count the current incarnation's in-flight frames;
	// Retired* the frames stranded in killed incarnations (a dead
	// node's own residual moves here when it is revived).
	ResidualQueued int `json:"residual_queued"`
	ResidualAgg    int `json:"residual_agg"`
	RetiredQueued  int `json:"retired_queued,omitempty"`
	RetiredAgg     int `json:"retired_agg,omitempty"`
}

// Entry is one timeline record: a phase marker, an executed action, or
// a periodic sample. Every entry carries the full fleet observation at
// that virtual instant, so invariants can be checked across all of
// them.
type Entry struct {
	TUS  int64  `json:"t_us"`
	Kind string `json:"kind"` // "phase" | "action" | "sample" | "final"
	// Note narrates the entry: "phase flash-crowd", "kill xavier0",
	// "create c3 (DOTIE/2) -> xavier1", "close c1".
	Note string `json:"note,omitempty"`

	Sessions   int          `json:"sessions"` // open fleet sessions
	Totals     TotalsSample `json:"totals"`
	Failovers  uint64       `json:"failovers"`
	ShedFrames uint64       `json:"shed_frames"`
	// Recovered counts queued frames regenerated by journal replay
	// after node kills (lossless failover).
	Recovered  uint64 `json:"recovered_frames"`
	Lost       uint64 `json:"lost"`
	Migrations uint64 `json:"migrations"`
	// SchedSubmitted/SchedDispatched/SchedDispatches roll up the
	// execution schedulers' counters fleet-wide; dispatched members
	// over dispatches is the micro-batch occupancy the batched-burst
	// contract checks (submitted minus dispatched is the in-flight
	// backlog at the instant of the entry).
	SchedSubmitted  uint64       `json:"sched_submitted"`
	SchedDispatched uint64       `json:"sched_dispatched"`
	SchedDispatches uint64       `json:"sched_dispatches"`
	Nodes           []NodeSample `json:"nodes"`
}

// SessionFinal is one fleet session's terminal record.
type SessionFinal struct {
	ID            string `json:"id"`
	Network       string `json:"network"`
	Level         string `json:"level"`
	State         string `json:"state"`
	Node          string `json:"node,omitempty"`
	EventsIn      uint64 `json:"events_in"`
	FramesIn      uint64 `json:"frames_in"`
	FramesDropped uint64 `json:"frames_dropped"`
	RawFramesDone uint64 `json:"raw_frames_done"`
	Failovers     int    `json:"failovers,omitempty"`
	Migrations    int    `json:"migrations,omitempty"`
	ShedFrames    uint64 `json:"shed_frames,omitempty"`
	// RecoveredFrames counts this session's journal-replayed frames
	// across all of its failovers.
	RecoveredFrames uint64  `json:"recovered_frames,omitempty"`
	Retunes         uint64  `json:"retunes,omitempty"`
	Remaps          uint64  `json:"remaps,omitempty"`
	MeanLatencyUS   float64 `json:"mean_latency_us"`
	P99LatencyUS    float64 `json:"p99_latency_us"`
}

// Result is one scenario run: the full timeline plus the terminal
// state. Encoded with Encode it is byte-identical across runs of the
// same (scenario, seed) pair.
type Result struct {
	Scenario   string         `json:"scenario"`
	Seed       int64          `json:"seed"`
	TickUS     int64          `json:"tick_us"`
	Ticks      int            `json:"ticks"`
	Timeline   []Entry        `json:"timeline"`
	Final      Entry          `json:"final"`
	Sessions   []SessionFinal `json:"session_finals"`
	CooldownUS int64          `json:"rebalance_cooldown_us,omitempty"`
	// SampleUS is the sampling period (SampleEvery ticks of virtual
	// time) — the observation quantum the cooldown check must tolerate:
	// a migration becomes visible only at the next recorded entry.
	SampleUS int64 `json:"sample_us"`
	// NoKills is true when the script never kills a node — the
	// invariant checker then requires zero lost sessions AND zero shed
	// frames (drains must be lossless).
	NoKills bool `json:"no_kills"`
	// Stages is the per-stage frame-lifecycle latency roll-up (merged
	// across nodes), present only when the script enables Trace. A
	// slice of structs, not a map, so Encode stays byte-deterministic.
	Stages []obs.StageSummary `json:"stages,omitempty"`
}

// Encode renders the result as deterministic, indented JSON. Only
// structs and slices are marshalled (no maps), so field order — and
// therefore the byte stream — is fixed for a given run.
func (r *Result) Encode() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
