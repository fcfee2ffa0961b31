package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestScenarioTraceDeterministic replays batched-burst with tracing on
// and requires byte-identical Chrome trace output AND byte-identical
// timelines (now including the per-stage roll-up) per (scenario, seed).
func TestScenarioTraceDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		sc, err := Get("batched-burst")
		if err != nil {
			t.Fatal(err)
		}
		sc.Trace = true
		var trace bytes.Buffer
		res, err := RunTraced(sc, 7, &trace)
		if err != nil {
			t.Fatalf("RunTraced: %v", err)
		}
		enc, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return trace.Bytes(), enc
	}
	traceA, encA := run()
	traceB, encB := run()
	if !bytes.Equal(traceA, traceB) {
		t.Error("same (scenario, seed), different trace bytes")
	}
	if !bytes.Equal(encA, encB) {
		t.Error("same (scenario, seed), different timelines with tracing on")
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceA, &doc); err != nil {
		t.Fatalf("trace is not valid Chrome trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}

// TestScenarioTraceStages checks the per-stage roll-up a traced run
// records: the frame-lifecycle stages the batched-burst contract
// bounds (queue, agg, batch, exec) plus end-to-end frame latency all
// saw samples, and the roll-up feeds CheckExpect's MaxStageP99US.
func TestScenarioTraceStages(t *testing.T) {
	sc, err := Get("batched-burst")
	if err != nil {
		t.Fatal(err)
	}
	sc.Trace = true
	res, err := Run(sc, 7)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byStage := map[string]uint64{}
	for _, s := range res.Stages {
		byStage[s.Stage] = s.Count
		t.Logf("stage %-6s count=%-6d mean=%8.0fus p50=%8.0fus p99=%8.0fus max=%8.0fus",
			s.Stage, s.Count, s.MeanUS, s.P50US, s.P99US, s.MaxUS)
	}
	for _, stage := range []string{"queue", "agg", "batch", "exec", "frame"} {
		if byStage[stage] == 0 {
			t.Errorf("stage %q recorded no samples", stage)
		}
	}

	// MaxStageP99US enforcement: a generous bound passes, a 1us bound
	// fails, and a bound on an unrecorded stage is itself a violation.
	sc.Expect.MaxStageP99US = map[string]float64{"exec": 1e12}
	if v := CheckExpect(sc, res); len(v) != 0 {
		t.Errorf("generous stage bound violated: %v", v)
	}
	sc.Expect.MaxStageP99US = map[string]float64{"exec": 1}
	if v := CheckExpect(sc, res); len(v) == 0 {
		t.Error("1us exec p99 bound not flagged")
	}
	sc.Expect.MaxStageP99US = map[string]float64{"nosuch": 1e12}
	if v := CheckExpect(sc, res); len(v) == 0 {
		t.Error("bound on unrecorded stage not flagged")
	}

	// An untraced run records no stages; a stage bound then reports the
	// missing data instead of silently passing.
	sc.Trace = false
	plain, err := Run(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Stages) != 0 {
		t.Errorf("untraced run recorded %d stage summaries, want 0", len(plain.Stages))
	}
	sc.Expect.MaxStageP99US = map[string]float64{"exec": 1e12}
	if v := CheckExpect(sc, plain); len(v) == 0 {
		t.Error("stage bound against untraced run not flagged")
	}
}

// TestScenarioTraceNeutral pins behavior neutrality at the scenario
// level: tracing must not change what the system does, only record it.
// The timelines of a traced and an untraced batched-burst run must be
// identical except for the traced run's stage roll-up.
func TestScenarioTraceNeutral(t *testing.T) {
	sc, err := Get("batched-burst")
	if err != nil {
		t.Fatal(err)
	}
	sc.Trace = false
	plain, err := Run(sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	sc.Trace = true
	traced, err := Run(sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	traced.Stages = nil
	ja, _ := plain.Encode()
	jb, _ := traced.Encode()
	if !bytes.Equal(ja, jb) {
		t.Error("tracing changed the recorded timeline (must be observation-only)")
	}
}
