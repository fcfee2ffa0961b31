package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"evedge/internal/nn"
	"evedge/internal/obs"
	"evedge/internal/serve"
)

// TestClusterTrace drives a small fleet with tracing on through an
// ingest + kill-failover episode and checks the merged trace: one
// process group per node, a fleet track with the failover annotation,
// and merged stage histograms.
func TestClusterTrace(t *testing.T) {
	cfg := Config{
		Nodes: specs(t, "xavier:2"),
		Node:  serve.Config{ManualDrain: true, Trace: obs.Config{Enabled: true}},
	}
	tc, stop := newTestClusterURL(t, cfg)
	defer stop()
	c := tc.c

	net := nn.MustByName(nn.SpikeFlowNet)
	var ids []string
	for i := 0; i < 2; i++ {
		snap, err := c.CreateSession(serve.SessionConfig{Network: nn.SpikeFlowNet, Level: 2})
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		ids = append(ids, snap.ID)
	}
	stream := genStream(t, net.Input.Preset, 1, 100_000)
	for _, chunk := range chunks(stream, 100_000, 20_000) {
		for _, id := range ids {
			if _, err := c.Ingest(id, serve.StreamChunk(chunk)); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
		}
		c.Pump()
	}
	// Kill one node: its sessions fail over, annotated on the fleet track.
	victim := c.Snapshots()[0].Node
	if err := c.KillNode(victim); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	c.ProbeNow()

	resp, err := http.Get(tc.base + "/v1/trace")
	if err != nil {
		t.Fatalf("GET /v1/trace: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/trace = %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("merged trace not valid JSON: %v", err)
	}
	nodes, lanes := map[string]bool{}, map[string]bool{}
	var names []string
	for _, ev := range doc.TraceEvents {
		args, _ := ev["args"].(map[string]any)
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			nodes[args["name"].(string)] = true
		}
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			lanes[args["name"].(string)] = true
		}
		if n, ok := ev["name"].(string); ok {
			names = append(names, n)
		}
	}
	for _, want := range []string{"router", "xavier0", "xavier1"} {
		if !nodes[want] {
			t.Errorf("merged trace missing node group %q (have %v)", want, nodes)
		}
	}
	if !lanes["fleet"] {
		t.Errorf("merged trace missing fleet lane (have %v)", lanes)
	}
	joined := strings.Join(names, "\n")
	for _, want := range []string{"kill:" + victim, "failover:", "hop:"} {
		if !strings.Contains(joined, want) {
			t.Errorf("fleet track missing %q annotation", want)
		}
	}

	hists := c.StageHists()
	if hists == nil {
		t.Fatal("StageHists returned nil with tracing on")
	}
	byStage := map[string]obs.HistSnapshot{}
	for _, h := range hists {
		byStage[h.Stage] = h
	}
	for _, stage := range []string{"queue", "exec", "frame"} {
		if byStage[stage].Count == 0 {
			t.Errorf("merged stage histogram %q is empty", stage)
		}
	}
}

// TestClusterTraceDisabled pins the off-path: no tracer, 404 endpoint,
// nil histograms.
func TestClusterTraceDisabled(t *testing.T) {
	cfg := Config{Nodes: specs(t, "xavier"), Node: serve.Config{ManualDrain: true}}
	tc, stop := newTestClusterURL(t, cfg)
	defer stop()
	if tc.c.tracer != nil || tc.c.StageHists() != nil {
		t.Fatal("disabled tracing still built fleet tracer state")
	}
	resp, err := http.Get(tc.base + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("GET /v1/trace with tracing off = %d, want 404", resp.StatusCode)
	}
}
