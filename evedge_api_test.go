package evedge_test

import (
	"strings"
	"testing"

	evedge "evedge"
)

func TestNetworkRegistry(t *testing.T) {
	if len(evedge.Networks()) != 7 {
		t.Fatalf("zoo size %d", len(evedge.Networks()))
	}
	if len(evedge.Table1Networks()) != 6 {
		t.Fatalf("table1 size %d", len(evedge.Table1Networks()))
	}
	for _, name := range evedge.Networks() {
		net, err := evedge.LoadNetwork(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := evedge.LoadNetwork("nope"); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestXavierAndSequences(t *testing.T) {
	p := evedge.Xavier()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(evedge.Presets()) == 0 {
		t.Fatal("no presets")
	}
	s, err := evedge.GenerateSequence(evedge.Presets()[0], evedge.HalfScale, 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() == 0 {
		t.Fatal("empty sequence")
	}
	if s.Width <= 0 || s.Height <= 0 || !s.Sorted() {
		t.Fatalf("sequence of %dx%d, sorted %t", s.Width, s.Height, s.Sorted())
	}
	if _, err := evedge.GenerateSequence("nope", evedge.HalfScale, 1, 100_000); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestPublicPlatformsAndCluster(t *testing.T) {
	for _, name := range []string{"xavier", "orin"} {
		p, err := evedge.PlatformByName(name)
		if err != nil {
			t.Fatalf("PlatformByName(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := evedge.PlatformByName("tpu"); err == nil {
		t.Fatal("unknown platform accepted")
	}

	specs, err := evedge.ParseNodeSpecs("xavier:1,orin:1")
	if err != nil {
		t.Fatalf("ParseNodeSpecs: %v", err)
	}
	pol, err := evedge.ParsePlacementPolicy("hash")
	if err != nil || pol != "hash" {
		t.Fatalf("ParsePlacementPolicy: %v, %v", pol, err)
	}
	c, err := evedge.NewCluster(evedge.ClusterConfig{Nodes: specs, ProbeInterval: -1})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	snap, err := c.CreateSession(evedge.ServeSessionConfig{Network: evedge.DOTIE, Level: 1})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if snap.Node == "" || !strings.HasPrefix(snap.ID, "c") {
		t.Fatalf("cluster snapshot: %+v", snap)
	}
	h := c.Health()
	if h.Status != "ok" || h.NodesUp != 2 || h.SessionsActive != 1 {
		t.Fatalf("cluster health: %+v", h)
	}
	if _, err := c.CloseSession(snap.ID); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
}

func TestPublicPipelineRun(t *testing.T) {
	net, err := evedge.LoadNetwork(evedge.DOTIE)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evedge.RunPipeline(evedge.PipelineConfig{
		Net: net, Level: evedge.LevelE2SF,
		Scale: evedge.HalfScale, DurUS: 300_000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanLatencyUS <= 0 || rep.RawFrames == 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
}

func TestPublicMapper(t *testing.T) {
	net, err := evedge.LoadNetwork(evedge.DOTIE)
	if err != nil {
		t.Fatal(err)
	}
	cfg := evedge.DefaultMapperConfig()
	cfg.Population = 8
	cfg.Generations = 6
	mp, err := evedge.NewMapper(evedge.Xavier(), []*evedge.Network{net}, []float64{0.01}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mp.Search()
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyUS <= 0 || res.Assignment == nil {
		t.Fatalf("degenerate search result %+v", res)
	}
}

func TestPublicExperiments(t *testing.T) {
	ids := evedge.Experiments()
	if len(ids) != 10 {
		t.Fatalf("experiments %d want the 10 paper tables and figures", len(ids))
	}
	res, err := evedge.RunExperiment("table1", evedge.QuickExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(evedge.RenderExperiment(res), "SpikeFlowNet") {
		t.Fatal("render missing content")
	}
	full := evedge.FullExperimentConfig()
	if full.DurUS <= 0 || full.Seed == 0 {
		t.Fatalf("bad full config %+v", full)
	}
}
