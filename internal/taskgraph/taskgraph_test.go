package taskgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"evedge/internal/hw"
	"evedge/internal/nn"
	"evedge/internal/perf"
)

func setup(t testing.TB, names ...string) (*perf.ProfileDB, *perf.Model, []*nn.Network) {
	t.Helper()
	platform := hw.Xavier()
	m := perf.NewModel(platform)
	nets := make([]*nn.Network, len(names))
	dens := make([]float64, len(names))
	for i, n := range names {
		nets[i] = nn.MustByName(n)
		dens[i] = 0.05
	}
	db, err := perf.BuildProfileDB(m, nets, true, dens)
	if err != nil {
		t.Fatal(err)
	}
	return db, m, nets
}

// uniform places every layer on one device at one precision.
func uniform(nets []*nn.Network, dev int, p nn.Precision) *Assignment {
	a := NewAssignment(nets)
	for t := range nets {
		for l := range nets[t].Layers {
			a.Device[t][l] = dev
			a.Prec[t][l] = p
		}
	}
	return a
}

func TestAssignmentValidate(t *testing.T) {
	db, _, nets := setup(t, nn.DOTIE)
	platform := db.Platform()
	good := uniform(nets, 1, nn.FP16) // GPU
	if err := good.Validate(nets, platform); err != nil {
		t.Fatal(err)
	}
	// DLA (2) does not support FP32.
	bad := uniform(nets, 2, nn.FP32)
	if err := bad.Validate(nets, platform); err == nil {
		t.Fatal("unsupported precision accepted")
	}
	// Unknown device.
	bad2 := uniform(nets, 9, nn.FP16)
	if err := bad2.Validate(nets, platform); err == nil {
		t.Fatal("unknown device accepted")
	}
	// Wrong shape.
	bad3 := &Assignment{Device: [][]int{{0}}, Prec: [][]nn.Precision{{nn.FP32}, {nn.FP32}}}
	if err := bad3.Validate(nets, platform); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	// Clone is deep.
	c := good.Clone()
	c.Device[0][0] = 0
	if good.Device[0][0] == 0 {
		t.Fatal("clone shares storage")
	}
}

func TestSingleDeviceChainSchedulesSerially(t *testing.T) {
	db, m, nets := setup(t, nn.SpikeFlowNet)
	asg := uniform(nets, 1, nn.FP16)
	g, err := Build(db, m, asg)
	if err != nil {
		t.Fatal(err)
	}
	// Same-device edges need no comm nodes.
	if g.CommNodeCount() != 0 {
		t.Fatalf("comm nodes=%d want 0", g.CommNodeCount())
	}
	s, err := g.Run(db.Platform())
	if err != nil {
		t.Fatal(err)
	}
	// Serial chain: makespan equals the sum of durations.
	var sum float64
	for _, node := range g.Nodes {
		sum += node.DurUS
	}
	if diff := s.MakespanUS - sum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("makespan %f != serial sum %f", s.MakespanUS, sum)
	}
	if s.TaskLatencyUS[0] != s.MakespanUS {
		t.Fatal("single task latency must equal makespan")
	}
	if s.EnergyJ <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestCrossDeviceEdgesInsertCommNodes(t *testing.T) {
	db, m, nets := setup(t, nn.SpikeFlowNet)
	asg := uniform(nets, 1, nn.FP16)
	// Move the decoder (layers 6..11) to DLA0.
	for l := 6; l < 12; l++ {
		asg.Device[0][l] = 2
	}
	g, err := Build(db, m, asg)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one cut edge: res2(5) -> dec1(6). The rest of the decoder
	// is DLA-internal.
	if g.CommNodeCount() != 1 {
		t.Fatalf("comm nodes=%d want 1", g.CommNodeCount())
	}
	s, err := g.Run(db.Platform())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range g.Nodes {
		if n.Kind == CommNode && s.NodeEnd[i] <= s.NodeStart[i] {
			t.Fatalf("comm node %d takes no time: [%v, %v]", i, s.NodeStart[i], s.NodeEnd[i])
		}
	}
	// Labels are formatted on demand: "net/layer@device" for compute,
	// "net/producer->consumer's device" for the transfer.
	p := db.Platform()
	for _, n := range g.Nodes {
		want := nets[0].Name + "/" + nets[0].Layers[5].Name + "->" + p.Devices[2].Name
		if n.Kind == ComputeNode {
			want = nets[0].Name + "/" + nets[0].Layers[n.Ref.Layer].Name + "@" + p.Devices[n.Dev].Name
		}
		if got := g.Label(n.ID); got != want {
			t.Fatalf("node %d label %q, want %q", n.ID, got, want)
		}
	}
}

func TestDependenciesRespected(t *testing.T) {
	db, m, nets := setup(t, nn.FusionFlowNet)
	r := rand.New(rand.NewSource(3))
	asg := NewAssignment(nets)
	platform := db.Platform()
	for l := range nets[0].Layers {
		d := r.Intn(len(platform.Devices))
		asg.Device[0][l] = d
		ps := platform.Devices[d].Precisions()
		asg.Prec[0][l] = ps[r.Intn(len(ps))]
	}
	g, err := Build(db, m, asg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Run(platform)
	if err != nil {
		t.Fatal(err)
	}
	// Every node starts after all its parents end.
	for _, node := range g.Nodes {
		for _, p := range node.Preds {
			if s.NodeStart[node.ID] < s.NodeEnd[p]-1e-9 {
				t.Fatalf("node %d starts %f before parent %d ends %f",
					node.ID, s.NodeStart[node.ID], p, s.NodeEnd[p])
			}
		}
		if s.NodeEnd[node.ID] < s.NodeStart[node.ID] {
			t.Fatal("negative duration span")
		}
	}
}

// Property: scheduling respects dependencies and queue exclusivity for
// random assignments of a two-task workload.
func TestScheduleInvariantsProperty(t *testing.T) {
	db, m, nets := setup(t, nn.DOTIE, nn.EVFlowNet)
	platform := db.Platform()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		asg := NewAssignment(nets)
		for ti := range nets {
			for l := range nets[ti].Layers {
				d := r.Intn(len(platform.Devices))
				asg.Device[ti][l] = d
				ps := platform.Devices[d].Precisions()
				asg.Prec[ti][l] = ps[r.Intn(len(ps))]
			}
		}
		g, err := Build(db, m, asg)
		if err != nil {
			return false
		}
		s, err := g.Run(platform)
		if err != nil {
			return false
		}
		// Dependencies.
		for _, node := range g.Nodes {
			for _, p := range node.Preds {
				if s.NodeStart[node.ID] < s.NodeEnd[p]-1e-9 {
					return false
				}
			}
		}
		// Per-device exclusivity: spans on one device must not overlap.
		type span struct{ s, e float64 }
		byDev := map[int][]span{}
		for _, node := range g.Nodes {
			if node.Kind == ComputeNode {
				byDev[node.Dev] = append(byDev[node.Dev], span{s.NodeStart[node.ID], s.NodeEnd[node.ID]})
			}
		}
		for _, spans := range byDev {
			for i := range spans {
				for j := i + 1; j < len(spans); j++ {
					a, b := spans[i], spans[j]
					if a.s < b.e-1e-9 && b.s < a.e-1e-9 && a.e-a.s > 0 && b.e-b.s > 0 {
						return false
					}
				}
			}
		}
		return s.MakespanUS > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoTasksOverlapOnDifferentDevices(t *testing.T) {
	db, m, nets := setup(t, nn.DOTIE, nn.HidalgoDepth)
	// DOTIE on CPU, depth on GPU: they run concurrently, so the
	// makespan is far below the serial sum.
	asg := NewAssignment(nets)
	for l := range nets[0].Layers {
		asg.Device[0][l], asg.Prec[0][l] = 0, nn.FP32
	}
	for l := range nets[1].Layers {
		asg.Device[1][l], asg.Prec[1][l] = 1, nn.FP16
	}
	g, err := Build(db, m, asg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Run(db.Platform())
	if err != nil {
		t.Fatal(err)
	}
	serial := s.TaskLatencyUS[0] + s.TaskLatencyUS[1]
	if s.MakespanUS >= serial {
		t.Fatalf("no overlap: makespan %f vs serial %f", s.MakespanUS, serial)
	}
	// Both devices worked.
	if s.DeviceBusyUS["CPU"] <= 0 || s.DeviceBusyUS["GPU"] <= 0 {
		t.Fatalf("busy: %+v", s.DeviceBusyUS)
	}
}

func TestContentionSerializesSharedDevice(t *testing.T) {
	db, _, nets := setup(t, nn.DOTIE, nn.DOTIE)
	m := perf.NewModel(db.Platform())
	asg := uniform(nets, 1, nn.FP16)
	g, err := Build(db, m, asg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Run(db.Platform())
	if err != nil {
		t.Fatal(err)
	}
	// Two identical single-layer tasks on one device: the second waits.
	if s.TaskLatencyUS[0] == s.TaskLatencyUS[1] {
		t.Fatalf("shared device should serialize: %v", s.TaskLatencyUS)
	}
}

func TestBuildRejectsBadAssignment(t *testing.T) {
	db, m, nets := setup(t, nn.DOTIE)
	bad := uniform(nets, 2, nn.FP32) // DLA has no FP32
	if _, err := Build(db, m, bad); err == nil {
		t.Fatal("bad assignment accepted")
	}
}
