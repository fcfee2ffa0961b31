package taskgraph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"evedge/internal/hw"
	"evedge/internal/nn"
	"evedge/internal/perf"
)

// referenceGraph is what Build produced before graphs were rebuilt in
// place: one heap node per layer and per transfer, Preds grown by
// append. referenceBuild and referenceRun are that Build and Run,
// kept verbatim as the oracle for BuildInto and RunInto.
type referenceGraph struct {
	Nodes     []*Node
	Networks  []*nn.Network
	taskNodes [][]int
}

func referenceBuild(db *perf.ProfileDB, m *perf.Model, asg *Assignment) (*referenceGraph, error) {
	nets := db.Networks()
	platform := db.Platform()
	if err := asg.Validate(nets, platform); err != nil {
		return nil, err
	}
	g := &referenceGraph{Networks: nets, taskNodes: make([][]int, len(nets))}
	// computeID[t][l] = node ID of the layer's compute node.
	computeID := make([][]int, len(nets))
	add := func(n *Node) int {
		n.ID = len(g.Nodes)
		g.Nodes = append(g.Nodes, n)
		return n.ID
	}
	for t, net := range nets {
		computeID[t] = make([]int, len(net.Layers))
		for l := range net.Layers {
			ref := perf.LayerRef{Task: t, Layer: l}
			dev := asg.Device[t][l]
			prec := asg.Prec[t][l]
			dur, ok := db.TimeUS(ref, dev, prec)
			if !ok {
				return nil, fmt.Errorf("taskgraph: no profile for task %d layer %d on device %d at %v",
					t, l, dev, prec)
			}
			node := &Node{Kind: ComputeNode, Ref: ref, Dev: dev, Prec: prec, DurUS: dur}
			id := add(node)
			computeID[t][l] = id
			g.taskNodes[t] = append(g.taskNodes[t], id)
			for _, p := range net.Preds[l] {
				prodDev := asg.Device[t][p]
				prodPrec := asg.Prec[t][p]
				if prodDev == dev {
					node.Preds = append(node.Preds, computeID[t][p])
					continue
				}
				comm := &Node{
					Kind: CommNode,
					Ref:  perf.LayerRef{Task: t, Layer: p},
					Dev:  -1, Prec: prodPrec,
					DurUS: m.CommUS(net.Layers[p], platform.Devices[prodDev], platform.Devices[dev], prodPrec),
					Preds: []int{computeID[t][p]},
					toDev: dev,
				}
				cid := add(comm)
				node.Preds = append(node.Preds, cid)
			}
		}
	}
	return g, nil
}

func referenceRun(g *referenceGraph, platform *hw.Platform) (*Schedule, error) {
	n := len(g.Nodes)
	s := &Schedule{
		NodeStart:     make([]float64, n),
		NodeEnd:       make([]float64, n),
		TaskLatencyUS: make([]float64, len(g.Networks)),
		DeviceBusyUS:  make(map[string]float64, len(platform.Devices)),
	}
	engine := hw.NewEngine(platform, false)
	umBusy := 0.0

	indeg := make([]int, n)
	succs := make([][]int, n)
	for _, node := range g.Nodes {
		indeg[node.ID] = len(node.Preds)
		for _, p := range node.Preds {
			succs[p] = append(succs[p], node.ID)
		}
	}
	readyAt := make([]float64, n)
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	scheduled := 0
	for len(ready) > 0 {
		best, bestStart := -1, 0.0
		for _, id := range ready {
			node := g.Nodes[id]
			start := readyAt[id]
			var qFree float64
			if node.Kind == CommNode {
				qFree = umBusy
			} else {
				qFree = engine.BusyUntil(platform.Devices[node.Dev])
			}
			if qFree > start {
				start = qFree
			}
			if best == -1 || start < bestStart ||
				(start == bestStart && lessNode(g.Nodes[id], g.Nodes[best])) {
				best, bestStart = id, start
			}
		}
		node := g.Nodes[best]
		var start, end float64
		if node.Kind == CommNode {
			start = readyAt[best]
			if umBusy > start {
				start = umBusy
			}
			end = start + node.DurUS
			umBusy = end
		} else {
			start, end = engine.Submit(platform.Devices[node.Dev], readyAt[best], node.DurUS, "")
		}
		s.NodeStart[best], s.NodeEnd[best] = start, end
		scheduled++
		for i, id := range ready {
			if id == best {
				ready = append(ready[:i], ready[i+1:]...)
				break
			}
		}
		for _, succ := range succs[best] {
			if end > readyAt[succ] {
				readyAt[succ] = end
			}
			indeg[succ]--
			if indeg[succ] == 0 {
				ready = append(ready, succ)
			}
		}
	}
	if scheduled != n {
		return nil, fmt.Errorf("taskgraph: cycle detected, scheduled %d of %d nodes", scheduled, n)
	}
	for t, ids := range g.taskNodes {
		for _, id := range ids {
			if s.NodeEnd[id] > s.TaskLatencyUS[t] {
				s.TaskLatencyUS[t] = s.NodeEnd[id]
			}
		}
		if s.TaskLatencyUS[t] > s.MakespanUS {
			s.MakespanUS = s.TaskLatencyUS[t]
		}
	}
	if umBusy > s.MakespanUS {
		s.MakespanUS = umBusy
	}
	for _, d := range platform.Devices {
		s.DeviceBusyUS[d.Name] = engine.BusyTime(d)
	}
	s.EnergyJ = engine.EnergyJoules(s.MakespanUS)
	return s, nil
}

// randomAssignment maps every layer to a random device at a random
// precision that device supports.
func randomAssignment(r *rand.Rand, nets []*nn.Network, platform *hw.Platform) *Assignment {
	asg := NewAssignment(nets)
	for t := range nets {
		for l := range nets[t].Layers {
			d := r.Intn(len(platform.Devices))
			ps := platform.Devices[d].Precisions()
			asg.Device[t][l] = d
			asg.Prec[t][l] = ps[r.Intn(len(ps))]
		}
	}
	return asg
}

// intoWorkloads alternate larger and smaller: a reused graph grows,
// then must forget the surplus, then grow again.
var intoWorkloads = [][]string{
	{nn.DOTIE},
	{nn.FusionFlowNet, nn.HALSIE, nn.DOTIE, nn.HidalgoDepth},
	{nn.SpikeFlowNet, nn.EVFlowNet},
	{nn.AdaptiveSpikeNet, nn.HALSIE, nn.SpikeFlowNet},
	{nn.HidalgoDepth},
	{nn.EVFlowNet, nn.FusionFlowNet, nn.AdaptiveSpikeNet, nn.SpikeFlowNet},
}

// TestBuildIntoMatchesFresh rebuilds ONE graph and reruns ONE schedule
// across random assignments of workloads of changing size and holds
// each to what a from-scratch build and run give: every node field and
// every schedule number, bit for bit.
func TestBuildIntoMatchesFresh(t *testing.T) {
	type workload struct {
		db    *perf.ProfileDB
		model *perf.Model
		nets  []*nn.Network
	}
	var loads []workload
	for _, names := range intoWorkloads {
		db, m, nets := setup(t, names...)
		loads = append(loads, workload{db, m, nets})
	}
	r := rand.New(rand.NewSource(24))
	var g Graph
	var s Schedule
	for i := 0; i < 240; i++ {
		w := loads[i%len(loads)]
		platform := w.db.Platform()
		asg := randomAssignment(r, w.nets, platform)
		want, err := referenceBuild(w.db, w.model, asg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.BuildInto(w.db, w.model, asg); err != nil {
			t.Fatal(err)
		}
		if len(g.Nodes) != len(want.Nodes) {
			t.Fatalf("case %d: %d nodes, fresh build has %d", i, len(g.Nodes), len(want.Nodes))
		}
		for id, n := range g.Nodes {
			f := want.Nodes[id]
			if n.ID != f.ID || n.Kind != f.Kind || n.Ref != f.Ref || n.Dev != f.Dev || n.Prec != f.Prec ||
				n.DurUS != f.DurUS || n.toDev != f.toDev || !slices.Equal(n.Preds, f.Preds) {
				t.Fatalf("case %d node %d: got %+v, fresh build has %+v", i, id, *n, *f)
			}
		}
		if !slices.EqualFunc(g.taskNodes, want.taskNodes, func(a, b []int) bool { return slices.Equal(a, b) }) {
			t.Fatalf("case %d: task nodes %v, fresh build has %v", i, g.taskNodes, want.taskNodes)
		}
		ws, err := referenceRun(want, platform)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RunInto(platform, &s); err != nil {
			t.Fatal(err)
		}
		if s.MakespanUS != ws.MakespanUS || s.EnergyJ != ws.EnergyJ ||
			!slices.Equal(s.NodeStart, ws.NodeStart) || !slices.Equal(s.NodeEnd, ws.NodeEnd) ||
			!slices.Equal(s.TaskLatencyUS, ws.TaskLatencyUS) || !maps.Equal(s.DeviceBusyUS, ws.DeviceBusyUS) {
			t.Fatalf("case %d: schedule differs from a fresh run\n got  %+v\n want %+v", i, s, *ws)
		}
		// The allocating wrappers are the same code.
		if i%40 == 0 {
			fg, err := Build(w.db, w.model, asg)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := fg.Run(platform)
			if err != nil {
				t.Fatal(err)
			}
			if fs.MakespanUS != ws.MakespanUS || fs.EnergyJ != ws.EnergyJ || !slices.Equal(fs.NodeEnd, ws.NodeEnd) {
				t.Fatalf("case %d: Build+Run differs from the reference", i)
			}
		}
	}
}

// TestBuildIntoSteadyStateZeroAlloc: once a graph and a schedule have
// seen a workload, re-pricing another assignment of it allocates
// nothing — the property a placement search's per-candidate cost
// rests on.
func TestBuildIntoSteadyStateZeroAlloc(t *testing.T) {
	db, m, nets := setup(t, nn.DOTIE, nn.HALSIE, nn.SpikeFlowNet, nn.HidalgoDepth)
	platform := db.Platform()
	r := rand.New(rand.NewSource(5))
	asgs := []*Assignment{randomAssignment(r, nets, platform), randomAssignment(r, nets, platform)}
	var g Graph
	var s Schedule
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		if err := g.BuildInto(db, m, asgs[i%2]); err != nil {
			t.Fatal(err)
		}
		if err := g.RunInto(platform, &s); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state rebuild + run allocates %.0f times, want 0", allocs)
	}
}

// TestRunIntoDetectsCycle: Nodes is exported, so a caller can wire a
// cycle; RunInto derives the successor lists from the nodes as they are
// and must still refuse it.
func TestRunIntoDetectsCycle(t *testing.T) {
	db, m, nets := setup(t, nn.DOTIE)
	g, err := Build(db, m, uniform(nets, 1, nn.FP16))
	if err != nil {
		t.Fatal(err)
	}
	g.Nodes[0].Preds = []int{len(g.Nodes) - 1}
	if _, err := g.Run(db.Platform()); err == nil {
		t.Fatal("a cyclic graph was scheduled")
	}
}

// BenchmarkBuildIntoRunInto is a placement search's per-candidate cost
// on the four-network serve_http_mixed workload: rebuild, reschedule.
func BenchmarkBuildIntoRunInto(b *testing.B) {
	db, m, nets := setup(b, nn.DOTIE, nn.HALSIE, nn.SpikeFlowNet, nn.HidalgoDepth)
	platform := db.Platform()
	asg := randomAssignment(rand.New(rand.NewSource(5)), nets, platform)
	var g Graph
	var s Schedule
	b.ReportAllocs()
	for b.Loop() {
		if err := g.BuildInto(db, m, asg); err != nil {
			b.Fatal(err)
		}
		if err := g.RunInto(platform, &s); err != nil {
			b.Fatal(err)
		}
	}
}
