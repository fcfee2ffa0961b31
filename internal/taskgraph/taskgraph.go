// Package taskgraph builds the multi-task input graph of the paper's
// Network Mapper (Sec. 4.3, Fig. 7) and schedules it on the
// heterogeneous platform.
//
// Each node of the graph is one layer of one concurrently executing
// network; edges are data dependencies. Converting a graph into a
// candidate assigns every node a processing element and a precision,
// and inserts data-transfer nodes (executed on the unified-memory
// queue) wherever a producer and consumer land on different devices.
// Scheduling follows Eq. 3: per-device FIFO execution queues, a
// partial order from data dependencies, and
//
//	End_T(node) = max(End_T(parents), CurDeviceQ_T) + Exec_T(node)
//	CriticalPathLatency = max(End_T(*))
package taskgraph

import (
	"fmt"

	"evedge/internal/hw"
	"evedge/internal/nn"
	"evedge/internal/perf"
)

// Assignment maps every layer of every task to a device and precision
// — the paper's candidate encoding.
type Assignment struct {
	Device [][]int          // Device[t][l] = platform device ID
	Prec   [][]nn.Precision // Prec[t][l]
}

// NewAssignment allocates an assignment shaped like the workload.
func NewAssignment(nets []*nn.Network) *Assignment {
	a := &Assignment{
		Device: make([][]int, len(nets)),
		Prec:   make([][]nn.Precision, len(nets)),
	}
	for t, n := range nets {
		a.Device[t] = make([]int, len(n.Layers))
		a.Prec[t] = make([]nn.Precision, len(n.Layers))
	}
	return a
}

// Clone deep-copies the assignment.
func (a *Assignment) Clone() *Assignment {
	out := &Assignment{
		Device: make([][]int, len(a.Device)),
		Prec:   make([][]nn.Precision, len(a.Prec)),
	}
	for t := range a.Device {
		out.Device[t] = append([]int(nil), a.Device[t]...)
		out.Prec[t] = append([]nn.Precision(nil), a.Prec[t]...)
	}
	return out
}

// Validate checks shape agreement and device/precision support.
func (a *Assignment) Validate(nets []*nn.Network, p *hw.Platform) error {
	if len(a.Device) != len(nets) || len(a.Prec) != len(nets) {
		return fmt.Errorf("taskgraph: assignment covers %d tasks, workload has %d", len(a.Device), len(nets))
	}
	for t, n := range nets {
		if len(a.Device[t]) != len(n.Layers) || len(a.Prec[t]) != len(n.Layers) {
			return fmt.Errorf("taskgraph: task %d assignment covers %d layers, network has %d",
				t, len(a.Device[t]), len(n.Layers))
		}
		for l := range n.Layers {
			id := a.Device[t][l]
			if id < 0 || id >= len(p.Devices) {
				return fmt.Errorf("taskgraph: task %d layer %d mapped to unknown device %d", t, l, id)
			}
			if !p.Devices[id].Supports(a.Prec[t][l]) {
				return fmt.Errorf("taskgraph: task %d layer %d: %s does not support %v",
					t, l, p.Devices[id].Name, a.Prec[t][l])
			}
		}
	}
	return nil
}

// NodeKind distinguishes compute from data-transfer nodes.
type NodeKind int

// Node kinds.
const (
	ComputeNode NodeKind = iota
	CommNode
)

// Node is one schedulable unit.
type Node struct {
	ID    int
	Kind  NodeKind
	Ref   perf.LayerRef // valid for ComputeNode (and names CommNode's producer)
	Dev   int           // device ID for compute; -1 for comm (unified-memory queue)
	Prec  nn.Precision
	Preds []int
	DurUS float64
	toDev int // CommNode: the consuming device (Label's "->" side)
}

// Graph is the mapped multi-task graph ready for scheduling.
type Graph struct {
	Nodes    []*Node
	Networks []*nn.Network
	// taskNodes[t] lists the compute node IDs of task t.
	taskNodes [][]int
	platform  *hw.Platform // the profile DB's, for Label's device names
}

// Build converts the workload plus an assignment into a concrete graph
// with durations from the profile DB (compute) and cost model (comm).
func Build(db *perf.ProfileDB, m *perf.Model, asg *Assignment) (*Graph, error) {
	nets := db.Networks()
	platform := db.Platform()
	if err := asg.Validate(nets, platform); err != nil {
		return nil, err
	}
	g := &Graph{Networks: nets, taskNodes: make([][]int, len(nets)), platform: platform}
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
				// Cross-device edge: insert a transfer node on the
				// unified-memory queue (paper Fig. 7a).
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

// Label names node id for timelines: "net/layer@device" for a compute
// node, "net/layer->device" for the transfer of a layer's output to
// its consumer's device. It is formatted on demand — Build runs once
// per NMP candidate and the search never reads a label.
func (g *Graph) Label(id int) string {
	n := g.Nodes[id]
	net := g.Networks[n.Ref.Task]
	layer := net.Layers[n.Ref.Layer].Name
	if n.Kind == CommNode {
		return fmt.Sprintf("%s/%s->%s", net.Name, layer, g.platform.Devices[n.toDev].Name)
	}
	return fmt.Sprintf("%s/%s@%s", net.Name, layer, g.platform.Devices[n.Dev].Name)
}

// Schedule is the result of list-scheduling a graph.
type Schedule struct {
	MakespanUS    float64
	TaskLatencyUS []float64
	NodeStart     []float64
	NodeEnd       []float64
	EnergyJ       float64
	DeviceBusyUS  map[string]float64
	CommBusyUS    float64
}

// Run list-schedules the graph on the platform (Eq. 3): nodes become
// ready when all parents finish; among ready nodes the one with the
// earliest feasible start (ties: smallest task, then layer) is
// committed to its queue next. Comm nodes share one unified-memory
// queue.
func (g *Graph) Run(platform *hw.Platform) (*Schedule, error) {
	n := len(g.Nodes)
	s := &Schedule{
		NodeStart:     make([]float64, n),
		NodeEnd:       make([]float64, n),
		TaskLatencyUS: make([]float64, len(g.Networks)),
		DeviceBusyUS:  make(map[string]float64, len(platform.Devices)),
	}
	engine := hw.NewEngine(platform, false)
	umBusy := 0.0 // unified-memory queue (Fig. 7b includes it)

	indeg := make([]int, n)
	succs := make([][]int, n)
	for _, node := range g.Nodes {
		indeg[node.ID] = len(node.Preds)
		for _, p := range node.Preds {
			succs[p] = append(succs[p], node.ID)
		}
	}
	readyAt := make([]float64, n) // max parent end
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	scheduled := 0
	for len(ready) > 0 {
		// Pick the ready node with the earliest feasible start.
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
		// Commit it.
		node := g.Nodes[best]
		var start, end float64
		if node.Kind == CommNode {
			start = readyAt[best]
			if umBusy > start {
				start = umBusy
			}
			end = start + node.DurUS
			umBusy = end
			s.CommBusyUS += node.DurUS
		} else {
			// The engine is non-recording, so the tag would go unread.
			start, end = engine.Submit(platform.Devices[node.Dev], readyAt[best], node.DurUS, "")
		}
		s.NodeStart[best], s.NodeEnd[best] = start, end
		scheduled++
		// Remove from ready, release successors.
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

func lessNode(a, b *Node) bool {
	if a.Ref.Task != b.Ref.Task {
		return a.Ref.Task < b.Ref.Task
	}
	if a.Ref.Layer != b.Ref.Layer {
		return a.Ref.Layer < b.Ref.Layer
	}
	return a.Kind < b.Kind
}

// CommNodeCount returns the number of inserted transfer nodes.
func (g *Graph) CommNodeCount() int {
	n := 0
	for _, node := range g.Nodes {
		if node.Kind == CommNode {
			n++
		}
	}
	return n
}

// CriticalPath returns the node IDs of one longest end-time chain,
// from source to sink, after a schedule has been computed.
func (g *Graph) CriticalPath(s *Schedule) []int {
	// Find the sink with the max end.
	best := 0
	for i := range g.Nodes {
		if s.NodeEnd[i] > s.NodeEnd[best] {
			best = i
		}
	}
	var path []int
	cur := best
	for {
		path = append(path, cur)
		preds := g.Nodes[cur].Preds
		if len(preds) == 0 {
			break
		}
		next := preds[0]
		for _, p := range preds[1:] {
			if s.NodeEnd[p] > s.NodeEnd[next] {
				next = p
			}
		}
		cur = next
	}
	// Reverse to source-first order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
