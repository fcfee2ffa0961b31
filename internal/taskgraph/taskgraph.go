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
//	Latency = max(End_T(*))      (the critical-path latency)
//
// The mapper prices thousands of candidates of one workload, so both
// steps have an in-place form: Graph.BuildInto refills one graph (nodes
// in one array, predecessor lists as windows of one arena) and
// Graph.RunInto one Schedule (result arrays, successor lists, ready
// queue and engine), allocating nothing once they have seen the
// workload. Build and Run are those forms applied to fresh values.
package taskgraph

import (
	"fmt"
	"slices"

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
	Preds []int // a window of the graph's predecessor arena
	DurUS float64
	toDev int // CommNode: the consuming device (Label's "->" side)
}

// Graph is the mapped multi-task graph ready for scheduling. The zero
// value is an empty graph BuildInto can fill; a filled graph is
// read-only to Run and RunInto, so one graph may be scheduled from
// several goroutines, each into its own Schedule.
type Graph struct {
	Nodes    []*Node // Nodes[i] points at the i-th element of store
	Networks []*nn.Network
	// taskNodes[t][l] is the compute node ID of task t's layer l: a
	// window of taskIDs.
	taskNodes [][]int
	platform  *hw.Platform // the profile DB's, for Label's device names

	// Backing arrays, grown once per BuildInto to what the workload can
	// need so that nothing moves while nodes point into them, and kept
	// across calls.
	store   []Node
	preds   []int
	taskIDs []int
}

// resize returns s with length n, reusing its array when that is large
// enough; the elements are whatever the array held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Build converts the workload plus an assignment into a concrete graph
// with durations from the profile DB (compute) and cost model (comm).
func Build(db *perf.ProfileDB, m *perf.Model, asg *Assignment) (*Graph, error) {
	g := new(Graph)
	if err := g.BuildInto(db, m, asg); err != nil {
		return nil, err
	}
	return g, nil
}

// BuildInto is Build into g, replacing whatever g held and reusing its
// arrays: rebuilding one graph for assignment after assignment of the
// same workload — what a placement search does per candidate —
// allocates nothing. Every *Node and Preds slice handed out by the
// previous build is overwritten. On error g is left partly built and
// must be rebuilt before use.
func (g *Graph) BuildInto(db *perf.ProfileDB, m *perf.Model, asg *Assignment) error {
	nets := db.Networks()
	platform := db.Platform()
	if err := asg.Validate(nets, platform); err != nil {
		return err
	}
	// Every layer is one compute node and every data dependency at most
	// one transfer node; a compute node has one predecessor per
	// dependency, a transfer node exactly one.
	layers, deps := 0, 0
	for _, net := range nets {
		layers += len(net.Layers)
		for _, ps := range net.Preds {
			deps += len(ps)
		}
	}
	g.Networks, g.platform = nets, platform
	g.store = slices.Grow(g.store[:0], layers+deps)
	g.Nodes = slices.Grow(g.Nodes[:0], layers+deps)
	g.preds = slices.Grow(g.preds[:0], 2*deps)
	g.taskIDs = slices.Grow(g.taskIDs[:0], layers)
	g.taskNodes = resize(g.taskNodes, len(nets))

	add := func(n Node) *Node {
		n.ID = len(g.store)
		g.store = append(g.store, n)
		g.Nodes = append(g.Nodes, &g.store[n.ID])
		return &g.store[n.ID]
	}
	for t, net := range nets {
		first := len(g.taskIDs)
		for l := range net.Layers {
			ref := perf.LayerRef{Task: t, Layer: l}
			dev := asg.Device[t][l]
			prec := asg.Prec[t][l]
			dur, ok := db.TimeUS(ref, dev, prec)
			if !ok {
				return fmt.Errorf("taskgraph: no profile for task %d layer %d on device %d at %v",
					t, l, dev, prec)
			}
			// Transfer nodes take their IDs after the compute node that
			// consumes them, so reserve the compute node first.
			node := add(Node{Kind: ComputeNode, Ref: ref, Dev: dev, Prec: prec, DurUS: dur})
			g.taskIDs = append(g.taskIDs, node.ID)
			computeID := g.taskIDs[first:] // of this task's layers so far
			// The compute node's predecessor window is filled as its
			// dependencies resolve; transfer nodes' single-entry windows
			// come after it.
			lo := len(g.preds)
			g.preds = g.preds[:lo+len(net.Preds[l])]
			own := g.preds[lo:lo:len(g.preds)]
			for _, p := range net.Preds[l] {
				prodDev := asg.Device[t][p]
				prodPrec := asg.Prec[t][p]
				if prodDev == dev {
					own = append(own, computeID[p])
					continue
				}
				// Cross-device edge: insert a transfer node on the
				// unified-memory queue (paper Fig. 7a).
				at := len(g.preds)
				g.preds = append(g.preds, computeID[p])
				comm := add(Node{
					Kind: CommNode,
					Ref:  perf.LayerRef{Task: t, Layer: p},
					Dev:  -1, Prec: prodPrec,
					DurUS: m.CommUS(net.Layers[p], platform.Devices[prodDev], platform.Devices[dev], prodPrec),
					Preds: g.preds[at : at+1 : at+1],
					toDev: dev,
				})
				own = append(own, comm.ID)
			}
			if len(own) > 0 {
				node.Preds = own
			}
		}
		g.taskNodes[t] = g.taskIDs[first:len(g.taskIDs):len(g.taskIDs)]
	}
	return nil
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

// Schedule is the result of list-scheduling a graph. The zero value is
// ready for RunInto; one that RunInto has filled carries, beside the
// result, the scheduler's working arrays and engine for the next call.
type Schedule struct {
	MakespanUS    float64
	TaskLatencyUS []float64
	NodeStart     []float64
	NodeEnd       []float64
	EnergyJ       float64
	DeviceBusyUS  map[string]float64

	engine *hw.Engine
	// Successors in CSR form: node id's are succs[succAt[id]:succAt[id+1]],
	// in ascending node ID as the per-node appends they replace gave.
	succAt  []int
	succs   []int
	indeg   []int
	readyAt []float64 // max parent end
	ready   []int
}

// Run list-schedules the graph on the platform (Eq. 3): nodes become
// ready when all parents finish; among ready nodes the one with the
// earliest feasible start (ties: smallest task, then layer) is
// committed to its queue next. Comm nodes share one unified-memory
// queue.
func (g *Graph) Run(platform *hw.Platform) (*Schedule, error) {
	s := new(Schedule)
	if err := g.RunInto(platform, s); err != nil {
		return nil, err
	}
	return s, nil
}

// RunInto is Run into s, overwriting the previous result and reusing
// its arrays, its map and its engine: scheduling graph after graph of
// the same workload on one platform allocates nothing. On error s is
// left partly written.
func (g *Graph) RunInto(platform *hw.Platform, s *Schedule) error {
	n := len(g.Nodes)
	if s.engine == nil || s.engine.Platform() != platform {
		s.engine = hw.NewEngine(platform, false)
		s.DeviceBusyUS = make(map[string]float64, len(platform.Devices))
	} else {
		s.engine.Reset()
	}
	engine := s.engine
	s.MakespanUS = 0
	s.NodeStart = resize(s.NodeStart, n)
	s.NodeEnd = resize(s.NodeEnd, n)
	s.TaskLatencyUS = resize(s.TaskLatencyUS, len(g.Networks))
	clear(s.TaskLatencyUS)
	umBusy := 0.0 // unified-memory queue (Fig. 7b includes it)

	// Successors: count them per producer, turn the counts into offsets,
	// then drop every edge into its producer's window. indeg serves as
	// the per-producer fill cursor before it takes the in-degrees.
	succAt := resize(s.succAt, n+1)
	clear(succAt)
	for _, node := range g.Nodes {
		for _, p := range node.Preds {
			succAt[p+1]++
		}
	}
	for i := 0; i < n; i++ {
		succAt[i+1] += succAt[i]
	}
	succs := resize(s.succs, succAt[n])
	indeg := resize(s.indeg, n)
	copy(indeg, succAt)
	for _, node := range g.Nodes {
		for _, p := range node.Preds {
			succs[indeg[p]] = node.ID
			indeg[p]++
		}
	}
	readyAt := resize(s.readyAt, n)
	clear(readyAt)
	ready := resize(s.ready, n)[:0]
	for _, node := range g.Nodes {
		indeg[node.ID] = len(node.Preds)
		if len(node.Preds) == 0 {
			ready = append(ready, node.ID)
		}
	}
	s.succAt, s.succs, s.indeg, s.readyAt, s.ready = succAt, succs, indeg, readyAt, ready

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
		for _, succ := range succs[succAt[best]:succAt[best+1]] {
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
		return fmt.Errorf("taskgraph: cycle detected, scheduled %d of %d nodes", scheduled, n)
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
	return nil
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
