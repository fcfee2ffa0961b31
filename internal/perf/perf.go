// Package perf is the analytical cost model that substitutes for
// on-device TensorRT profiling. Given a layer, a processing element, a
// precision and execution options (dense vs sparse path, input
// activation density, batch size), it predicts execution time in
// microseconds; given producer/consumer placements it predicts
// communication time over unified memory.
//
// The paper measures per-layer times on the Jetson before the search
// ("the individual execution time for each layer and the communication
// time between layers are measured on the hardware platform and
// recorded before the search process begins"); ProfileDB plays that
// role here, built once from the cost model and then treated as a
// lookup table by the Network Mapper.
package perf

import (
	"fmt"

	"evedge/internal/hw"
	"evedge/internal/nn"
)

// ExecOpts selects the execution path for a layer invocation.
type ExecOpts struct {
	// Sparse enables the event-proportional gather-scatter path (the
	// E2SF-enabled mode); dense is the baseline event-frame mode.
	Sparse bool
	// InputDensity is the fraction of active input sites (event-frame
	// spatial density for the first layer, producer activation density
	// downstream). Only used on the sparse path.
	InputDensity float64
	// Batch is the number of frames processed in one invocation (DSFA
	// cBatch merging); 0 means 1.
	Batch int
	// FramingOverheadOps charges extra element operations (dense
	// event-frame construction, sparse encode/decode) to this
	// invocation.
	FramingOverheadOps int64
}

func (o ExecOpts) batch() int {
	if o.Batch < 1 {
		return 1
	}
	return o.Batch
}

// Model predicts execution and communication times for a platform.
type Model struct {
	p *hw.Platform
}

// NewModel builds a cost model over the platform.
func NewModel(p *hw.Platform) *Model {
	return &Model{p: p}
}

// Platform returns the model's platform.
func (m *Model) Platform() *hw.Platform { return m.p }

// LayerTimeUS predicts the execution time of one layer invocation.
// Unsupported (device, precision) pairs return an error.
//
// The model separates arithmetic from occupancy:
//
//   - Utilization follows the output-element parallelism of the kernel
//     (scaled by batch): util = sites / (sites + SaturationSites). A
//     narrow kernel cannot fill the GPU no matter how many MACs each
//     output needs, and DSFA's batching raises exactly this term.
//   - Dense work is the full MAC volume; sparse work is
//     density·MACs/SparseEff plus a dense-proportional overhead
//     fraction (rulebook + output scatter), which caps the best-case
//     sparse gain and makes the sparse path *lose* on near-dense
//     inputs — the encode/decode trap E2SF sidesteps by never building
//     dense frames in the first place.
//   - SNN layers serialize Timesteps dependent steps, each paying the
//     per-step overhead with only a single step's parallelism — the
//     reason SNNs run longest on GPUs (paper Sec. 6).
func (m *Model) LayerTimeUS(l *nn.Layer, d *hw.Device, p nn.Precision, o ExecOpts) (float64, error) {
	peak, ok := d.PeakMACs[p]
	if !ok {
		return 0, fmt.Errorf("perf: %s does not support %v", d.Name, p)
	}
	b := float64(o.batch())

	// Occupancy from output parallelism.
	sites := float64(l.OutC) * float64(l.OutH) * float64(l.OutW) * b
	util := sites / (sites + d.SaturationSites)
	if util <= 0 {
		util = 1e-9
	}

	// Work per timestep (SNN layers serialize their timesteps; ANN
	// layers have Timesteps == 1).
	T := float64(l.Timesteps)
	denseStep := float64(l.MACs()) / T
	var workPerStep float64
	if o.Sparse {
		density := o.InputDensity
		if density < 0 {
			density = 0
		}
		if density > 1 {
			density = 1
		}
		workPerStep = density*denseStep/d.SparseEff + d.SparseOverheadFrac*denseStep
	} else {
		workPerStep = denseStep
	}
	workPerStep *= b

	stepTime := workPerStep / (peak * util) * 1e6 // seconds -> us

	total := d.LaunchUS + T*stepTime
	if T > 1 {
		total += (T - 1) * d.TimestepUS
	}
	if o.FramingOverheadOps > 0 {
		// Element-wise framing ops run at memory speed; approximate with
		// peak/8 scalar throughput.
		total += float64(o.FramingOverheadOps) / (peak / 8) * 1e6
	}
	return total, nil
}

// CommUS predicts the unified-memory transfer time for moving the
// producer's output activations when producer and consumer sit on
// different devices. Same-device edges are free.
func (m *Model) CommUS(l *nn.Layer, from, to *hw.Device, p nn.Precision) float64 {
	if from.ID == to.ID {
		return 0
	}
	bytes := l.OutBytes(p) * int64(l.Timesteps)
	return m.p.Link.TransferUS(bytes)
}

// InputCommUS predicts the cost of delivering an input frame (2
// channels at the layer's input geometry) to the device that runs the
// first layer. Sparse frames ship only active sites (two coordinates
// plus two polarity channels per site).
func (m *Model) InputCommUS(l *nn.Layer, sparseFrames bool, density float64, p nn.Precision) float64 {
	var bytes int64
	if sparseFrames {
		sites := int64(density * float64(l.InH*l.InW))
		bytes = sites * int64(2*4+2*p.Bytes())
	} else {
		bytes = int64(l.InC) * int64(l.InH) * int64(l.InW) * int64(p.Bytes())
	}
	return m.p.Link.TransferUS(bytes)
}

// NetworkTimeUS predicts the end-to-end single-device time of a whole
// network executed layer by layer (chain approximation: inter-layer
// transfers are free on one device).
func (m *Model) NetworkTimeUS(net *nn.Network, d *hw.Device, p nn.Precision, o ExecOpts) (float64, error) {
	var total float64
	for i, l := range net.Layers {
		opts := o
		if i > 0 {
			// Downstream layers see producer activation density, not the
			// event-frame density.
			opts.InputDensity = producerDensity(net, i)
			opts.FramingOverheadOps = 0
		}
		t, err := m.LayerTimeUS(l, d, p, opts)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// producerDensity returns the activation density feeding layer i: the
// max over its predecessors' ActDensity (conservative for concat).
func producerDensity(net *nn.Network, i int) float64 {
	preds := net.Preds[i]
	if len(preds) == 0 {
		return 1
	}
	d := 0.0
	for _, p := range preds {
		if net.Layers[p].ActDensity > d {
			d = net.Layers[p].ActDensity
		}
	}
	return d
}
