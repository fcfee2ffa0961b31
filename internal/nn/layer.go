// Package nn models the event-vision networks evaluated by the paper
// (Table 1): layer DAGs with analytic compute/memory/sparsity
// profiles used by the Network Mapper and performance model, plus a
// small numeric runtime (dense and sparse convolution, LIF spiking
// dynamics) used by the functional tests and examples.
//
// The paper never retrains networks — Ev-Edge consumes pretrained
// models — so what matters here is faithful topology (layer counts and
// types per Table 1), realistic shapes and op counts, activation
// sparsity (SNNs spike sparsely; that is why they gain the most from
// sparse execution), and a per-layer quantization-sensitivity profile
// that drives the accuracy-degradation model calibrated to Table 2.
//
// The numeric Runtime owns its activations: the map Forward returns and
// every tensor in it belong to the Runtime, are the same objects on
// every call, and hold a frame's outputs only until the next Forward
// overwrites them. Copy what must outlive that.
package nn

import "fmt"

// Precision is a numeric precision a processing element can execute a
// layer at. The Network Mapper searches over these jointly with device
// placement.
type Precision int

// Precision choices, mirroring TensorRT's deployment precisions on
// Jetson-class hardware.
const (
	FP32 Precision = iota
	FP16
	INT8
)

// String returns the usual notation.
func (p Precision) String() string {
	switch p {
	case FP32:
		return "FP32"
	case FP16:
		return "FP16"
	case INT8:
		return "INT8"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// Bytes returns the storage size of one scalar at this precision.
func (p Precision) Bytes() int {
	switch p {
	case FP32:
		return 4
	case FP16:
		return 2
	case INT8:
		return 1
	}
	return 4
}

// Domain distinguishes analog (ANN) from spiking (SNN) layers.
type Domain int

// Domain values.
const (
	ANN Domain = iota
	SNN
)

// String returns "ANN" or "SNN".
func (d Domain) String() string {
	if d == SNN {
		return "SNN"
	}
	return "ANN"
}

// Kind is the operator class of a layer. The paper's Table 1 networks
// are convolution stacks with transposed-convolution decoders, so a
// layer is one or the other; every profile below is the one formula
// both share.
type Kind int

// Layer kinds.
const (
	Conv Kind = iota
	Deconv
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "Conv"
	case Deconv:
		return "Deconv"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Layer is one node of a network DAG with the analytic profile the
// scheduler and perf model need.
type Layer struct {
	ID     int
	Name   string
	Kind   Kind
	Domain Domain

	InC, InH, InW    int
	OutC, OutH, OutW int
	K, Stride, Pad   int

	// Timesteps > 1 means the layer executes once per SNN timestep
	// (membrane dynamics are stateful across timesteps).
	Timesteps int

	// ActDensity is the expected fraction of nonzero activations the
	// layer *produces*: spike density for SNN layers, post-ReLU density
	// for ANN layers. Input layers inherit the event-frame density at
	// runtime instead.
	ActDensity float64

	// Sensitivity scales how much quantizing this layer degrades task
	// accuracy (used by the ΔA model); first/last layers are typically
	// most sensitive.
	Sensitivity float64
}

// Validate checks the layer profile for internal consistency.
func (l *Layer) Validate() error {
	if l.InC <= 0 || l.InH <= 0 || l.InW <= 0 || l.OutC <= 0 || l.OutH <= 0 || l.OutW <= 0 {
		return fmt.Errorf("nn: layer %q has non-positive shape", l.Name)
	}
	if l.Timesteps < 1 {
		return fmt.Errorf("nn: layer %q has %d timesteps", l.Name, l.Timesteps)
	}
	if l.ActDensity < 0 || l.ActDensity > 1 {
		return fmt.Errorf("nn: layer %q activation density %f outside [0,1]", l.Name, l.ActDensity)
	}
	if l.Kind != Conv && l.Kind != Deconv {
		return fmt.Errorf("nn: layer %q has unknown kind %v", l.Name, l.Kind)
	}
	if l.K <= 0 || l.Stride <= 0 {
		return fmt.Errorf("nn: layer %q kernel/stride invalid", l.Name)
	}
	return nil
}

// MACs returns the dense multiply-accumulate count of one inference
// through the layer, including all SNN timesteps. This is the work the
// all-GPU dense baseline performs regardless of event count.
func (l *Layer) MACs() int64 {
	per := int64(l.OutC) * int64(l.OutH) * int64(l.OutW) * int64(l.InC) * int64(l.K) * int64(l.K)
	return per * int64(l.Timesteps)
}

// SparseMACs returns the arithmetic of the sparse execution path when
// the layer's input has the given activation density: work scales with
// active input sites instead of the full volume. A per-site gather
// overhead is captured by the perf model, not here.
func (l *Layer) SparseMACs(inputDensity float64) int64 {
	if inputDensity < 0 {
		inputDensity = 0
	}
	if inputDensity > 1 {
		inputDensity = 1
	}
	active := inputDensity * float64(l.InH*l.InW)
	per := active * float64(l.InC) * float64(l.OutC) * float64(l.K*l.K)
	return int64(per) * int64(l.Timesteps)
}

// ParamCount returns the number of weights (plus biases).
func (l *Layer) ParamCount() int64 {
	return int64(l.OutC)*int64(l.InC)*int64(l.K)*int64(l.K) + int64(l.OutC)
}

// ParamBytes returns weight storage at the given precision.
func (l *Layer) ParamBytes(p Precision) int64 { return l.ParamCount() * int64(p.Bytes()) }

// OutBytes returns the activation volume the layer ships to consumers
// at the given precision (one timestep's worth; SNN spike trains are
// shipped per timestep).
func (l *Layer) OutBytes(p Precision) int64 {
	return int64(l.OutC) * int64(l.OutH) * int64(l.OutW) * int64(p.Bytes())
}

// String summarizes the layer.
func (l *Layer) String() string {
	return fmt.Sprintf("%s[%s/%s %dx%dx%d->%dx%dx%d k%d s%d T%d]",
		l.Name, l.Kind, l.Domain, l.InC, l.InH, l.InW, l.OutC, l.OutH, l.OutW, l.K, l.Stride, l.Timesteps)
}
