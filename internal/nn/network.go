package nn

import (
	"fmt"

	"evedge/internal/scene"
)

// Task is the perception task a network solves.
type Task int

// Tasks evaluated in the paper.
const (
	OpticalFlow Task = iota
	SemanticSegmentation
	DepthEstimation
	ObjectTracking
)

// String names the task.
func (t Task) String() string {
	switch t {
	case OpticalFlow:
		return "Optical Flow"
	case SemanticSegmentation:
		return "Semantic Segmentation"
	case DepthEstimation:
		return "Depth Estimation"
	case ObjectTracking:
		return "Object Tracking"
	}
	return fmt.Sprintf("Task(%d)", int(t))
}

// Metric is the accuracy metric reported for a task. LowerBetter
// distinguishes error metrics (AEE, depth error) from score metrics
// (mIOU).
type Metric struct {
	Name        string
	LowerBetter bool
}

// Metrics used in Table 2.
var (
	MetricAEE      = Metric{Name: "AEE", LowerBetter: true}
	MetricMIOU     = Metric{Name: "mIOU", LowerBetter: false}
	MetricAvgError = Metric{Name: "Avg Error", LowerBetter: true}
)

// FramingMode selects how raw events become frames (paper Sec. 2 and
// Fig. 2): uniform time bins between grayscale frames, or a new frame
// every N events (the count-based construction of SpikeFlowNet and
// Fusion-FlowNet whose rate tracks scene activity).
type FramingMode int

// Framing modes.
const (
	FrameByTime FramingMode = iota
	FrameByCount
)

// String names the mode.
func (m FramingMode) String() string {
	if m == FrameByCount {
		return "count"
	}
	return "time"
}

// InputSpec describes how a network consumes events (the Fig. 2
// representations): the accumulation window between grayscale frames,
// the number of event bins nB, the SNN timestep grouping, and the
// framing mode.
type InputSpec struct {
	WindowUS int64 // accumulation window (Tend - Tstart)
	NumBins  int   // nB of Eq. 1
	GroupK   int   // bins concatenated per timestep (B/k timesteps)
	Preset   scene.Preset
	Framing  FramingMode
	// FramePeriodUS is the framing period FrameByCount is tuned for:
	// FrameEvents is derived so the preset's typical (median) activity
	// fills one frame per FramePeriodUS. Neither converter reads it;
	// during activity bursts the realized frame rate rises above
	// 1/FramePeriodUS.
	FramePeriodUS int64
	// FrameEvents is FrameByCount's N, the events per frame, at the
	// preset's half-scale geometry (173 x 130). It is tuned offline, as
	// a deployment tunes N on representative data: the median event
	// count over the 50 ms windows of the preset at seed 7, half scale,
	// 1 s, per microsecond, times FramePeriodUS. Seed 7 is therefore
	// in-sample; every other seed and duration frames at the same N.
	// EventsPerFrame scales it to a stream's geometry.
	FrameEvents int
}

// calibPixels is the pixel count FrameEvents is stated at: the
// presets' half scale, 173 x 130.
const calibPixels = 173 * 130

// EventsPerFrame is FrameByCount's N for a w x h stream: FrameEvents
// scaled by pixel count from the calibration geometry, at least 1.
// The offline converter and a served session both frame with it.
func (in InputSpec) EventsPerFrame(w, h int) int {
	n := float64(in.FrameEvents) * float64(w) * float64(h) / calibPixels
	return int(max(n, 1))
}

// Network is a layer DAG plus task metadata.
type Network struct {
	Name     string
	Task     Task
	TypeDesc string // "ANN", "SNN", "SNN-ANN" as in Table 1
	Metric   Metric
	// BaselineAccuracy is the full-precision accuracy from Table 2.
	BaselineAccuracy float64
	Input            InputSpec

	Layers []*Layer
	// Preds[i] lists the indices of layer i's predecessors; an empty
	// list marks a network input layer.
	Preds [][]int
}

// Validate checks DAG consistency and per-layer profiles.
func (n *Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("nn: network %q has no layers", n.Name)
	}
	if len(n.Preds) != len(n.Layers) {
		return fmt.Errorf("nn: network %q preds/layers length mismatch", n.Name)
	}
	for i, l := range n.Layers {
		if l.ID != i {
			return fmt.Errorf("nn: network %q layer %d has ID %d", n.Name, i, l.ID)
		}
		if err := l.Validate(); err != nil {
			return fmt.Errorf("nn: network %q: %w", n.Name, err)
		}
		for _, p := range n.Preds[i] {
			if p < 0 || p >= len(n.Layers) {
				return fmt.Errorf("nn: network %q layer %d has bad pred %d", n.Name, i, p)
			}
			if p >= i {
				return fmt.Errorf("nn: network %q layer %d pred %d not topologically earlier", n.Name, i, p)
			}
		}
	}
	if n.Input.NumBins <= 0 || n.Input.WindowUS <= 0 {
		return fmt.Errorf("nn: network %q has invalid input spec", n.Name)
	}
	if n.Input.Framing == FrameByCount && (n.Input.FramePeriodUS <= 0 || n.Input.FrameEvents <= 0) {
		return fmt.Errorf("nn: network %q uses count framing without a frame period and count", n.Name)
	}
	return nil
}

// CountByDomain returns the number of SNN and ANN layers, the split
// reported in Table 1.
func (n *Network) CountByDomain() (snn, ann int) {
	for _, l := range n.Layers {
		if l.Domain == SNN {
			snn++
		} else {
			ann++
		}
	}
	return snn, ann
}

// TotalMACs sums dense MACs over all layers.
func (n *Network) TotalMACs() int64 {
	var s int64
	for _, l := range n.Layers {
		s += l.MACs()
	}
	return s
}

// TotalParamBytes sums weight storage at a uniform precision.
func (n *Network) TotalParamBytes(p Precision) int64 {
	var s int64
	for _, l := range n.Layers {
		s += l.ParamBytes(p)
	}
	return s
}

// Succs computes the successor adjacency from Preds.
func (n *Network) Succs() [][]int {
	out := make([][]int, len(n.Layers))
	for i, ps := range n.Preds {
		for _, p := range ps {
			out[p] = append(out[p], i)
		}
	}
	return out
}

// netBuilder assembles chain-with-skips topologies concisely.
type netBuilder struct {
	layers []*Layer
	preds  [][]int
}

// add appends a layer whose predecessors are the given indices (empty
// = network input) and returns its index.
func (b *netBuilder) add(l *Layer, preds ...int) int {
	l.ID = len(b.layers)
	b.layers = append(b.layers, l)
	b.preds = append(b.preds, append([]int(nil), preds...))
	return l.ID
}

// last returns the index of the most recently added layer.
func (b *netBuilder) last() int { return len(b.layers) - 1 }

// conv adds a conv layer computing the output shape from the input
// shape of the predecessor (or explicit dims for inputs).
func convLayer(name string, dom Domain, inC, inH, inW, outC, k, stride, pad, timesteps int, actDensity, sens float64) *Layer {
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	return &Layer{
		Name: name, Kind: Conv, Domain: dom,
		InC: inC, InH: inH, InW: inW,
		OutC: outC, OutH: outH, OutW: outW,
		K: k, Stride: stride, Pad: pad,
		Timesteps: timesteps, ActDensity: actDensity, Sensitivity: sens,
	}
}

func deconvLayer(name string, dom Domain, inC, inH, inW, outC, k, stride, pad, timesteps int, actDensity, sens float64) *Layer {
	outH := (inH-1)*stride - 2*pad + k
	outW := (inW-1)*stride - 2*pad + k
	return &Layer{
		Name: name, Kind: Deconv, Domain: dom,
		InC: inC, InH: inH, InW: inW,
		OutC: outC, OutH: outH, OutW: outW,
		K: k, Stride: stride, Pad: pad,
		Timesteps: timesteps, ActDensity: actDensity, Sensitivity: sens,
	}
}
