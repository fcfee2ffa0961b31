package nn

import (
	"fmt"
	"sort"

	"evedge/internal/scene"
)

// Canonical network names (Table 1 plus EV-FlowNet, which the paper's
// multi-task all-ANN configuration uses).
const (
	SpikeFlowNet     = "SpikeFlowNet"
	FusionFlowNet    = "Fusion-FlowNet"
	AdaptiveSpikeNet = "Adaptive-SpikeNet"
	HALSIE           = "HALSIE"
	HidalgoDepth     = "HidalgoDepth" // J. Hidalgo-Carrio et al., monocular dense depth
	DOTIE            = "DOTIE"
	EVFlowNet        = "EV-FlowNet"
)

// AllNames lists every network in the zoo in Table 1 order (EV-FlowNet
// appended).
func AllNames() []string {
	return []string{SpikeFlowNet, FusionFlowNet, AdaptiveSpikeNet, HALSIE, HidalgoDepth, DOTIE, EVFlowNet}
}

// Table1Names lists exactly the networks of the paper's Table 1.
func Table1Names() []string {
	return []string{SpikeFlowNet, FusionFlowNet, AdaptiveSpikeNet, HALSIE, HidalgoDepth, DOTIE}
}

// ByName constructs a network by canonical name.
func ByName(name string) (*Network, error) {
	switch name {
	case SpikeFlowNet:
		return buildSpikeFlowNet(), nil
	case FusionFlowNet:
		return buildFusionFlowNet(), nil
	case AdaptiveSpikeNet:
		return buildAdaptiveSpikeNet(), nil
	case HALSIE:
		return buildHALSIE(), nil
	case HidalgoDepth:
		return buildHidalgoDepth(), nil
	case DOTIE:
		return buildDOTIE(), nil
	case EVFlowNet:
		return buildEVFlowNet(), nil
	}
	names := AllNames()
	sort.Strings(names)
	return nil, fmt.Errorf("nn: unknown network %q (have %v)", name, names)
}

// MustByName is ByName that panics on error; for registries and tests.
func MustByName(name string) *Network {
	n, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return n
}

const (
	crop = 256 // center crop used by SpikeFlowNet and peers on MVSEC

	// ANN ReLU activations are roughly half-dense.
	annAct = 0.50
)

// buildSpikeFlowNet: hybrid SNN-ANN optical flow (Lee et al. 2020).
// Table 1: 12 layers — 4 SNN encoders + 8 ANN (residual + decoder).
func buildSpikeFlowNet() *Network {
	b := &netBuilder{}
	const T = 4
	b.add(convLayer("enc1", SNN, 2, crop, crop, 32, 3, 2, 1, T, 0.15, 1.5))
	b.add(convLayer("enc2", SNN, 32, 128, 128, 64, 3, 2, 1, T, 0.13, 1.0), b.last())
	b.add(convLayer("enc3", SNN, 64, 64, 64, 128, 3, 2, 1, T, 0.12, 1.0), b.last())
	b.add(convLayer("enc4", SNN, 128, 32, 32, 256, 3, 2, 1, T, 0.12, 1.0), b.last())
	b.add(convLayer("res1", ANN, 256, 16, 16, 256, 3, 1, 1, 1, annAct, 0.6), b.last())
	b.add(convLayer("res2", ANN, 256, 16, 16, 256, 3, 1, 1, 1, annAct, 0.6), b.last())
	b.add(deconvLayer("dec1", ANN, 256, 16, 16, 128, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(deconvLayer("dec2", ANN, 128, 32, 32, 64, 4, 2, 1, 1, annAct, 0.8), b.last())
	d3 := b.add(deconvLayer("dec3", ANN, 64, 64, 64, 32, 4, 2, 1, 1, annAct, 0.8), b.last())
	d4 := b.add(deconvLayer("dec4", ANN, 32, 128, 128, 16, 4, 2, 1, 1, annAct, 0.8), d3)
	b.add(convLayer("flow_mid", ANN, 32, 128, 128, 2, 1, 1, 0, 1, 1.0, 1.2), d3)
	b.add(convLayer("flow", ANN, 16, 256, 256, 2, 1, 1, 0, 1, 1.0, 2.0), d4)
	return &Network{
		Name: SpikeFlowNet, Task: OpticalFlow, TypeDesc: "SNN-ANN",
		Metric: MetricAEE, BaselineAccuracy: 0.93,
		Input: InputSpec{
			WindowUS: 25_000, NumBins: 5, GroupK: 1,
			Preset:  scene.IndoorFlying2,
			Framing: FrameByCount, FramePeriodUS: 9_500, FrameEvents: 225,
		},
		Layers: b.layers, Preds: b.preds,
	}
}

// buildFusionFlowNet: sensor-fusion optical flow (Lee et al. 2022).
// Table 1: 29 layers — 10 SNN (event branch) + 19 ANN (frame branch,
// fusion, decoder, refinement).
func buildFusionFlowNet() *Network {
	b := &netBuilder{}
	const T = 4
	// Event (spiking) branch.
	b.add(convLayer("eenc1", SNN, 2, crop, crop, 16, 3, 2, 1, T, 0.14, 1.5))
	b.add(convLayer("eenc2", SNN, 16, 128, 128, 32, 3, 2, 1, T, 0.13, 1.0), b.last())
	b.add(convLayer("eenc3", SNN, 32, 64, 64, 64, 3, 2, 1, T, 0.12, 1.0), b.last())
	b.add(convLayer("eenc4", SNN, 64, 32, 32, 128, 3, 2, 1, T, 0.11, 1.0), b.last())
	b.add(convLayer("eres1", SNN, 128, 16, 16, 128, 3, 1, 1, T, 0.11, 0.6), b.last())
	b.add(convLayer("eres2", SNN, 128, 16, 16, 128, 3, 1, 1, T, 0.11, 0.6), b.last())
	b.add(convLayer("eres3", SNN, 128, 16, 16, 128, 3, 1, 1, T, 0.11, 0.6), b.last())
	b.add(convLayer("eres4", SNN, 128, 16, 16, 128, 3, 1, 1, T, 0.11, 0.6), b.last())
	b.add(convLayer("eenc5", SNN, 128, 16, 16, 256, 3, 2, 1, T, 0.11, 1.0), b.last())
	eTop := b.add(convLayer("eres5", SNN, 256, 8, 8, 256, 3, 1, 1, T, 0.11, 0.6), b.last())
	// Frame (analog) branch: grayscale input.
	b.add(convLayer("fenc1", ANN, 1, crop, crop, 16, 3, 2, 1, 1, annAct, 1.5))
	b.add(convLayer("fenc2", ANN, 16, 128, 128, 32, 3, 2, 1, 1, annAct, 1.0), b.last())
	b.add(convLayer("fenc3", ANN, 32, 64, 64, 64, 3, 2, 1, 1, annAct, 1.0), b.last())
	b.add(convLayer("fenc4", ANN, 64, 32, 32, 128, 3, 2, 1, 1, annAct, 1.0), b.last())
	fTop := b.add(convLayer("fenc5", ANN, 128, 16, 16, 256, 3, 2, 1, 1, annAct, 1.0), b.last())
	// Fusion of the two 256-channel embeddings (channel concat).
	b.add(convLayer("fuse", ANN, 512, 8, 8, 256, 3, 1, 1, 1, annAct, 1.2), eTop, fTop)
	b.add(convLayer("res1", ANN, 256, 8, 8, 256, 3, 1, 1, 1, annAct, 0.6), b.last())
	b.add(convLayer("res2", ANN, 256, 8, 8, 256, 3, 1, 1, 1, annAct, 0.6), b.last())
	b.add(deconvLayer("dec1", ANN, 256, 8, 8, 128, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(deconvLayer("dec2", ANN, 128, 16, 16, 64, 4, 2, 1, 1, annAct, 0.8), b.last())
	d3 := b.add(deconvLayer("dec3", ANN, 64, 32, 32, 32, 4, 2, 1, 1, annAct, 0.8), b.last())
	d4 := b.add(deconvLayer("dec4", ANN, 32, 64, 64, 16, 4, 2, 1, 1, annAct, 0.8), d3)
	d5 := b.add(deconvLayer("dec5", ANN, 16, 128, 128, 8, 4, 2, 1, 1, annAct, 0.8), d4)
	b.add(convLayer("flow_mid1", ANN, 32, 64, 64, 2, 1, 1, 0, 1, 1.0, 1.2), d3)
	b.add(convLayer("flow_mid2", ANN, 16, 128, 128, 2, 1, 1, 0, 1, 1.0, 1.2), d4)
	b.add(convLayer("refine1", ANN, 8, 256, 256, 8, 3, 1, 1, 1, annAct, 0.6), d5)
	b.add(convLayer("refine2", ANN, 8, 256, 256, 8, 3, 1, 1, 1, annAct, 0.6), b.last())
	b.add(convLayer("refine3", ANN, 8, 256, 256, 8, 3, 1, 1, 1, annAct, 0.6), b.last())
	b.add(convLayer("flow", ANN, 8, 256, 256, 2, 1, 1, 0, 1, 1.0, 2.0), b.last())
	return &Network{
		Name: FusionFlowNet, Task: OpticalFlow, TypeDesc: "SNN-ANN",
		Metric: MetricAEE, BaselineAccuracy: 0.72,
		Input: InputSpec{
			WindowUS: 25_000, NumBins: 10, GroupK: 1,
			Preset:  scene.IndoorFlying1,
			Framing: FrameByCount, FramePeriodUS: 21_000, FrameEvents: 323,
		},
		Layers: b.layers, Preds: b.preds,
	}
}

// buildAdaptiveSpikeNet: fully spiking optical flow with learnable
// neuronal dynamics (Kosta et al. 2023). Table 1: 8 SNN layers.
func buildAdaptiveSpikeNet() *Network {
	b := &netBuilder{}
	const T = 5
	b.add(convLayer("enc1", SNN, 2, crop, crop, 32, 3, 2, 1, T, 0.15, 1.5))
	b.add(convLayer("enc2", SNN, 32, 128, 128, 64, 3, 2, 1, T, 0.13, 1.0), b.last())
	b.add(convLayer("enc3", SNN, 64, 64, 64, 128, 3, 2, 1, T, 0.12, 1.0), b.last())
	b.add(convLayer("enc4", SNN, 128, 32, 32, 256, 3, 2, 1, T, 0.11, 1.0), b.last())
	b.add(convLayer("res1", SNN, 256, 16, 16, 256, 3, 1, 1, T, 0.11, 0.6), b.last())
	b.add(convLayer("res2", SNN, 256, 16, 16, 256, 3, 1, 1, T, 0.11, 0.6), b.last())
	b.add(deconvLayer("dec1", SNN, 256, 16, 16, 128, 4, 2, 1, T, 0.12, 0.8), b.last())
	b.add(convLayer("flow", SNN, 128, 32, 32, 2, 3, 1, 1, T, 1.0, 2.0), b.last())
	return &Network{
		Name: AdaptiveSpikeNet, Task: OpticalFlow, TypeDesc: "SNN",
		Metric: MetricAEE, BaselineAccuracy: 1.27,
		Input: InputSpec{
			WindowUS: 25_000, NumBins: 25, GroupK: 5,
			Preset:  scene.IndoorFlying1,
			Framing: FrameByCount, FramePeriodUS: 30_000, FrameEvents: 462,
		},
		Layers: b.layers, Preds: b.preds,
	}
}

// buildHALSIE: hybrid segmentation exploiting image + event modalities
// (Biswas et al. 2023). Table 1: 16 layers — 3 SNN + 13 ANN.
func buildHALSIE() *Network {
	b := &netBuilder{}
	const T = 4
	const classes = 11 // DDD17-style semantic classes
	// Spiking event branch.
	b.add(convLayer("senc1", SNN, 2, crop, crop, 16, 3, 2, 1, T, 0.12, 1.5))
	b.add(convLayer("senc2", SNN, 16, 128, 128, 32, 3, 2, 1, T, 0.10, 1.0), b.last())
	sTop := b.add(convLayer("senc3", SNN, 32, 64, 64, 64, 3, 2, 1, T, 0.09, 1.0), b.last())
	// Analog image branch.
	b.add(convLayer("ienc1", ANN, 1, crop, crop, 16, 3, 2, 1, 1, annAct, 1.5))
	b.add(convLayer("ienc2", ANN, 16, 128, 128, 32, 3, 2, 1, 1, annAct, 1.0), b.last())
	b.add(convLayer("ienc3", ANN, 32, 64, 64, 64, 3, 2, 1, 1, annAct, 1.0), b.last())
	iTop := b.add(convLayer("ienc4", ANN, 64, 32, 32, 64, 3, 1, 1, 1, annAct, 1.0), b.last())
	_ = iTop
	// Fusion at 32x32 needs the event branch at 32x32 too; bring the
	// SNN embedding down with the image branch stride schedule: senc3
	// output is 32x32 already (64 ch @ 32x32).
	fuse := b.add(convLayer("fuse", ANN, 128, 32, 32, 64, 3, 1, 1, 1, annAct, 1.2), sTop, iTop)
	b.add(convLayer("res1", ANN, 64, 32, 32, 64, 3, 1, 1, 1, annAct, 0.6), fuse)
	b.add(deconvLayer("dec1", ANN, 64, 32, 32, 64, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(deconvLayer("dec2", ANN, 64, 64, 64, 32, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(deconvLayer("dec3", ANN, 32, 128, 128, 16, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(convLayer("head1", ANN, 16, 256, 256, 16, 3, 1, 1, 1, annAct, 0.8), b.last())
	b.add(convLayer("head2", ANN, 16, 256, 256, 16, 3, 1, 1, 1, annAct, 0.8), b.last())
	b.add(convLayer("head3", ANN, 16, 256, 256, 16, 3, 1, 1, 1, annAct, 0.8), b.last())
	b.add(convLayer("classifier", ANN, 16, 256, 256, classes, 1, 1, 0, 1, 1.0, 2.0), b.last())
	return &Network{
		Name: HALSIE, Task: SemanticSegmentation, TypeDesc: "SNN-ANN",
		Metric: MetricMIOU, BaselineAccuracy: 66.31,
		Input: InputSpec{
			WindowUS: 50_000, NumBins: 8, GroupK: 2,
			Preset: scene.OutdoorDay1,
		},
		Layers: b.layers, Preds: b.preds,
	}
}

// buildHidalgoDepth: monocular dense depth from events
// (Hidalgo-Carrio et al. 2020). Table 1: 15 ANN layers.
func buildHidalgoDepth() *Network {
	b := &netBuilder{}
	b.add(convLayer("enc1", ANN, 2, crop, crop, 32, 3, 2, 1, 1, annAct, 1.5))
	b.add(convLayer("enc2", ANN, 32, 128, 128, 64, 3, 2, 1, 1, annAct, 1.0), b.last())
	b.add(convLayer("enc3", ANN, 64, 64, 64, 128, 3, 2, 1, 1, annAct, 1.0), b.last())
	b.add(convLayer("enc4", ANN, 128, 32, 32, 256, 3, 2, 1, 1, annAct, 1.0), b.last())
	b.add(convLayer("enc5", ANN, 256, 16, 16, 512, 3, 2, 1, 1, annAct, 1.0), b.last())
	b.add(convLayer("res1", ANN, 512, 8, 8, 512, 3, 1, 1, 1, annAct, 0.6), b.last())
	b.add(convLayer("res2", ANN, 512, 8, 8, 512, 3, 1, 1, 1, annAct, 0.6), b.last())
	b.add(convLayer("res3", ANN, 512, 8, 8, 512, 3, 1, 1, 1, annAct, 0.6), b.last())
	b.add(convLayer("res4", ANN, 512, 8, 8, 512, 3, 1, 1, 1, annAct, 0.6), b.last())
	b.add(deconvLayer("dec1", ANN, 512, 8, 8, 256, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(deconvLayer("dec2", ANN, 256, 16, 16, 128, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(deconvLayer("dec3", ANN, 128, 32, 32, 64, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(deconvLayer("dec4", ANN, 64, 64, 64, 32, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(deconvLayer("dec5", ANN, 32, 128, 128, 16, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(convLayer("depth", ANN, 16, 256, 256, 1, 3, 1, 1, 1, 1.0, 2.0), b.last())
	return &Network{
		Name: HidalgoDepth, Task: DepthEstimation, TypeDesc: "ANN",
		Metric: MetricAvgError, BaselineAccuracy: 0.61,
		Input: InputSpec{
			WindowUS: 50_000, NumBins: 5, GroupK: 5,
			Preset: scene.Town10,
		},
		Layers: b.layers, Preds: b.preds,
	}
}

// buildDOTIE: object detection through temporal isolation of events
// with a single spiking layer (Nagaraj et al. 2022). Table 1: 1 layer.
func buildDOTIE() *Network {
	b := &netBuilder{}
	b.add(convLayer("spiking", SNN, 2, crop, crop, 4, 5, 1, 2, 3, 0.05, 1.5))
	return &Network{
		Name: DOTIE, Task: ObjectTracking, TypeDesc: "SNN",
		Metric: MetricMIOU, BaselineAccuracy: 0.86,
		Input: InputSpec{
			WindowUS: 5_000, NumBins: 5, GroupK: 1,
			Preset: scene.HighSpeedSpin,
		},
		Layers: b.layers, Preds: b.preds,
	}
}

// buildEVFlowNet: self-supervised ANN optical flow (Zhu et al. 2018).
// Not in Table 1; used by the paper's all-ANN multi-task mix. Consumes
// the full-accumulation count+timestamp representation (4 channels).
func buildEVFlowNet() *Network {
	b := &netBuilder{}
	b.add(convLayer("enc1", ANN, 4, crop, crop, 32, 3, 2, 1, 1, annAct, 1.5))
	b.add(convLayer("enc2", ANN, 32, 128, 128, 64, 3, 2, 1, 1, annAct, 1.0), b.last())
	b.add(convLayer("enc3", ANN, 64, 64, 64, 128, 3, 2, 1, 1, annAct, 1.0), b.last())
	b.add(convLayer("enc4", ANN, 128, 32, 32, 256, 3, 2, 1, 1, annAct, 1.0), b.last())
	b.add(convLayer("res1", ANN, 256, 16, 16, 256, 3, 1, 1, 1, annAct, 0.6), b.last())
	b.add(convLayer("res2", ANN, 256, 16, 16, 256, 3, 1, 1, 1, annAct, 0.6), b.last())
	b.add(deconvLayer("dec1", ANN, 256, 16, 16, 128, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(deconvLayer("dec2", ANN, 128, 32, 32, 64, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(deconvLayer("dec3", ANN, 64, 64, 64, 32, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(deconvLayer("dec4", ANN, 32, 128, 128, 16, 4, 2, 1, 1, annAct, 0.8), b.last())
	b.add(convLayer("flow", ANN, 16, 256, 256, 2, 1, 1, 0, 1, 1.0, 2.0), b.last())
	return &Network{
		Name: EVFlowNet, Task: OpticalFlow, TypeDesc: "ANN",
		Metric: MetricAEE, BaselineAccuracy: 1.03,
		Input: InputSpec{
			WindowUS: 25_000, NumBins: 1, GroupK: 1,
			Preset:  scene.OutdoorDay1,
			Framing: FrameByCount, FramePeriodUS: 25_000, FrameEvents: 8_207,
		},
		Layers: b.layers, Preds: b.preds,
	}
}
