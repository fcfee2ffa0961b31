// Flow metrics against simulator ground truth: because the scene is
// procedural, the true optical flow at every pixel is known (the role
// MVSEC's LiDAR/IMU ground truth plays in the paper). This example
// computes the AEE metric — dense and event-masked — for increasingly
// degraded flow estimates, the same metric Table 2 reports for the
// optical-flow networks.
//
//	go run ./examples/flowmetrics
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"evedge/internal/e2sf"
	"evedge/internal/flow"
	"evedge/internal/scene"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the report to out, leaving write errors unchecked: out is
// the terminal or a test's buffer.
func run(out io.Writer) error {
	// Build the IndoorFlying1-like world directly so we can query its
	// ground truth.
	seq, err := scene.NewSequence(scene.IndoorFlying1, scene.Half, 5)
	if err != nil {
		return err
	}
	stream, err := seq.Generate(300_000)
	if err != nil {
		return err
	}
	// E2SF the window the flow spans, to mask evaluation to event
	// pixels (the EV-FlowNet protocol).
	conv, err := e2sf.NewFused(e2sf.Config{Width: stream.Width, Height: stream.Height, NumBins: 1}, nil)
	if err != nil {
		return err
	}
	frames, _, err := conv.ConvertGroupedAppend(nil, stream, 0, 25_000, 1)
	if err != nil {
		return err
	}
	frame := frames[0]

	// Ground truth over the first 25 ms window. (NewSequence wraps a
	// World renderer; rebuild it to access GroundTruthFlow.)
	world := &scene.World{
		Texture: scene.NewTexture(stream.Width, stream.Height, 0.55, 105),
		Path: &scene.SmoothPath{
			VX: 18, VY: 6, AmpX: 8, AmpY: 5, FreqX: 0.4, FreqY: 0.3,
			RotAmp: 0.02, RotFreq: 0.25,
		},
	}
	gt := world.GroundTruthFlow(stream.Width, stream.Height, 0, 25_000)
	fmt.Fprintf(out, "sequence: %s, %.0f events in window, %.2f%% active pixels\n",
		stream.Summarize(), frame.EventCount(), frame.Density()*100)
	fmt.Fprintf(out, "ground-truth mean flow magnitude: %.3f px / 25 ms\n\n", gt.MeanMagnitude())

	// Evaluate estimates of decreasing quality: the ground truth
	// itself, then versions with increasing Gaussian noise.
	r := rand.New(rand.NewSource(9))
	fmt.Fprintf(out, "%-22s %10s %10s\n", "estimate", "AEE", "maskedAEE")
	for _, sigma := range []float64{0, 0.1, 0.5, 1.0} {
		pred := scene.NewFlowField(gt.W, gt.H)
		copy(pred.U, gt.U)
		copy(pred.V, gt.V)
		for i := range pred.U {
			pred.U[i] += float32(r.NormFloat64() * sigma)
			pred.V[i] += float32(r.NormFloat64() * sigma)
		}
		aee, err := flow.AEE(pred, gt)
		if err != nil {
			return err
		}
		masked, err := flow.MaskedAEE(pred, gt, frame)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "gt + noise σ=%-9.1f %10.3f %10.3f\n", sigma, aee, masked)
	}
	fmt.Fprintln(out, "\nAEE grows with estimate noise; the masked variant evaluates only")
	fmt.Fprintln(out, "where events fired, as the optical-flow networks in Table 2 do.")
	return nil
}
