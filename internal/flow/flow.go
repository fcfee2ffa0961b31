// Package flow provides the optical-flow accuracy metric the paper's
// evaluation reports: average endpoint error (AEE), over the whole
// field or masked to the event-vision convention of evaluating only at
// pixels that produced events.
package flow

import (
	"fmt"
	"math"

	"evedge/internal/scene"
	"evedge/internal/sparse"
)

// AEE computes the average endpoint error between a predicted and a
// ground-truth flow field: mean over pixels of ||pred - gt||_2.
func AEE(pred, gt *scene.FlowField) (float64, error) {
	if pred.W != gt.W || pred.H != gt.H {
		return 0, fmt.Errorf("flow: field size mismatch %dx%d vs %dx%d", pred.W, pred.H, gt.W, gt.H)
	}
	var s float64
	for i := range pred.U {
		du := float64(pred.U[i] - gt.U[i])
		dv := float64(pred.V[i] - gt.V[i])
		s += math.Sqrt(du*du + dv*dv)
	}
	return s / float64(len(pred.U)), nil
}

// MaskedAEE computes AEE only at active pixels of the event frame —
// the sparse evaluation protocol of EV-FlowNet and its successors
// (flow is only supervised where events fired).
func MaskedAEE(pred, gt *scene.FlowField, frame *sparse.Frame) (float64, error) {
	if pred.W != gt.W || pred.H != gt.H {
		return 0, fmt.Errorf("flow: field size mismatch %dx%d vs %dx%d", pred.W, pred.H, gt.W, gt.H)
	}
	if frame.W != pred.W || frame.H != pred.H {
		return 0, fmt.Errorf("flow: frame %dx%d does not match fields %dx%d",
			frame.W, frame.H, pred.W, pred.H)
	}
	if frame.NNZ() == 0 {
		return 0, fmt.Errorf("flow: no active pixels to evaluate")
	}
	var s float64
	for i := range frame.Cells {
		y, x := frame.YX(i)
		idx := int(y)*pred.W + int(x)
		du := float64(pred.U[idx] - gt.U[idx])
		dv := float64(pred.V[idx] - gt.V[idx])
		s += math.Sqrt(du*du + dv*dv)
	}
	return s / float64(frame.NNZ()), nil
}
