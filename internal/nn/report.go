package nn

import (
	"fmt"
	"strings"
)

// Summary renders a per-layer report of the network: shapes, kernel
// geometry, dense MACs, parameter counts and the profile fields the
// mapper consumes. Useful for tooling and for sanity-checking the zoo
// against Table 1.
func (n *Network) Summary() string {
	var b strings.Builder
	snn, ann := n.CountByDomain()
	fmt.Fprintf(&b, "%s — %s (%s), %d layers (%d SNN, %d ANN)\n",
		n.Name, n.Task, n.TypeDesc, len(n.Layers), snn, ann)
	fmt.Fprintf(&b, "input: %s framing, window %.1f ms, nB=%d, groupK=%d, preset %s\n",
		n.Input.Framing, float64(n.Input.WindowUS)/1000, n.Input.NumBins, n.Input.GroupK, n.Input.Preset)
	fmt.Fprintf(&b, "%-14s %-7s %-4s %-22s %-5s %10s %10s %6s\n",
		"LAYER", "KIND", "DOM", "SHAPE", "K/S", "MACS(M)", "PARAMS(K)", "ACT")
	for _, l := range n.Layers {
		shape := fmt.Sprintf("%dx%dx%d->%dx%dx%d", l.InC, l.InH, l.InW, l.OutC, l.OutH, l.OutW)
		ks := fmt.Sprintf("%d/%d", l.K, l.Stride)
		fmt.Fprintf(&b, "%-14s %-7s %-4s %-22s %-5s %10.1f %10.1f %6.2f\n",
			l.Name, l.Kind, l.Domain, shape, ks,
			float64(l.MACs())/1e6, float64(l.ParamCount())/1e3, l.ActDensity)
	}
	fmt.Fprintf(&b, "total: %.2f GMACs, %.2f MB params (FP32)\n",
		float64(n.TotalMACs())/1e9, float64(n.TotalParamBytes(FP32))/1e6)
	return b.String()
}

// CheckShapes verifies that every edge of the DAG is shape-consistent:
// each consumer's input channel count equals the sum of its producers'
// output channels (concat semantics for multi-input layers) and the
// spatial sizes agree. The zoo is validated with this in tests, so
// hand-built networks get the same guarantee.
func (n *Network) CheckShapes() error {
	for i, l := range n.Layers {
		preds := n.Preds[i]
		if len(preds) == 0 {
			continue
		}
		sumC := 0
		for _, p := range preds {
			pl := n.Layers[p]
			if pl.OutH != l.InH || pl.OutW != l.InW {
				return fmt.Errorf("nn: %s: %s feeds %s with %dx%d, expects %dx%d",
					n.Name, pl.Name, l.Name, pl.OutH, pl.OutW, l.InH, l.InW)
			}
			sumC += pl.OutC
		}
		if sumC != l.InC {
			return fmt.Errorf("nn: %s: %s receives %d channels, expects %d",
				n.Name, l.Name, sumC, l.InC)
		}
	}
	return nil
}
