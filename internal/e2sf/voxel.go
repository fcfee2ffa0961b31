package e2sf

import "evedge/internal/sparse"

// VoxelGrid is the discretized event-volume representation used by
// several event networks (and the remaining input scheme of the
// paper's Fig. 2): each event distributes its polarity across the two
// nearest temporal bins with bilinear weights, preserving sub-bin
// timing information that plain counting destroys:
//
//	t* = (nB - 1) * (t - Tstart) / (Tend - Tstart)
//	V[b] += p * max(0, 1 - |b - t*|)
type VoxelGrid struct {
	Bins   []*sparse.Frame // signed accumulation: Pos holds the value
	T0, T1 int64
}

// Mass returns the total absolute accumulated polarity across bins —
// conserved (equal to the in-window event count) when no positive and
// negative contributions cancel on the same voxel.
func (g *VoxelGrid) Mass() float64 {
	var m float64
	for _, f := range g.Bins {
		for _, v := range f.Pos {
			if v < 0 {
				m -= float64(v)
			} else {
				m += float64(v)
			}
		}
	}
	return m
}
