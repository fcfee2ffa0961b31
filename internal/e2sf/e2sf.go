// Package e2sf implements the Event2Sparse Frame converter (paper
// Sec. 4.1). It transforms a raw AER event stream directly into
// two-channel sparse frames, one per event bin, without materializing
// the dense intermediate event frames that the baseline pipelines
// build:
//
//	biS = (Tend - Tstart) / nB            (bin duration)
//	EBk = floor((tk - Tstart) / biS)      (bin index of event k)
//
// Positive and negative polarities are accumulated separately per
// pixel within each bin, and each bin becomes a sparse COO-style frame
// (row indices, column indices, polarity channels), so downstream
// compute is proportional to the number of generated events.
//
// Fused is the converter. It counts events into a dense accumulation
// grid with bitmap occupancy (sparse.Accum) and reads each frame out
// of it in (y, x) order, zeroing as it goes; the grid is borrowed from
// the frame pool for the length of one conversion call and goes back
// all-zero, so a converter holds no W x H state between calls. Besides
// time binning (with grouping of bins into SNN timesteps) and
// count-based framing it provides the other input representations of
// the paper's Fig. 2: full accumulation with most-recent timestamps
// (CountTimestamp) and the bilinear voxel grid (VoxelGrid), which
// keeps a signed single-channel scratch of its own.
package e2sf

import (
	"evedge/internal/events"
	"evedge/internal/sparse"
)

// Config controls a conversion.
type Config struct {
	Width, Height int
	// NumBins is nB in Eq. 1: the number of event bins between Tstart
	// and Tend, i.e. the temporal resolution of the representation.
	NumBins int
}

// Stats reports what a conversion did.
type Stats struct {
	EventsIn    int     // events consumed
	Frames      int     // sparse frames emitted
	TotalNNZ    int     // active pixels across all frames
	MeanDensity float64 // mean fraction of active pixels per frame
}

// CountTimestamp is the full-accumulation representation of Fig. 2
// (EV-FlowNet style): per-pixel event counts per polarity plus the
// most recent event timestamp per polarity, normalized to [0, 1] over
// the window.
type CountTimestamp struct {
	Counts *sparse.Frame
	// LastPosTS and LastNegTS are aligned with Counts' entries and
	// hold the normalized most-recent timestamp per polarity (0 when
	// the pixel saw no event of that polarity).
	LastPosTS []float32
	LastNegTS []float32
}

// ConvertCountTimestamp accumulates the whole [tStart, tEnd) window
// into a single CountTimestamp representation, whatever NumBins is.
func (k *Fused) ConvertCountTimestamp(s *events.Stream, tStart, tEnd int64) (*CountTimestamp, error) {
	frames, _, err := k.ConvertGrouped(s, tStart, tEnd, k.cfg.NumBins)
	if err != nil {
		return nil, err
	}
	ct := &CountTimestamp{Counts: frames[0]}
	ct.Counts.T0, ct.Counts.T1 = tStart, tEnd
	// Second pass with the grid holding timestamps instead of counts;
	// the stream is sorted so later events overwrite earlier ones, and
	// the same pixels are touched, so the emitted entries align with
	// Counts'.
	span := float64(tEnd - tStart)
	acc := k.borrow()
	for _, e := range s.Window(tStart, tEnd) {
		acc.Touch(int(e.Y), int(e.X))[channel(e)] = float32(float64(e.TS-tStart) / span)
	}
	ts := sparse.NewFrame(k.cfg.Height, k.cfg.Width, tStart, tEnd)
	acc.Emit(ts, 1)
	k.release(acc)
	ct.LastPosTS, ct.LastNegTS = ts.Pos, ts.Neg
	return ct, nil
}
