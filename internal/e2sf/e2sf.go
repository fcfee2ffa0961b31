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
// Fused is the kernel. It counts events into a dense accumulation
// grid with bitmap occupancy (sparse.Accum) and reads each frame out
// of it in (y, x) order, zeroing as it goes; the grid is borrowed from
// the frame pool for the length of one conversion call and goes back
// all-zero, so a converter holds no W x H state between calls. It
// converts one interval of a stream by time (Eq. 1 bins, grouped into
// SNN timesteps) or by event count.
//
// Framer is the rule. It takes a stream a segment at a time and frames
// each unit Fused converts — a run of N events, T0 the previous run's
// T1, or a window on a multiple of its length — once the stream has
// passed it; Close ends the stream at an instant, framing the partial
// run and every window that ends by then. The offline conversion (a
// framer per shard) and a served session (one, seeded at its first
// event) both frame through it, so a stream frames alike however it is
// cut.
package e2sf

// Config controls a conversion.
type Config struct {
	Width, Height int
	// NumBins is nB in Eq. 1: the number of event bins between Tstart
	// and Tend, i.e. the temporal resolution of the representation.
	NumBins int
}

// Stats reports what a conversion did.
type Stats struct {
	Frames int // sparse frames emitted
}
