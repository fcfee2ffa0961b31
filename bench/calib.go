package main

import (
	"math"
	"slices"
	"time"
)

// The reference kernel is a fixed piece of work that uses nothing of
// the repository: a random walk over a buffer larger than the
// last-level cache share, an integer sort and a float recurrence —
// the three things the workloads spend their time on (cache misses,
// branchy integer code, float arithmetic). Timing it next to a round
// tells how fast this host is right now.
//
// Why it exists: this benchmark runs on shared 2-CPU hosts whose speed
// drifts by 15-30 % over tens of minutes (two sets of ten runs of the
// same commit, an hour apart, differed by -16 % to -33 % in raw
// throughput and +20 % to +63 % in raw set-up time). No bound a
// regression check could use survives that, so every end-to-end time is
// reported in calibrated seconds: wall seconds scaled by
// refNominalS / (the run's median reference-kernel time). On a host as
// fast as the one the constant was taken on, calibrated equals raw. The
// raw figures and the factor are printed beside the calibrated ones.
const (
	refWords  = 1 << 21 // 8 MiB of uint32
	refSortN  = 1 << 15
	refFloatN = 1 << 19
)

// refNominalS is the reference kernel's time on the quiet host the
// benchmark was written on; it fixes the scale of calibrated seconds and
// must not change between the commits a comparison spans.
const refNominalS = 0.0065

var (
	refBuf  = make([]uint32, refWords)
	refSort = make([]int32, refSortN)
	refSink float64
)

func refKernel() {
	x := uint32(2463534242)
	var acc uint64
	for i := 0; i < refWords/8; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & (refWords - 1)
		refBuf[j] += x
		acc += uint64(refBuf[(j*40503)&(refWords-1)])
	}
	for i := range refSort {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		refSort[i] = int32(x)
	}
	slices.Sort(refSort)
	f := 1.0
	for i := 0; i < refFloatN; i++ {
		f = f*0.999999 + math.Float64frombits(0x3ff0000000000000|uint64(i&1023))
	}
	refSink += f + float64(acc) + float64(refSort[refSortN/2])
}

// refSeconds times the reference kernel: the median of three
// executions.
func refSeconds() float64 {
	var d [3]float64
	for i := range d {
		t0 := time.Now()
		refKernel()
		d[i] = time.Since(t0).Seconds()
	}
	return median(d[:])
}
