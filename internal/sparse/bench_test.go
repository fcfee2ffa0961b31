package sparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchInput builds a 64x64 input tensor with ~density fraction of
// active sites, mirroring a mid-stream E2SF frame.
func benchInput(c, h, w int, density float64) *Tensor {
	rng := rand.New(rand.NewSource(42))
	in := NewTensor(c, h, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if rng.Float64() < density {
				for ch := 0; ch < c; ch++ {
					in.Set(ch, y, x, rng.Float32())
				}
			}
		}
	}
	return in
}

func benchFilter(outC, inC, k int) *Filter {
	rng := rand.New(rand.NewSource(7))
	f := NewFilter(outC, inC, k, 1, k/2)
	for i := range f.Weights {
		f.Weights[i] = rng.Float32() - 0.5
	}
	return f
}

func BenchmarkConv2D(b *testing.B) {
	in := benchInput(2, 64, 64, 0.1)
	f := benchFilter(8, 2, 3)
	oh, ow := f.OutShape(in.H, in.W)
	out := NewTensor(f.OutC, oh, ow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Conv2DInto(out, in, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseConv2D(b *testing.B) {
	in := benchInput(2, 64, 64, 0.05)
	f := benchFilter(8, 2, 3)
	oh, ow := f.OutShape(in.H, in.W)
	out := NewTensor(f.OutC, oh, ow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SparseConv2DInto(out, in, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubmanifoldConv2D(b *testing.B) {
	in := benchInput(2, 64, 64, 0.05)
	f := benchFilter(8, 2, 3)
	out := NewTensor(f.OutC, in.H, in.W)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SubmanifoldConv2DInto(out, in, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameSet(b *testing.B) {
	const h, w = 128, 128
	rng := rand.New(rand.NewSource(3))
	ys := make([]int32, 2048)
	xs := make([]int32, 2048)
	for i := range ys {
		ys[i] = int32(rng.Intn(h))
		xs[i] = int32(rng.Intn(w))
	}
	f := NewFrame(h, w, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Reset(h, w, 0, 1)
		for j := range ys {
			f.Set(ys[j], xs[j], 1, 0)
		}
		f.NNZ() // force compaction inside the measured region
	}
}

// mergeMembers returns the bucket BenchmarkMergeAdd sums and
// BenchmarkUnionCount counts: four sorted 64 x 64 members of up to 300
// cells each.
func mergeMembers() []*Frame {
	frames := make([]*Frame, 4)
	rng := rand.New(rand.NewSource(5))
	for i := range frames {
		f := NewFrame(64, 64, int64(i), int64(i+1))
		for n := 0; n < 300; n++ {
			f.Set(int32(rng.Intn(64)), int32(rng.Intn(64)), rng.Float32(), rng.Float32())
		}
		f.NNZ()
		frames[i] = f
	}
	return frames
}

func BenchmarkMergeAdd(b *testing.B) {
	frames := mergeMembers()
	out := &Frame{}
	acc := NewAccum(64, 64)
	acc.Merge(out, frames, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Merge(out, frames, 1)
	}
}

// unionSink keeps BenchmarkUnionCount's result live.
var unionSink int

// BenchmarkUnionCount prices BenchmarkMergeAdd's bucket as DSFA's
// dispatch does: its union counted on the occupancy bitmaps, no pixel
// summed.
func BenchmarkUnionCount(b *testing.B) {
	frames := mergeMembers()
	acc := NewAccum(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unionSink = acc.UnionCount(frames)
	}
}

// BenchmarkAccumEmit is the activity-proportional curve of the
// accumulation grid: one Touch per cell plus one Emit into a warm
// frame on a DAVIS346 (346 x 260) grid, over touched fractions from
// the serving path's by-count frames (0.33 %) to half the sensor. The
// cell set slides across the grid from one emission to the next, as a
// moving scene's does, so the walk's branches are not learnt by rote.
// The ns/cell column is what a touched cell costs end to end; it
// should not rise as the frame gets sparser.
func BenchmarkAccumEmit(b *testing.B) {
	const h, w = 260, 346
	for _, frac := range []float64{0.001, 0.0033, 0.01, 0.1, 0.5} {
		b.Run(fmt.Sprintf("touched=%g%%", frac*100), func(b *testing.B) {
			rng := rand.New(rand.NewSource(22))
			cells := rng.Perm(h * w)[:int(frac*h*w)]
			acc := NewAccum(h, w)
			out := NewFrame(h, w, 0, 1)
			off := 0
			emit := func() {
				for _, c := range cells {
					if c += off; c >= h*w {
						c -= h * w
					}
					acc.Touch(c/w, c%w)[0]++
				}
				off = (off + 7919) % (h * w)
				out.Reset(h, w, 0, 1)
				acc.Emit(out, 1)
			}
			emit()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				emit()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cells)), "ns/cell")
		})
	}
}
