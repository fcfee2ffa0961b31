package sparse

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"evedge/internal/scene"
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

// spikeflownetFrames count-frames one second of the half-scale
// IndoorFlying2 stream (seed 7) as E2SF does for SpikeFlowNet: every
// run of 225 events (the zoo's N at 173 x 130,
// nn.InputSpec.EventsPerFrame) touched into a grid and emitted.
var spikeflownetFrames = sync.OnceValues(func() ([]*Frame, error) {
	const n = 225
	seq, err := scene.NewSequence(scene.IndoorFlying2, scene.Half, 7)
	if err != nil {
		return nil, err
	}
	s, err := seq.Generate(1_000_000)
	if err != nil {
		return nil, err
	}
	acc := NewAccum(s.Height, s.Width)
	var frames []*Frame
	for evs := s.Events; len(evs) >= n; evs = evs[n:] {
		for _, e := range evs[:n] {
			acc.Touch(int(e.Y), int(e.X))[uint8(e.Pol)>>7]++
		}
		f := NewFrame(s.Height, s.Width, evs[0].TS, evs[n-1].TS+1)
		acc.Emit(f, 1)
		frames = append(frames, f)
	}
	return frames, nil
})

// BenchmarkUnionCount prices a bucket as DSFA's dispatch does: its
// union counted on the occupancy bitmaps, no pixel summed. The
// synthetic row is BenchmarkMergeAdd's bucket; the spikeflownet row
// counts every three consecutive real count frames, and its ns/event
// divides by the 675 events they hold.
func BenchmarkUnionCount(b *testing.B) {
	b.Run("synthetic", func(b *testing.B) {
		frames := mergeMembers()
		acc := NewAccum(64, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			unionSink = acc.UnionCount(frames)
		}
	})
	b.Run("spikeflownet-3", func(b *testing.B) {
		frames, err := spikeflownetFrames()
		if err != nil {
			b.Fatal(err)
		}
		buckets := len(frames) / 3
		acc := NewAccum(frames[0].H, frames[0].W)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < buckets; k++ {
				unionSink = acc.UnionCount(frames[3*k : 3*k+3])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(buckets*3*225), "ns/event")
	})
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
