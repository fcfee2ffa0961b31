// Package sparse provides the dense and sparse linear-algebra
// substrate used by Ev-Edge: CHW dense tensors, COO sparse frames,
// dense direct convolution, sparse gather-scatter convolution and
// submanifold convolution, plus the operation-count accounting that
// drives the performance model.
//
// Event frames are extremely sparse (0.15%-28.6% active pixels in the
// paper's Fig. 3), so processing them with fixed-size dense kernels
// wastes most of the arithmetic; this package supplies both the dense
// baseline path and the sparse path whose cost is proportional to the
// number of active sites.
package sparse

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense C x H x W tensor of float32 values in row-major
// (channel, row, column) order.
type Tensor struct {
	C, H, W int
	Data    []float32
}

// NewTensor allocates a zeroed C x H x W tensor.
func NewTensor(c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("sparse: invalid tensor shape %dx%dx%d", c, h, w))
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// At returns the element at (c, y, x).
func (t *Tensor) At(c, y, x int) float32 { return t.Data[(c*t.H+y)*t.W+x] }

// Set stores v at (c, y, x).
func (t *Tensor) Set(c, y, x int, v float32) { t.Data[(c*t.H+y)*t.W+x] = v }

// Numel returns the number of elements.
func (t *Tensor) Numel() int { return t.C * t.H * t.W }

// Zero resets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// NNZ counts nonzero elements.
func (t *Tensor) NNZ() int {
	n := 0
	for _, v := range t.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// ActiveSites returns the (y, x) positions where any channel is
// nonzero — the "active site" notion of submanifold sparse convolution.
func (t *Tensor) ActiveSites() []Site {
	var out []Site
	for y := 0; y < t.H; y++ {
	pixel:
		for x := 0; x < t.W; x++ {
			for c := 0; c < t.C; c++ {
				if t.At(c, y, x) != 0 {
					out = append(out, Site{Y: int32(y), X: int32(x)})
					continue pixel
				}
			}
		}
	}
	return out
}

// MaxAbsDiff returns the largest absolute elementwise difference
// between two same-shaped tensors.
func MaxAbsDiff(a, b *Tensor) float64 {
	if a.C != b.C || a.H != b.H || a.W != b.W {
		panic("sparse: shape mismatch in MaxAbsDiff")
	}
	m := 0.0
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i] - b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// FillRandom fills the tensor with uniform values in [-1, 1) from r.
func (t *Tensor) FillRandom(r *rand.Rand) {
	for i := range t.Data {
		t.Data[i] = r.Float32()*2 - 1
	}
}

// FillRandomSparse zeroes the tensor and then sets approximately
// density * Numel elements to uniform values in [-1, 1).
func (t *Tensor) FillRandomSparse(r *rand.Rand, density float64) {
	t.Zero()
	n := int(density * float64(t.Numel()))
	for i := 0; i < n; i++ {
		t.Data[r.Intn(len(t.Data))] = r.Float32()*2 - 1
	}
}

// Site is an active pixel location.
type Site struct{ Y, X int32 }

// ReLU applies max(0, x) in place and returns t.
func (t *Tensor) ReLU() *Tensor {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
	return t
}
