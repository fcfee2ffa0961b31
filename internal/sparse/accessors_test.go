package sparse

// Methods that only the tests use, kept out of the package's build.

// W returns the weight for (outc, inc, ky, kx).
func (f *Filter) W(oc, ic, ky, kx int) float32 {
	return f.Weights[((oc*f.InC+ic)*f.K+ky)*f.K+kx]
}

// Add accumulates v into (c, y, x).
func (t *Tensor) Add(c, y, x int, v float32) { t.Data[(c*t.H+y)*t.W+x] += v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := NewTensor(t.C, t.H, t.W)
	copy(out.Data, t.Data)
	return out
}

// K returns the cache's kernel size.
func (c *RulebookCache) K() int { return c.k }

// Density returns NNZ / Numel.
func (t *Tensor) Density() float64 {
	if t.Numel() == 0 {
		return 0
	}
	return float64(t.NNZ()) / float64(t.Numel())
}

// Scale multiplies every element by s in place and returns t.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}
