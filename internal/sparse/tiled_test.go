package sparse

import (
	"math"
	"math/rand"
	"testing"

	"evedge/internal/par"
)

// bitsEqual asserts exact bit equality (including zero signs and NaN
// payloads) between two same-length float32 slices.
func bitsEqual(t *testing.T, tag string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%g), serial %x (%g)",
				tag, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// TestTiledKernelsBitIdentical is the tentpole property test: over
// randomized shapes, densities, filters, shard counts and worker
// counts, every tiled kernel must produce bit-for-bit the serial
// kernel's output. Negative weights and biases make cancellation (and
// hence accumulation-order sensitivity) likely, so any reordering
// would be caught.
func TestTiledKernelsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	pools := []*par.Pool{par.New(2), par.New(3), par.New(8)}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	for trial := 0; trial < 25; trial++ {
		inC := 1 + r.Intn(4)
		outC := 1 + r.Intn(5)
		h := 5 + r.Intn(28)
		w := 5 + r.Intn(28)
		density := []float64{0.01, 0.1, 0.5, 1.0}[r.Intn(4)]
		in := NewTensor(inC, h, w)
		in.FillRandomSparse(r, density)

		pool := pools[r.Intn(len(pools))]
		shards := 1 + r.Intn(10)

		// Dense direct + gather-scatter conv share a filter; stride and
		// pad vary.
		k := 1 + r.Intn(4)
		stride := 1 + r.Intn(2)
		pad := r.Intn(k)
		f := randFilter(r, outC, inC, k, stride, pad)
		if oh, ow := f.OutShape(h, w); oh > 0 && ow > 0 {
			want := NewTensor(outC, oh, ow)
			if err := Conv2DInto(want, in, f); err != nil {
				t.Fatal(err)
			}
			got := NewTensor(outC, oh, ow)
			got.FillRandom(r) // tiled kernels must overwrite fully
			if err := Conv2DTiledInto(got, in, f, pool, shards); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, "Conv2DTiledInto", got.Data, want.Data)

			want2 := NewTensor(outC, oh, ow)
			if err := SparseConv2DInto(want2, in, f); err != nil {
				t.Fatal(err)
			}
			got2 := NewTensor(outC, oh, ow)
			got2.FillRandom(r)
			if err := SparseConv2DTiledInto(got2, in, f, pool, shards); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, "SparseConv2DTiledInto", got2.Data, want2.Data)
		}
	}
}

// TestTiledSerialFallbacks: a nil pool, one shard, or deconv must take
// the serial path and still be correct.
func TestTiledSerialFallbacks(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	in := NewTensor(2, 9, 9)
	in.FillRandomSparse(r, 0.3)
	f := randFilter(r, 3, 2, 3, 1, 1)

	want, err := convOut(Conv2DInto, in, f)
	if err != nil {
		t.Fatal(err)
	}
	got := NewTensor(3, 9, 9)
	if err := Conv2DTiledInto(got, in, f, nil, 8); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "nil pool", got.Data, want.Data)

	pool := par.New(4)
	defer pool.Close()
	got2 := NewTensor(3, 9, 9)
	if err := Conv2DTiledInto(got2, in, f, pool, 1); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "one shard", got2.Data, want.Data)

	// Deconv routes to the serial scatter.
	fd := randFilter(r, 2, 2, 4, 2, 1)
	fd.Deconv = true
	wantD, err := convOut(Conv2DInto, in, fd)
	if err != nil {
		t.Fatal(err)
	}
	oh, ow := fd.OutShape(9, 9)
	gotD := NewTensor(2, oh, ow)
	if err := Conv2DTiledInto(gotD, in, fd, pool, 6); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "deconv fallback", gotD.Data, wantD.Data)
	gotD2 := NewTensor(2, oh, ow)
	if err := SparseConv2DTiledInto(gotD2, in, fd, pool, 6); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "sparse deconv fallback", gotD2.Data, wantD.Data)
}

// TestTiledShapeErrors: shape validation must match the serial kernels.
func TestTiledShapeErrors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pool := par.New(2)
	defer pool.Close()
	in := NewTensor(2, 8, 8)
	in.FillRandomSparse(r, 0.2)
	f := randFilter(r, 3, 2, 3, 1, 1)
	bad := NewTensor(3, 7, 8)
	if err := Conv2DTiledInto(bad, in, f, pool, 4); err == nil {
		t.Fatal("Conv2DTiledInto accepted a mis-shaped output")
	}
	if err := SparseConv2DTiledInto(bad, in, f, pool, 4); err == nil {
		t.Fatal("SparseConv2DTiledInto accepted a mis-shaped output")
	}
	wrongC := NewTensor(3, 8, 8)
	fc := randFilter(r, 3, 4, 3, 1, 1)
	if err := Conv2DTiledInto(wrongC, in, fc, pool, 4); err == nil {
		t.Fatal("Conv2DTiledInto accepted mismatched input channels")
	}
}

// TestDeconvIntoParity closes the PR 8 gap: deconv2DInto against a
// dirty pooled-style output must match the fresh-allocation deconv2D
// bit for bit, with and without bias.
func TestDeconvIntoParity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		inC := 1 + r.Intn(3)
		outC := 1 + r.Intn(4)
		h := 4 + r.Intn(12)
		w := 4 + r.Intn(12)
		in := NewTensor(inC, h, w)
		in.FillRandomSparse(r, []float64{0.05, 0.3, 1.0}[r.Intn(3)])
		k := 2 + r.Intn(3)
		stride := 1 + r.Intn(2)
		f := randFilter(r, outC, inC, k, stride, r.Intn(k))
		f.Deconv = true
		if trial%2 == 0 {
			f.Bias = nil // exercise the Zero() init path too
		}
		oh, ow := f.OutShape(h, w)
		if oh <= 0 || ow <= 0 {
			continue
		}
		want, err := convOut(Conv2DInto, in, f) // fresh output
		if err != nil {
			t.Fatal(err)
		}
		got := NewTensor(outC, oh, ow)
		got.FillRandom(r) // dirty, as a pooled tensor would be
		if err := Conv2DInto(got, in, f); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "deconv2DInto", got.Data, want.Data)
	}
}
