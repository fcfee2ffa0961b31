package e2sf

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"evedge/internal/events"
	"evedge/internal/mem"
	"evedge/internal/sparse"
)

// randStream builds a sorted random stream over [t0, t1).
func randStream(rng *rand.Rand, w, h, n int, t0, t1 int64) *events.Stream {
	s := events.NewStream(w, h)
	if n == 0 {
		return s
	}
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = t0 + rng.Int63n(t1-t0)
	}
	slices.Sort(ts)
	for _, t := range ts {
		pol := events.On
		if rng.Intn(2) == 0 {
			pol = events.Off
		}
		s.Events = append(s.Events, events.Event{
			TS: t, X: uint16(rng.Intn(w)), Y: uint16(rng.Intn(h)), Pol: pol,
		})
	}
	return s
}

// framesEqual compares the observable frame state (geometry, bounds,
// entries) without caring about nil-vs-empty slice representation.
func framesEqual(t *testing.T, ctx string, got, want *sparse.Frame) {
	t.Helper()
	if got.H != want.H || got.W != want.W || got.T0 != want.T0 || got.T1 != want.T1 {
		t.Fatalf("%s: frame geometry/bounds = %dx%d [%d,%d), want %dx%d [%d,%d)",
			ctx, got.H, got.W, got.T0, got.T1, want.H, want.W, want.T0, want.T1)
	}
	if got.NNZ() != want.NNZ() {
		t.Fatalf("%s: NNZ = %d, want %d", ctx, got.NNZ(), want.NNZ())
	}
	for i := range want.Ys {
		if got.Ys[i] != want.Ys[i] || got.Xs[i] != want.Xs[i] ||
			got.Pos[i] != want.Pos[i] || got.Neg[i] != want.Neg[i] {
			t.Fatalf("%s: entry %d = (%d,%d,%v,%v), want (%d,%d,%v,%v)", ctx, i,
				got.Ys[i], got.Xs[i], got.Pos[i], got.Neg[i],
				want.Ys[i], want.Xs[i], want.Pos[i], want.Neg[i])
		}
	}
}

// TestFusedConvertGroupedParity checks Fused against the reference
// (per-bin maps, then cAdd-merged groups) across random streams, group
// sizes, and bin counts — including group size 1, group sizes larger
// than the bin count, and empty streams.
func TestFusedConvertGroupedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 120; trial++ {
		w, h := 4+rng.Intn(12), 4+rng.Intn(12)
		nB := 1 + rng.Intn(8)
		groupK := 1 + rng.Intn(10) // may exceed nB
		cfg := Config{Width: w, Height: h, NumBins: nB}
		t0 := rng.Int63n(1000)
		t1 := t0 + 1 + rng.Int63n(997) // deliberately not a multiple of nB
		s := randStream(rng, w, h, rng.Intn(400), t0, t1)

		want := referenceConvert(cfg, s, t0, t1, groupK)
		got, fSt, err := mustFused(t, w, h, nB).ConvertGrouped(s, t0, t1, groupK)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: fused emitted %d frames, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			framesEqual(t, "grouped", got[i], want[i])
		}
		if fSt.EventsIn != s.Len() {
			t.Fatalf("trial %d: EventsIn %d != %d", trial, fSt.EventsIn, s.Len())
		}
		if fSt.Frames != len(want) {
			t.Fatalf("trial %d: Stats.Frames = %d, want %d", trial, fSt.Frames, len(want))
		}
	}
}

// TestFusedConvertByCountParity checks count framing against the
// reference, including zero-event windows.
func TestFusedConvertByCountParity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 120; trial++ {
		w, h := 4+rng.Intn(12), 4+rng.Intn(12)
		cfg := Config{Width: w, Height: h, NumBins: 1 + rng.Intn(4)}
		t0 := rng.Int63n(1000)
		t1 := t0 + 1 + rng.Int63n(997)
		s := randStream(rng, w, h, rng.Intn(300), t0, t1)
		cpf := 1 + rng.Intn(50)

		want := referenceByCount(cfg, s, t0, t1, cpf)
		got, fSt, err := mustFused(t, w, h, cfg.NumBins).ConvertByCount(s, t0, t1, cpf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: fused emitted %d frames, reference %d", trial, len(got), len(want))
		}
		nnz := 0
		for i := range want {
			framesEqual(t, "bycount", got[i], want[i])
			nnz += want[i].NNZ()
		}
		if fSt.EventsIn != s.Len() || fSt.Frames != len(want) || fSt.TotalNNZ != nnz {
			t.Fatalf("trial %d: stats %+v, want %d events, %d frames, %d nnz", trial, fSt, s.Len(), len(want), nnz)
		}
	}
}

// TestFusedScratchReuseAcrossChunks runs many conversions through one
// converter and checks each against the reference — stale scratch from
// a previous chunk must never leak into the next.
func TestFusedScratchReuseAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	cfg := Config{Width: 10, Height: 10, NumBins: 4}
	fused := mustFused(t, 10, 10, 4)
	for chunk := 0; chunk < 50; chunk++ {
		t0 := int64(chunk * 1000)
		t1 := t0 + 1000
		s := randStream(rng, 10, 10, rng.Intn(200), t0, t1)
		want := referenceConvert(cfg, s, t0, t1, 2)
		got, _, err := fused.ConvertGrouped(s, t0, t1, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			framesEqual(t, "reuse", got[i], want[i])
		}
	}
}

// TestFusedPooledZeroAlloc is the kernel's hot-path contract: with a
// warm FramePool and warm scratch, converting a chunk and releasing the
// frames performs zero heap allocations.
func TestFusedPooledZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	cfg := Config{Width: 32, Height: 32, NumBins: 4}
	pool := mem.NewFramePool()
	fused, err := NewFused(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	s := randStream(rng, 32, 32, 512, 0, 1000)
	out := make([]*sparse.Frame, 0, 8)
	cycle := func() {
		out = out[:0]
		var err error
		out, _, err = fused.ConvertGroupedAppend(out, s, 0, 1000, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range out {
			pool.Put(f)
		}
	}
	cycle() // warm pool, scratch, and output capacities
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm fused convert allocates %.1f allocs/op, want 0", n)
	}
}

// TestFusedSharedPoolConcurrent: converters sharing one FramePool run
// on their own goroutines — a serving node's sessions — and every call
// borrows the accumulation grid from the pool. Each goroutine's frames
// must equal what a private, unpooled converter produces from the same
// chunks (two calls adding to one grid at once would not; under -race
// the detector sees the sharing directly), and the pool ends with
// every grid returned and no more grids made than there were
// concurrent borrowers.
func TestFusedSharedPoolConcurrent(t *testing.T) {
	const workers, chunks = 8, 60
	cfg := Config{Width: 70, Height: 40, NumBins: 4}
	pool := mem.NewFramePool()
	same := func(a, b *sparse.Frame) bool {
		return a.T0 == b.T0 && a.T1 == b.T1 && slices.Equal(a.Ys, b.Ys) && slices.Equal(a.Xs, b.Xs) &&
			slices.Equal(a.Pos, b.Pos) && slices.Equal(a.Neg, b.Neg)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			pooled, err := NewFused(cfg, pool)
			if err != nil {
				t.Error(err)
				return
			}
			serial, err := NewFused(cfg, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for c := 0; c < chunks; c++ {
				t0 := int64(c * 1000)
				s := randStream(rng, cfg.Width, cfg.Height, rng.Intn(600), t0, t0+1000)
				var got, want []*sparse.Frame
				if cpf := 1 + rng.Intn(80); c%2 == 0 {
					got, _, _ = pooled.ConvertGrouped(s, t0, t0+1000, 2)
					want, _, _ = serial.ConvertGrouped(s, t0, t0+1000, 2)
				} else {
					got, _, _ = pooled.ConvertByCount(s, t0, t0+1000, cpf)
					want, _, _ = serial.ConvertByCount(s, t0, t0+1000, cpf)
				}
				if len(got) != len(want) {
					t.Errorf("worker %d chunk %d: %d frames, serial %d", g, c, len(got), len(want))
					return
				}
				for i, f := range got {
					if !same(f, want[i]) {
						t.Errorf("worker %d chunk %d frame %d differs from serial conversion", g, c, i)
						return
					}
					pool.Put(f)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := pool.AccumStats(); st.Live() != 0 || st.News > workers || st.Gets != workers*chunks {
		t.Fatalf("grid traffic %+v: want %d borrows, all returned, at most %d grids made", st, workers*chunks, workers)
	}
}

func TestFusedValidation(t *testing.T) {
	cfg := Config{Width: 8, Height: 8, NumBins: 2}
	fused, err := NewFused(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := events.NewStream(8, 8)
	if _, _, err := fused.ConvertGrouped(s, 10, 10, 1); err == nil {
		t.Fatal("empty interval accepted")
	}
	if _, _, err := fused.ConvertGrouped(s, 0, 10, 0); err == nil {
		t.Fatal("zero group size accepted")
	}
	if _, _, err := fused.ConvertGrouped(events.NewStream(4, 4), 0, 10, 1); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if _, _, err := fused.ConvertByCount(s, 0, 10, 0); err == nil {
		t.Fatal("zero countPerFrame accepted")
	}
	if _, err := NewFused(Config{Width: 0, Height: 1, NumBins: 1}, nil); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

// BenchmarkE2SFConvert compares the map-per-bin reference against
// Fused, pooled and unpooled.
func BenchmarkE2SFConvert(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	cfg := Config{Width: 128, Height: 128, NumBins: 8}
	s := randStream(rng, 128, 128, 8192, 0, 10000)
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceConvert(cfg, s, 0, 10000, 2)
		}
	})
	b.Run("fused", func(b *testing.B) {
		fused, _ := NewFused(cfg, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := fused.ConvertGrouped(s, 0, 10000, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fused-pooled", func(b *testing.B) {
		pool := mem.NewFramePool()
		fused, _ := NewFused(cfg, pool)
		out := make([]*sparse.Frame, 0, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = out[:0]
			var err error
			out, _, err = fused.ConvertGroupedAppend(out, s, 0, 10000, 2)
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range out {
				pool.Put(f)
			}
		}
	})
}
