package e2sf

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"evedge/internal/events"
	"evedge/internal/mem"
	"evedge/internal/nn"
	"evedge/internal/scene"
	"evedge/internal/sparse"
)

// randStream builds a sorted random stream over [t0, t1).
func randStream(rng *rand.Rand, w, h, n int, t0, t1 int64) *events.Stream {
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = t0 + rng.Int63n(t1-t0)
	}
	return streamAt(rng, w, h, ts)
}

// streamAt builds a sorted stream with one event, at a random pixel
// and polarity, per timestamp.
func streamAt(rng *rand.Rand, w, h int, ts []int64) *events.Stream {
	s := events.NewStream(w, h)
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
	for i := range want.Cells {
		gy, gx := got.YX(i)
		wy, wx := want.YX(i)
		if gy != wy || gx != wx || got.Pos[i] != want.Pos[i] || got.Neg[i] != want.Neg[i] {
			t.Fatalf("%s: entry %d = (%d,%d,%v,%v), want (%d,%d,%v,%v)", ctx, i,
				gy, gx, got.Pos[i], got.Neg[i], wy, wx, want.Pos[i], want.Neg[i])
		}
	}
}

// checkGroupedParity converts s over [t0, t1) with Fused and holds the
// frames and the stats to the reference.
func checkGroupedParity(t *testing.T, ctx string, cfg Config, s *events.Stream, t0, t1 int64, groupK int) {
	t.Helper()
	want := referenceConvert(cfg, s, t0, t1, groupK)
	got, fSt, err := mustFused(t, cfg.Width, cfg.Height, cfg.NumBins).ConvertGroupedAppend(nil, s, t0, t1, groupK)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: fused emitted %d frames, reference %d", ctx, len(got), len(want))
	}
	for i := range want {
		framesEqual(t, fmt.Sprintf("%s, frame %d", ctx, i), got[i], want[i])
	}
	if k, n := framedEvents(got), len(s.Window(t0, t1)); k != n {
		t.Fatalf("%s: %d events framed, %d in the window", ctx, k, n)
	}
	if fSt.Frames != len(want) {
		t.Fatalf("%s: Stats.Frames = %d, want %d", ctx, fSt.Frames, len(want))
	}
}

// groupEdges returns the first timestamp of every group after the
// first (t1 for a group no timestamp of [t0, t1) falls in), found by
// stepping one microsecond at a time from Eq. 1's estimate: it shares
// nothing with firstOffset but the bin expression.
func groupEdges(t0, t1 int64, nB, groupK int) []int64 {
	span := t1 - t0
	biS := float64(span) / float64(nB)
	bin := func(d int64) int { return min(int(float64(d)/biS), nB-1) }
	var out []int64
	for a := groupK; a < nB; a += groupK {
		d := span
		if est := float64(a) * biS; est < float64(span) {
			d = int64(est)
		}
		for d > 0 && bin(d-1) >= a {
			d--
		}
		for d < span && bin(d) < a {
			d++
		}
		out = append(out, t0+d)
	}
	return out
}

// edgeStream draws n random events over [t0, t1) and adds one on every
// group's first timestamp and one just before it.
func edgeStream(rng *rand.Rand, cfg Config, t0, t1 int64, groupK, n int) *events.Stream {
	ts := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, t0+rng.Int63n(t1-t0))
	}
	for _, e := range groupEdges(t0, t1, cfg.NumBins, groupK) {
		for _, t := range []int64{e - 1, e} {
			if t >= t0 && t < t1 {
				ts = append(ts, t)
			}
		}
	}
	return streamAt(rng, cfg.Width, cfg.Height, ts)
}

// TestFusedConvertGroupedParity checks Fused against the reference
// (per-bin maps, then cAdd-merged groups) across random streams, group
// sizes, and bin counts — including group size 1, group sizes larger
// than the bin count, and empty streams — and then where the group
// edges are hardest to place: windows near 1<<62 and ending within one
// window of MaxInt64, windows shorter than NumBins (groups no
// timestamp falls in), 2^62 µs windows (one float64 step spans a
// thousand microseconds), each with events on every group edge and one
// microsecond before it.
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
		checkGroupedParity(t, fmt.Sprintf("trial %d", trial), cfg, s, t0, t1, groupK)
	}
	const windowUS = 5000 // serve refuses timestamps within one window of either int64 end
	for trial := 0; trial < 160; trial++ {
		cfg := Config{Width: 4 + rng.Intn(12), Height: 4 + rng.Intn(12), NumBins: 1 + rng.Intn(16)}
		groupK := 1 + rng.Intn(5)
		var t0, t1 int64
		switch trial % 4 {
		case 0:
			t0 = 1<<62 + rng.Int63n(1000)
			t1 = t0 + 1 + rng.Int63n(windowUS)
		case 1:
			t1 = math.MaxInt64 - rng.Int63n(windowUS)
			t0 = t1 - 1 - rng.Int63n(windowUS)
		case 2:
			cfg.NumBins = 2 + rng.Intn(15)
			t0 = rng.Int63n(1000) - 500
			t1 = t0 + 1 + rng.Int63n(int64(cfg.NumBins-1))
		default:
			t0 = 1<<62 - rng.Int63n(1000)
			t1 = math.MaxInt64 - rng.Int63n(windowUS)
		}
		s := edgeStream(rng, cfg, t0, t1, groupK, rng.Intn(100))
		checkGroupedParity(t, fmt.Sprintf("edge trial %d: [%d, %d), %d bins, k %d", trial, t0, t1, cfg.NumBins, groupK), cfg, s, t0, t1, groupK)
	}
}

// FuzzConvertGrouped holds time framing to the reference on any
// window, bin count and group size the input spells: each 9-byte
// record is one event, an offset into the window and then a pixel and
// polarity in one byte; every group edge and the microsecond before it
// get an event too.
func FuzzConvertGrouped(f *testing.F) {
	f.Add(int64(0), int64(1000), uint8(5), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(1<<62), int64(4999), uint8(7), uint8(1), []byte{})
	f.Add(int64(math.MaxInt64-3), int64(3), uint8(9), uint8(2), []byte{0xff, 0, 0, 0, 0, 0, 0, 0, 0x51})
	f.Add(int64(1<<62), int64(1<<62), uint8(10), uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 0x40, 0x7f})
	f.Add(int64(-5000), int64(5000), uint8(31), uint8(39), []byte{0x88, 0x13, 0, 0, 0, 0, 0, 0, 0x2a})
	f.Fuzz(func(t *testing.T, t0, span int64, nB, groupK uint8, data []byte) {
		span &= math.MaxInt64
		span = max(span, 1)
		t0 = min(t0, math.MaxInt64-span)
		cfg := Config{Width: 8, Height: 8, NumBins: 1 + int(nB%32)}
		k := 1 + int(groupK%40)
		s := events.NewStream(cfg.Width, cfg.Height)
		add := func(ts int64, px byte) {
			pol := events.On
			if px&0x40 != 0 {
				pol = events.Off
			}
			s.Events = append(s.Events, events.Event{TS: ts, X: uint16(px & 7), Y: uint16(px >> 3 & 7), Pol: pol})
		}
		for ; len(data) >= 9; data = data[9:] {
			add(t0+int64(binary.LittleEndian.Uint64(data)%uint64(span)), data[8])
		}
		for i, e := range groupEdges(t0, t0+span, cfg.NumBins, k) {
			if e < t0+span {
				add(e, byte(i))
			}
			if e > t0 {
				add(e-1, byte(i+1))
			}
		}
		slices.SortStableFunc(s.Events, func(a, b events.Event) int { return cmp.Compare(a.TS, b.TS) })
		checkGroupedParity(t, fmt.Sprintf("[%d, %d), %d bins, k %d", t0, t0+span, cfg.NumBins, k), cfg, s, t0, t0+span, k)
	})
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
		got, fSt, err := mustFused(t, w, h, cfg.NumBins).ConvertByCountAppend(nil, s, t0, t1, cpf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: fused emitted %d frames, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			framesEqual(t, "bycount", got[i], want[i])
		}
		if framedEvents(got) != s.Len() || fSt.Frames != len(want) {
			t.Fatalf("trial %d: %d events framed, stats %+v, want %d events, %d frames", trial, framedEvents(got), fSt, s.Len(), len(want))
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
		got, _, err := fused.ConvertGroupedAppend(nil, s, t0, t1, 2)
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
		return a.T0 == b.T0 && a.T1 == b.T1 && slices.Equal(a.Cells, b.Cells) &&
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
					got, _, _ = pooled.ConvertGroupedAppend(nil, s, t0, t0+1000, 2)
					want, _, _ = serial.ConvertGroupedAppend(nil, s, t0, t0+1000, 2)
				} else {
					got, _, _ = pooled.ConvertByCountAppend(nil, s, t0, t0+1000, cpf)
					want, _, _ = serial.ConvertByCountAppend(nil, s, t0, t0+1000, cpf)
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
	if _, _, err := fused.ConvertGroupedAppend(nil, s, 10, 10, 1); err == nil {
		t.Fatal("empty interval accepted")
	}
	if _, _, err := fused.ConvertGroupedAppend(nil, s, 0, 10, 0); err == nil {
		t.Fatal("zero group size accepted")
	}
	if _, _, err := fused.ConvertGroupedAppend(nil, events.NewStream(4, 4), 0, 10, 1); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if _, _, err := fused.ConvertByCountAppend(nil, s, 0, 10, 0); err == nil {
		t.Fatal("zero countPerFrame accepted")
	}
	if _, err := NewFused(Config{Width: 0, Height: 1, NumBins: 1}, nil); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

// spikeflownetStream is one second of the half-scale IndoorFlying2
// stream at seed 7, SpikeFlowNet's input.
var spikeflownetStream = sync.OnceValues(func() (*events.Stream, error) {
	seq, err := scene.NewSequence(scene.IndoorFlying2, scene.Half, 7)
	if err != nil {
		return nil, err
	}
	return seq.Generate(1_000_000)
})

// BenchmarkE2SFConvert compares the map-per-bin reference against
// Fused, pooled and unpooled, on a uniform random stream; the
// spikeflownet-count row count-frames a real stream one run at a time:
// each run of the zoo's N events (225 at half scale) converted over its
// own span into a frame from a pool, which goes back once read.
func BenchmarkE2SFConvert(b *testing.B) {
	b.Run("spikeflownet-count", func(b *testing.B) {
		s, err := spikeflownetStream()
		if err != nil {
			b.Fatal(err)
		}
		n := nn.MustByName(nn.SpikeFlowNet).Input.EventsPerFrame(s.Width, s.Height)
		pool := mem.NewFramePool()
		fused, err := NewFused(Config{Width: s.Width, Height: s.Height, NumBins: 1}, pool)
		if err != nil {
			b.Fatal(err)
		}
		run := events.NewStream(s.Width, s.Height)
		out := make([]*sparse.Frame, 0, 1)
		convert := func() {
			for evs := s.Events; len(evs) >= n; evs = evs[n:] {
				run.Events = evs[:n]
				out, _, err = fused.ConvertByCountAppend(out[:0], run, evs[0].TS, evs[n-1].TS+1, n)
				if err != nil {
					b.Fatal(err)
				}
				pool.Put(out[0])
			}
		}
		convert()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			convert()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(s.Events)/n*n), "ns/event")
	})

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
			if _, _, err := fused.ConvertGroupedAppend(nil, s, 0, 10000, 2); err != nil {
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
