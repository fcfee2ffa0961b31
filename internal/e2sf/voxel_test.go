package e2sf

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"evedge/internal/events"
	"evedge/internal/scene"
)

func TestConvertVoxelBilinear(t *testing.T) {
	c := mustFused(t, 4, 4, 3)
	// Window [0,100), nB=3: t* = 2*t/100.
	s := mkStream(4, 4,
		events.Event{X: 1, Y: 1, TS: 0, Pol: events.On},   // t*=0: all in bin 0
		events.Event{X: 2, Y: 2, TS: 50, Pol: events.On},  // t*=1: all in bin 1
		events.Event{X: 3, Y: 3, TS: 75, Pol: events.Off}, // t*=1.5: -0.5 in bins 1 and 2
		events.Event{X: 1, Y: 1, TS: 100, Pol: events.On}, // outside window
	)
	g, err := c.ConvertVoxel(s, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Bins) != 3 {
		t.Fatalf("bins=%d", len(g.Bins))
	}
	if p, _ := g.Bins[0].Get(1, 1); p != 1 {
		t.Fatalf("bin0 (1,1)=%f", p)
	}
	if p, _ := g.Bins[1].Get(2, 2); p != 1 {
		t.Fatalf("bin1 (2,2)=%f", p)
	}
	p1, _ := g.Bins[1].Get(3, 3)
	p2, _ := g.Bins[2].Get(3, 3)
	if p1 != -0.5 || p2 != -0.5 {
		t.Fatalf("split weights (%f, %f)", p1, p2)
	}
	// Mass: 1 + 1 + 1 (absolute) = 3.
	if m := g.Mass(); math.Abs(m-3) > 1e-6 {
		t.Fatalf("mass=%f", m)
	}
}

func TestConvertVoxelErrors(t *testing.T) {
	s := mkStream(4, 4)
	if _, err := mustFused(t, 4, 4, 1).ConvertVoxel(s, 0, 100); err == nil {
		t.Fatal("single-bin voxel accepted")
	}
	c2 := mustFused(t, 4, 4, 4)
	if _, err := c2.ConvertVoxel(s, 5, 5); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, err := c2.ConvertVoxel(mkStream(8, 8), 0, 10); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// Property: voxel mass equals the event count when all events share
// one polarity (no cancellation), and bins stay sorted/valid.
func TestVoxelMassProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nB := 2 + r.Intn(8)
		s := scene.GenerateUniform(16, 16, 20_000, 50_000, seed)
		// Force single polarity to prevent cancellation.
		for i := range s.Events {
			s.Events[i].Pol = events.On
		}
		g, err := mustFused(t, 16, 16, nB).ConvertVoxel(s, 0, 50_000)
		if err != nil {
			return false
		}
		for _, f := range g.Bins {
			// entries sorted by (y,x)
			if !sort.SliceIsSorted(f.Ys, func(i, j int) bool {
				if f.Ys[i] != f.Ys[j] {
					return f.Ys[i] < f.Ys[j]
				}
				return f.Xs[i] < f.Xs[j]
			}) {
				return false
			}
		}
		return math.Abs(g.Mass()-float64(s.Len())) < 1e-3*float64(s.Len())+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
