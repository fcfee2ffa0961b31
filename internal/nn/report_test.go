package nn

import (
	"strings"
	"testing"
)

func TestSummary(t *testing.T) {
	n := MustByName(SpikeFlowNet)
	s := n.Summary()
	for _, want := range []string{"SpikeFlowNet", "enc1", "flow", "GMACs", "count framing"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

// TestZooShapesChain is a load-bearing structural check: every network
// in the zoo must have shape-consistent edges (including the concat
// fusion layers of the hybrid networks).
func TestZooShapesChain(t *testing.T) {
	for _, name := range AllNames() {
		n := MustByName(name)
		if err := n.CheckShapes(); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestCheckShapesCatchesBreaks(t *testing.T) {
	n := MustByName(HALSIE)
	// Corrupt the fusion layer's channel expectation.
	for _, l := range n.Layers {
		if l.Name == "fuse" {
			l.InC = 999
		}
	}
	if err := n.CheckShapes(); err == nil {
		t.Fatal("channel mismatch accepted")
	}
	n2 := MustByName(SpikeFlowNet)
	n2.Layers[3].OutH = 99 // spatial break
	if err := n2.CheckShapes(); err == nil {
		t.Fatal("spatial mismatch accepted")
	}
}
