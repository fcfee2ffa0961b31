package experiments

import (
	"hash/fnv"
	"strconv"
	"strings"
	"testing"
)

// renderPins is the FNV-1a hash of RenderText for each paper table at
// QuickConfig, checked by the shape test that computes the table. A
// change that moves one (E2SF, DSFA, the mapper, the cost model, the
// quantizer's noise) fails here, so one that means to re-pins it and
// says so. The full-scale tables stay a manual evbench check.
var renderPins = map[string]uint64{
	"fig8":   0xd718de314c901b98,
	"energy": 0xc504d6810422a328,
	"fig9":   0xf7272ffc33dcd50a,
	"fig10a": 0xb14f9cec1e785e1d,
	"fig10b": 0x6ce3a7190857baff,
	"table2": 0x714d974f161f13b8,
}

// pinRender fails unless r renders to its pinned hash.
func pinRender(t *testing.T, r *Result) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(RenderText(r)))
	if got, want := h.Sum64(), renderPins[r.ID]; got != want {
		t.Errorf("%s: RenderText hash %#016x, pinned %#016x", r.ID, got, want)
	}
}

// parseRatio extracts the float from a "1.58x" cell.
func parseRatio(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("bad ratio cell %q: %v", cell, err)
	}
	return v
}

func TestIDsAllRegistered(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := registry[id]; !ok {
			t.Errorf("id %s not registered", id)
		}
	}
	if len(IDs()) != len(registry) {
		t.Fatalf("IDs lists %d, registry has %d", len(IDs()), len(registry))
	}
	if _, err := Run("nope", QuickConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	res, err := Run("table1", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	want := map[string]string{
		"SpikeFlowNet":      "12",
		"Fusion-FlowNet":    "29",
		"Adaptive-SpikeNet": "8",
		"HALSIE":            "16",
		"HidalgoDepth":      "15",
		"DOTIE":             "1",
	}
	for _, row := range res.Rows {
		if got := row[3]; got != want[row[0]] {
			t.Errorf("%s: layers %s want %s", row[0], got, want[row[0]])
		}
	}
}

func TestFig1ShowsWaste(t *testing.T) {
	res, err := Run("fig1", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Row 4: wasteful-op factor must be well above 1 (the paper's
	// motivation: most dense operations are wasted).
	factor := parseRatio(t, res.Rows[4][1])
	if factor < 2 {
		t.Fatalf("waste factor %.2f implausibly low", factor)
	}
}

func TestFig3DensityRange(t *testing.T) {
	res, err := Run("fig3", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	// Densities must span a wide range (paper: 0.15%-28.57%); require
	// at least one below 3% and one above 10%.
	var lo, hi = 100.0, 0.0
	for _, row := range res.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > 3 {
		t.Errorf("lowest density %.2f%% too high", lo)
	}
	if hi < 10 {
		t.Errorf("highest density %.2f%% too low", hi)
	}
}

func TestFig5Bursty(t *testing.T) {
	res, err := Run("fig5", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	series := res.Series["events_per_10ms"]
	if len(series) < 100 {
		t.Fatalf("series too short: %d", len(series))
	}
	ratio := parseRatio(t, res.Rows[3][1])
	if ratio < 2 {
		t.Fatalf("peak/mean %.2f not bursty enough for Fig. 5", ratio)
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline-heavy")
	}
	res, err := Run("fig8", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	pinRender(t, res)
	if len(res.Rows) != 6 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	byName := map[string][]string{}
	for _, row := range res.Rows {
		byName[row[0]] = row
	}
	// Every network's combined speedup is at least 1x and within a
	// loose band around the paper's 1.28-2.05x.
	for name, row := range byName {
		all := parseRatio(t, row[3])
		if all < 1.0 || all > 3.0 {
			t.Errorf("%s: combined speedup %.2f outside loose band", name, all)
		}
	}
	// SNN networks gain more than the pure-ANN depth network.
	if parseRatio(t, byName["Adaptive-SpikeNet"][3]) <= parseRatio(t, byName["HidalgoDepth"][3])*0.9 {
		t.Error("all-SNN network should gain at least as much as the ANN network")
	}
	// DSFA merges meaningfully for the flow networks but not for
	// segmentation (pixel-accuracy bound).
	if mr := mustFloat(t, byName["HALSIE"][4]); mr > 1.5 {
		t.Errorf("HALSIE merge ratio %.2f too aggressive for segmentation", mr)
	}
	if mr := mustFloat(t, byName["SpikeFlowNet"][4]); mr < 1.2 {
		t.Errorf("SpikeFlowNet merge ratio %.2f shows no DSFA activity", mr)
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEnergyImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline-heavy")
	}
	res, err := Run("energy", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	pinRender(t, res)
	for _, row := range res.Rows {
		if v := parseRatio(t, row[3]); v < 1.0 || v > 3.0 {
			t.Errorf("%s: energy improvement %.2f outside loose band", row[0], v)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("search-heavy")
	}
	res, err := Run("fig9", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	pinRender(t, res)
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	for _, row := range res.Rows {
		vsRRN := parseRatio(t, row[2])
		fpSlower := parseRatio(t, row[4])
		if vsRRN < 1.0 {
			t.Errorf("%s: NMP lost to RR-Network (%.2f)", row[0], vsRRN)
		}
		if fpSlower < 1.0 || fpSlower > 1.6 {
			t.Errorf("%s: NMP-FP penalty %.2f outside loose band", row[0], fpSlower)
		}
	}
}

func TestFig10Convergence(t *testing.T) {
	if testing.Short() {
		t.Skip("search-heavy")
	}
	res, err := Run("fig10a", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	pinRender(t, res)
	hist := res.Series["best_fitness_per_generation"]
	for i := 1; i < len(hist); i++ {
		if hist[i] > hist[i-1]+1e-9 {
			t.Fatalf("fitness regressed at generation %d", i)
		}
	}
	res2, err := Run("fig10b", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	pinRender(t, res2)
	ratio := parseRatio(t, res2.Rows[2][1])
	if ratio < 1.0 {
		t.Fatalf("random search beat evolutionary search (%.2f)", ratio)
	}
}

func TestTable2AccuracyWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline-heavy")
	}
	res, err := Run("table2", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	pinRender(t, res)
	// Measured Ev-Edge accuracy must be within ~2x of the paper's
	// reported delta from baseline (the ΔA bound mechanics).
	for _, row := range res.Rows {
		base := mustFloat(t, row[2])
		got := mustFloat(t, row[3])
		paper := mustFloat(t, row[4])
		paperDelta := paper - base
		gotDelta := got - base
		if paperDelta < 0 {
			paperDelta, gotDelta = -paperDelta, -gotDelta
		}
		if gotDelta < 0 {
			t.Errorf("%s: accuracy improved (%f), impossible under quantization", row[0], gotDelta)
		}
		if gotDelta > 2*paperDelta+1e-9 {
			t.Errorf("%s: delta %.3f exceeds 2x the paper's %.3f", row[0], gotDelta, paperDelta)
		}
	}
}

func TestRenderText(t *testing.T) {
	res, err := Run("table1", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := RenderText(res)
	if !strings.Contains(out, "SpikeFlowNet") || !strings.Contains(out, "paper:") {
		t.Fatalf("render missing content:\n%s", out)
	}
}
