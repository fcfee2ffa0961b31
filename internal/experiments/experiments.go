// Package experiments regenerates every table and figure of the
// paper's evaluation (Sec. 5-6). Each experiment is a named generator
// returning a structured Result (header + rows + optional series) plus
// the paper's reference band, so cmd/evbench and the benchmark harness
// can print paper-vs-measured side by side and EXPERIMENTS.md can
// record the comparison.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"evedge/internal/scene"
)

// Config sizes an experiment run.
type Config struct {
	// Scale selects camera resolution; Full reproduces the DAVIS346
	// geometry, Half keeps CI fast.
	Scale scene.Scale
	// DurUS is the simulated stream duration per sequence.
	DurUS int64
	// Seed drives every stochastic component.
	Seed int64
	// Quick shrinks search budgets (for tests); the full runs use the
	// paper-scale defaults.
	Quick bool
}

// DefaultConfig returns the full-fidelity settings.
func DefaultConfig() Config {
	return Config{Scale: scene.Full, DurUS: 2_000_000, Seed: 7}
}

// QuickConfig returns fast settings for tests.
func QuickConfig() Config {
	return Config{Scale: scene.Half, DurUS: 1_200_000, Seed: 7, Quick: true}
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Series holds figure data (e.g. fitness per generation, events
	// per time bucket).
	Series map[string][]float64
	// PaperRef states what the paper reports for this artifact.
	PaperRef string
	// Notes records calibration caveats and observed deltas.
	Notes []string
}

func (r *Result) addRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Generator produces one experiment result.
type Generator func(Config) (*Result, error)

var registry = map[string]Generator{
	"fig1":   Fig1,
	"fig3":   Fig3,
	"fig5":   Fig5,
	"fig8":   Fig8,
	"energy": Energy,
	"fig9":   Fig9,
	"fig10a": Fig10a,
	"fig10b": Fig10b,
	"table1": Table1,
	"table2": Table2,
}

// IDs lists the experiment identifiers in presentation order.
func IDs() []string {
	return []string{"table1", "fig1", "fig3", "fig5", "fig8", "energy", "fig9", "fig10a", "fig10b", "table2"}
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Result, error) {
	g, ok := registry[id]
	if !ok {
		ids := IDs()
		sort.Strings(ids)
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids)
	}
	return g(cfg)
}

// RenderText formats a result as an aligned text table.
func RenderText(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.PaperRef != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperRef)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	var keys []string
	for k := range r.Series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "series %s: ", k)
		for i, v := range r.Series[k] {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.3g", v)
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
