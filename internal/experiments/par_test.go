package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParQuick(t *testing.T) {
	cfg := QuickConfig()
	cfg.CPUList = []int{1, 4}
	res, err := Run("par", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Rows), 2*len(cfg.CPUList); got != want {
		t.Fatalf("rows = %d, want %d (2 kernels x %d cpu widths)", got, want, len(cfg.CPUList))
	}
	for _, row := range res.Rows {
		if len(row) != len(res.Header) {
			t.Fatalf("row %v has %d cells, header has %d", row, len(row), len(res.Header))
		}
		sp, err := strconv.ParseFloat(strings.TrimSuffix(row[5], "x"), 64)
		if err != nil {
			t.Fatalf("bad speedup cell %q: %v", row[5], err)
		}
		switch row[1] {
		case "1":
			// One core cannot beat serial; the projection must say so.
			if sp > 1.01 {
				t.Errorf("%s at 1 cpu projects %.2fx > 1x", row[0], sp)
			}
		case "4":
			if sp < 2 {
				t.Errorf("%s at 4 cpus projects %.2fx, want >= 2x", row[0], sp)
			}
		}
	}
}

// TestParRejectsBadCPUList: a width below 1 anywhere in the list is
// an error before any kernel is timed (one timing takes >= 40 ms).
func TestParRejectsBadCPUList(t *testing.T) {
	cfg := QuickConfig()
	cfg.CPUList = []int{2, 0}
	start := time.Now()
	if _, err := Run("par", cfg); err == nil {
		t.Fatal("cpu width 0 accepted")
	}
	if el := time.Since(start); el >= 40*time.Millisecond {
		t.Errorf("rejected after %v: a kernel was timed first", el)
	}
}

func TestRulebookQuick(t *testing.T) {
	cfg := QuickConfig()
	res, err := Run("rulebook", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (one per scene)", len(res.Rows))
	}
	for _, row := range res.Rows {
		frames, err := strconv.ParseUint(row[1], 10, 64)
		if err != nil || frames == 0 {
			t.Fatalf("workload %s: bad frame count %q (%v)", row[0], row[1], err)
		}
		hits, _ := strconv.ParseUint(row[2], 10, 64)
		misses, _ := strconv.ParseUint(row[3], 10, 64)
		if hits+misses != frames {
			t.Errorf("workload %s: hits %d + misses %d != frames %d", row[0], hits, misses, frames)
		}
	}
	// The tracker scene is temporally coherent; the cache must exploit it.
	if row := res.Rows[0]; !strings.HasPrefix(row[0], "scene/") {
		t.Fatalf("first row %q is not a scene workload", row[0])
	} else if hr, _ := strconv.ParseFloat(row[4], 64); hr < 0.5 {
		t.Errorf("%s hit rate %.3f, want >= 0.5", row[0], hr)
	}
}
