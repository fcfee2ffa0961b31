package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlagErrors drives the flag and scenario-selection error
// paths: exit status and message are part of the CLI contract.
func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		exit int
		msg  string
	}{
		{"no scenario", nil, 2, "pick a scenario"},
		{"unknown scenario", []string{"-scenario", "apocalypse"}, 1, `unknown scenario "apocalypse"`},
		{"bad flag syntax", []string{"-seed", "lucky"}, 2, "invalid value"},
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.exit {
				t.Errorf("exit = %d, want %d (stderr: %s)", got, tc.exit, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.msg) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.msg)
			}
		})
	}
}

// TestRunList requires the acceptance contract: -list names at least
// 8 scenarios, one per line with its target fleet.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 8 {
		t.Fatalf("-list printed %d scenarios, want >= 8:\n%s", len(lines), stdout.String())
	}
	for _, want := range []string{"steady", "flash-crowd", "rolling-kill", "drain-rebalance",
		"dynamics-flip", "hot-node-migration", "mixed-platform", "soak"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list missing scenario %q", want)
		}
	}
}

// TestRunTrace runs a scenario with -trace and checks the file is
// valid Chrome trace-event JSON and the summary gains stage lines.
func TestRunTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-scenario", "batched-burst", "-seed", "7", "-trace", out}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid Chrome trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
	for _, want := range []string{"stage queue", "stage exec", "stage frame"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunScenario runs the smallest scenario end to end through the
// CLI and checks the summary + exit status.
func TestRunScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-scenario", "steady", "-seed", "3"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
	}
	for _, want := range []string{"scenario:    steady", "invariants:  PASS"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunCPUProfile: -cpuprofile writes a non-empty CPU profile of the
// run, and a path that cannot be created exits 1 naming the flag.
func TestRunCPUProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.prof")
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list", "-cpuprofile", path}, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", got, stderr.String())
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}
	stderr.Reset()
	if got := run([]string{"-list", "-cpuprofile", filepath.Join(dir, "no", "cpu.prof")}, &stdout, &stderr); got != 1 {
		t.Fatalf("unwritable -cpuprofile: run = %d, want 1 (stderr: %s)", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-cpuprofile") {
		t.Fatalf("stderr %q does not name -cpuprofile", stderr.String())
	}
}
