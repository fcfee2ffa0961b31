package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evedge/internal/experiments"
)

// TestRunFlagErrors drives the flag and experiment-selection error
// paths through the testable run entry point.
func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
		errs string
	}{
		{"bad flag syntax", []string{"-nope"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "Usage of evbench"},
		{"unknown experiment", []string{"-run", "fig99"}, 1, "fig99"},
		{"zero dur", []string{"-dur", "0", "-list"}, 1, "-dur"},
		{"negative dur", []string{"-quick", "-dur", "-5", "-list"}, 1, "-dur"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.want, stderr.String())
			}
			if tc.errs != "" && !strings.Contains(stderr.String(), tc.errs) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.errs)
			}
		})
	}
}

// TestRunConfig: -quick alone runs QuickConfig, no flag DefaultConfig,
// and -seed and a given -dur override either.
func TestRunConfig(t *testing.T) {
	defer func(f func(string, experiments.Config) (*experiments.Result, error)) { runExperiment = f }(runExperiment)
	var got experiments.Config
	runExperiment = func(id string, cfg experiments.Config) (*experiments.Result, error) {
		got = cfg
		return experiments.Run("table1", cfg)
	}
	withSeedDur := func(c experiments.Config, seed, dur int64) experiments.Config {
		c.Seed, c.DurUS = seed, dur
		return c
	}
	cases := []struct {
		args []string
		want experiments.Config
	}{
		{nil, experiments.DefaultConfig()},
		{[]string{"-quick"}, experiments.QuickConfig()},
		{[]string{"-quick", "-dur", "300000"}, withSeedDur(experiments.QuickConfig(), 7, 300_000)},
		{[]string{"-dur", "500000", "-seed", "11"}, withSeedDur(experiments.DefaultConfig(), 11, 500_000)},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if status := run(append(tc.args, "-run", "table1"), &stdout, &stderr); status != 0 {
			t.Fatalf("run(%v) = %d: %s", tc.args, status, stderr.String())
		}
		if got != tc.want {
			t.Fatalf("run(%v) ran %+v, want %+v", tc.args, got, tc.want)
		}
	}
}

// TestRunList checks -list prints the experiment catalog and exits 0.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"table1", "fig8", "table2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
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
