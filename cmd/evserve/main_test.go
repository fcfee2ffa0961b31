package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlagErrors drives the flag-parsing error paths: every bad
// configuration must exit non-zero with a message naming the problem,
// never fall back silently.
func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		exit int
		msg  string
	}{
		{"unknown platform", []string{"-platform", "tpu"}, 1, `unknown platform "tpu"`},
		{"unknown drop policy", []string{"-drop", "drop-random"}, 1, `unknown drop policy "drop-random"`},
		{"unknown mapper", []string{"-mapper", "greedy"}, 1, `unknown mapper policy "greedy"`},
		{"adapt remap needs nmp mapper", []string{"-adapt", "-mapper", "greedy"}, 1, "unknown mapper policy"},
		{"zero batch max", []string{"-batch-max", "0"}, 1, "-batch-max must be >= 1"},
		{"zero workers", []string{"-workers", "0"}, 1, "-workers must be >= 1, got 0"},
		{"negative workers", []string{"-workers", "-3"}, 1, "-workers must be >= 1, got -3"},
		{"zero queue", []string{"-queue", "0"}, 1, "-queue must be >= 1, got 0"},
		{"bad flag syntax", []string{"-workers", "many"}, 2, "invalid value"},
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"unwritable cpuprofile", []string{"-cpuprofile", filepath.Join(t.TempDir(), "no", "cpu.prof")}, 1, "-cpuprofile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			got := run(tc.args, &stderr)
			if got != tc.exit {
				t.Errorf("exit = %d, want %d (stderr: %s)", got, tc.exit, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.msg) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.msg)
			}
		})
	}
}
