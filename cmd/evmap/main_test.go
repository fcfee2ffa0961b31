package main

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"
)

// TestRunFlagErrors drives the flag and configuration error paths:
// exit status and message are part of the CLI contract.
func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		exit int
		msg  string
	}{
		{"bad flag syntax", []string{"-seed", "lucky"}, 2, "invalid value"},
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"unknown platform", []string{"-platform", "tpu"}, 1, "tpu"},
		{"unknown network", []string{"-nets", "SkyNet"}, 1, "SkyNet"},
		{"unknown objective", []string{"-nets", "DOTIE", "-objective", "vibes"}, 1, `unknown objective "vibes"`},
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

// TestRunMap maps a single small network end to end and checks the
// assignment report and Gantt chart appear.
func TestRunMap(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-nets", "DOTIE", "-seed", "3"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
	}
	for _, want := range []string{"platform: jetson-xavier-agx", "searched:", "latency:", "task 0 (DOTIE)"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunDOT checks the -dot mode emits a Graphviz digraph.
func TestRunDOT(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-nets", "DOTIE", "-seed", "3", "-dot"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "digraph") {
		t.Errorf("-dot output is not Graphviz DOT:\n%s", stdout.String())
	}
}

// TestRunDefaultPinned pins the FNV-1a hash of the default output: the
// placement search, its mapping table and the Gantt chart of the four
// default networks. The output has no wall-clock line, so it is
// hashed whole; a change that moves the search or the schedule fails
// here.
func TestRunDefaultPinned(t *testing.T) {
	const pin = 0x255864f66a08580c
	var stdout, stderr bytes.Buffer
	if got := run(nil, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
	}
	h := fnv.New64a()
	h.Write(stdout.Bytes())
	if got := h.Sum64(); got != pin {
		t.Errorf("output hash %#016x, pinned %#016x:\n%s", got, uint64(pin), stdout.String())
	}
}
