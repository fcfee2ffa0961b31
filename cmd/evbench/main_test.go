package main

import (
	"bytes"
	"strings"
	"testing"
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
		{"bad cpu-list entry", []string{"-cpu-list", "1,two,4"}, 1, `bad -cpu-list entry "two"`},
		{"zero cpu-list entry", []string{"-cpu-list", "4,0"}, 1, "core counts must be >= 1"},
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

// TestRunList checks -list prints the experiment catalog and exits 0.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"table1", "fig8", "par", "rulebook"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}

// TestParseCPUList covers the sweep-list parser both ways.
func TestParseCPUList(t *testing.T) {
	cpus, err := parseCPUList(" 1, 2,4,8 ")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 4, 8}; len(cpus) != len(want) {
		t.Fatalf("parseCPUList = %v, want %v", cpus, want)
	} else {
		for i := range want {
			if cpus[i] != want[i] {
				t.Fatalf("parseCPUList = %v, want %v", cpus, want)
			}
		}
	}
	for _, bad := range []string{"", "a", "1,,2", "-1", "0"} {
		if _, err := parseCPUList(bad); err == nil {
			t.Errorf("parseCPUList(%q) accepted", bad)
		}
	}
}
