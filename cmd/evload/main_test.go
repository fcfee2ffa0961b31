package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	evedge "evedge"
)

// TestRunFlagErrors drives the flag and configuration error paths
// through the testable run entry point.
func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
		errs string
	}{
		{"bad flag syntax", []string{"-nope"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "Usage of evload"},
		{"bad wire format", []string{"-wire", "carrier-pigeon"}, 1, `unknown wire format "carrier-pigeon"`},
		{"bad level", []string{"-level", "9"}, 1, "level"},
		{"bad level name", []string{"-level", "turbo"}, 1, "turbo"},
		{"zero sessions", []string{"-sessions", "0"}, 1, "-sessions must be >= 1"},
		{"zero chunk", []string{"-addr", "http://127.0.0.1:1", "-chunk", "0"}, 1, "-chunk must be >= 1"},
		{"negative chunk", []string{"-addr", "http://127.0.0.1:1", "-chunk", "-5"}, 1, "-chunk must be >= 1"},
		{"zero dur", []string{"-addr", "http://127.0.0.1:1", "-dur", "0"}, 1, "-dur must be >= 1"},
		{"unreachable server", []string{"-addr", "http://127.0.0.1:1", "-sessions", "1"}, 1, "server not reachable"},
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

// TestRunCPUProfile: -cpuprofile writes a non-empty CPU profile of a
// short load run against a loopback server, and a path that cannot be
// created exits 1 naming the flag.
func TestRunCPUProfile(t *testing.T) {
	srv, err := evedge.NewServer(evedge.DefaultServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer hs.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.prof")
	args := []string{"-addr", hs.URL, "-sessions", "1", "-nets", "DOTIE", "-dur", "20000", "-chunk", "10000"}
	var stdout, stderr bytes.Buffer
	if got := run(append(args, "-cpuprofile", path), &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", got, stderr.String())
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}
	stderr.Reset()
	if got := run(append(args, "-cpuprofile", filepath.Join(dir, "no", "cpu.prof")), &stdout, &stderr); got != 1 {
		t.Fatalf("unwritable -cpuprofile: run = %d, want 1 (stderr: %s)", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-cpuprofile") {
		t.Fatalf("stderr %q does not name -cpuprofile", stderr.String())
	}
}
