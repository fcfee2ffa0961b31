package main

import (
	"bytes"
	"hash/fnv"
	"testing"
)

// TestRunPinned pins the FNV-1a hash of the report. It renders an
// IndoorFlying1 stream through the scene camera, converts it with
// E2SF and scores flow estimates against the simulator's ground truth,
// so a change to any of these that moves a number fails here.
func TestRunPinned(t *testing.T) {
	const pin = 0x2052783ec2940ccd
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(out.Bytes())
	if got := h.Sum64(); got != pin {
		t.Errorf("report hash %#016x, pinned %#016x:\n%s", got, uint64(pin), out.String())
	}
}
