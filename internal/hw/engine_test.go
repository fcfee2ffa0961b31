package hw

import (
	"math"
	"sync"
	"testing"
)

// TestEngineConcurrentSubmits drives many goroutines into the engine
// (run under -race in CI) and checks the per-device accounting is
// exact: no lost busy time, FIFO queues never overlap, and the
// unified-memory bus serializes every reservation.
func TestEngineConcurrentSubmits(t *testing.T) {
	p := Xavier()
	e := NewEngine(p, true)
	const perDev = 200
	var wg sync.WaitGroup
	for _, d := range p.Devices {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(d *Device) {
				defer wg.Done()
				for i := 0; i < perDev; i++ {
					e.Submit(d, 0, 2, "load")
					e.ReserveUM(0, 1)
				}
			}(d)
		}
	}
	wg.Wait()
	for _, d := range p.Devices {
		want := float64(4 * perDev * 2)
		if got := e.BusyTime(d); math.Abs(got-want) > 1e-6 {
			t.Fatalf("device %s busy %f, want %f", d.Name, got, want)
		}
		if got := e.BusyUntil(d); math.Abs(got-want) > 1e-6 {
			t.Fatalf("device %s busyUntil %f, want %f (FIFO with earliest=0 must pack)", d.Name, got, want)
		}
	}
	wantUM := float64(len(p.Devices) * 4 * perDev)
	if got := e.umBusy; math.Abs(got-wantUM) > 1e-6 {
		t.Fatalf("UM busy-until %f, want %f", got, wantUM)
	}
	// Per-device spans must not overlap (queue FIFO invariant).
	last := map[string]float64{}
	for _, s := range e.Timeline() {
		if s.Start < last[s.Device]-1e-9 {
			t.Fatalf("span on %s starts at %f before queue frees at %f", s.Device, s.Start, last[s.Device])
		}
		if s.End > last[s.Device] {
			last[s.Device] = s.End
		}
	}
}

// TestEngineResetInFlightPanics pins the loud half of the concurrency
// contract: Reset with a submission in flight must panic instead of
// silently corrupting busyUntil (the bug class the old caller-side
// engine mutex hid). The in-flight window is simulated directly; the
// real overlap is additionally race-detector-visible via resetTick.
func TestEngineResetInFlightPanics(t *testing.T) {
	e := NewEngine(Xavier(), false)
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with an in-flight submission did not panic")
		}
	}()
	e.Reset()
}

// TestEngineResetClearsEverything covers the exclusive-path Reset:
// queues, totals, timeline and the unified-memory bus all go back to
// zero.
func TestEngineResetClearsEverything(t *testing.T) {
	p := Xavier()
	e := NewEngine(p, true)
	gpu := p.GPUDevice()
	e.Submit(gpu, 0, 10, "warm")
	e.ReserveUM(0, 5)
	e.Reset()
	if e.Makespan() != 0 || e.BusyTime(gpu) != 0 || e.umBusy != 0 {
		t.Fatalf("Reset left state: makespan=%f busy=%f um=%f", e.Makespan(), e.BusyTime(gpu), e.umBusy)
	}
	if spans := e.Timeline(); len(spans) != 0 {
		t.Fatalf("Reset left %d spans", len(spans))
	}
}

// TestReserveUMSerializes checks the shared-bus recurrence: a second
// transfer starts no earlier than the first one ends.
func TestReserveUMSerializes(t *testing.T) {
	e := NewEngine(Xavier(), false)
	_, end1 := e.ReserveUM(100, 50)
	if end1 != 150 {
		t.Fatalf("first transfer ends at %f, want 150", end1)
	}
	start2, end2 := e.ReserveUM(0, 10)
	if start2 != 150 || end2 != 160 {
		t.Fatalf("second transfer [%f,%f), want [150,160)", start2, end2)
	}
}
