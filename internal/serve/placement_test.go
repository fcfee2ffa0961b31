package serve

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"evedge/internal/nn"
	"evedge/internal/pipeline"
)

// TestInstallBuildsChangedRowsOnly: installing an assignment builds and
// swaps a plan only for a session whose row differs from the plan it
// runs. Reinstalling the live assignment allocates nothing and moves no
// plan or remap count; changing one row swaps that session's plan and
// no other.
func TestInstallBuildsChangedRowsOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mapper = MapperRR
	cfg.ManualDrain = true
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	for _, name := range []string{nn.SpikeFlowNet, nn.DOTIE, nn.SpikeFlowNet} {
		if _, err := srv.CreateSession(SessionConfig{Network: name, Level: 2}); err != nil {
			t.Fatalf("CreateSession %s: %v", name, err)
		}
	}
	srv.sessMu.Lock()
	defer srv.sessMu.Unlock()
	active, live := srv.activeSessionsLocked(), srv.lastAsg
	plans := func() []*pipeline.ExecPlan {
		var out []*pipeline.ExecPlan
		for _, sess := range active {
			out = append(out, sess.plan.Load())
		}
		return out
	}
	remaps := func() []uint64 {
		var out []uint64
		for _, sess := range active {
			out = append(out, sess.plan.Swaps())
		}
		return out
	}
	was, wasRemaps := plans(), remaps()
	if allocs := testing.AllocsPerRun(10, func() {
		if err := srv.installLocked(active, live); err != nil {
			t.Fatalf("installLocked: %v", err)
		}
	}); allocs != 0 {
		t.Fatalf("reinstalling the live assignment: %.1f allocations, want 0", allocs)
	}
	if !reflect.DeepEqual(plans(), was) || !reflect.DeepEqual(remaps(), wasRemaps) {
		t.Fatalf("reinstalling the live assignment swapped plans: remaps %v, were %v", remaps(), wasRemaps)
	}

	moved := live.Clone()
	moved.Device[1][0] = (moved.Device[1][0] + 1) % len(srv.cfg.Platform.Devices)
	if err := srv.installLocked(active, moved); err != nil {
		t.Fatalf("installLocked: %v", err)
	}
	now, nowRemaps := plans(), remaps()
	for i := range active {
		if swapped := now[i] != was[i]; swapped != (i == 1) {
			t.Errorf("session %d: plan swapped = %v after only row 1 changed", i, swapped)
		}
	}
	if nowRemaps[1] != wasRemaps[1]+1 || nowRemaps[0] != wasRemaps[0] || nowRemaps[2] != wasRemaps[2] {
		t.Errorf("remaps %v after only row 1 changed, were %v", nowRemaps, wasRemaps)
	}
	if now[1].Device[0] != moved.Device[1][0] {
		t.Errorf("session 1 runs layer 0 on device %d, the assignment says %d", now[1].Device[0], moved.Device[1][0])
	}
}

// TestPlanDevicesListing: the device bitmask lists what the device
// map listed — the distinct IDs sorted, as "dev<ID>" — for the devices
// invocations ran on, or before any ran, for the installed plan's.
func TestPlanDevicesListing(t *testing.T) {
	reference := func(ids []int) []string {
		seen := map[int]bool{}
		for _, d := range ids {
			seen[d] = true
		}
		sorted := make([]int, 0, len(seen))
		for d := range seen {
			sorted = append(sorted, d)
		}
		sort.Ints(sorted)
		out := make([]string, len(sorted))
		for i, d := range sorted {
			out[i] = fmt.Sprintf("dev%d", d)
		}
		return out
	}
	planDevs := []int{2, 0, 2, 1, 0}
	for _, used := range [][]int{nil, {0}, {1, 1, 1}, {2, 0}, {63, 64, 0}, {130, 5, 64, 63, 127, 128}} {
		sess := &Session{plan: pipeline.NewPlanSlot(&pipeline.ExecPlan{Device: planDevs})}
		for _, d := range used {
			sess.usedDevs.add(d)
		}
		want := reference(used)
		if len(used) == 0 {
			want = reference(planDevs)
		}
		if got := sess.planDevicesLocked(); !reflect.DeepEqual(got, want) {
			t.Errorf("used %v: devices %q, want %q", used, got, want)
		}
	}
}
