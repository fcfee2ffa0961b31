package harness

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
)

// TestScenarioLibrary runs every library scenario and checks the
// generic invariants plus each scenario's own outcome contract.
func TestScenarioLibrary(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("scenario library has %d entries, want >= 8: %v", len(names), names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			sc, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc, 7)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, v := range Check(res) {
				t.Errorf("invariant: %s", v)
			}
			for _, v := range CheckExpect(sc, res) {
				t.Errorf("expectation: %s", v)
			}
			if res.Final.Totals.FramesIn == 0 {
				t.Error("scenario produced no frames; the script drives nothing")
			}
		})
	}
}

// timelinePins is the FNV-1a hash of every scenario's Encode() at seed
// 42. A change that moves any timeline (the event streams, E2SF, DSFA,
// the mapper, the serving core) fails TestScenarioDeterminism, so one
// that means to re-pins here and says so.
var timelinePins = map[string]uint64{
	"batched-burst":      0xc5ee0ec379b9cb6e,
	"drain-rebalance":    0xfa1da673356d6fcb,
	"dynamics-flip":      0x04f2db93ac55a58b,
	"flash-crowd":        0x7c0eb9f7d2c59846,
	"hot-node-migration": 0xc6baa1a8343adfda,
	"journal-catchup":    0x4b005738e337e087,
	"mixed-platform":     0xc24b5fc27e9e4c6b,
	"rolling-kill":       0xf81b673cbb72cacd,
	"soak":               0x4c071adc2163e2a1,
	"steady":             0x1905fd17fb853410,
}

// TestScenarioDeterminism replays every scenario under the same seed
// and requires byte-identical JSON timelines, equal to the pinned
// hash; a different seed must still satisfy the invariants (and, being
// a different event stream, should not produce the identical
// timeline).
func TestScenarioDeterminism(t *testing.T) {
	if len(timelinePins) != len(Names()) {
		t.Fatalf("%d timeline pins for %d scenarios", len(timelinePins), len(Names()))
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			pin, ok := timelinePins[name]
			if !ok {
				t.Fatalf("no timeline pin for %s", name)
			}
			sc, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			a, err := Run(sc, 42)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(sc, 42)
			if err != nil {
				t.Fatal(err)
			}
			ja, err := a.Encode()
			if err != nil {
				t.Fatal(err)
			}
			jb, err := b.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ja, jb) {
				t.Fatalf("same seed, different timelines; %s", firstDivergence(ja, jb))
			}
			h := fnv.New64a()
			h.Write(ja)
			if got := h.Sum64(); got != pin {
				t.Errorf("seed 42 timeline hash %#016x, pinned %#016x", got, pin)
			}
			c, err := Run(sc, 43)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range Check(c) {
				t.Errorf("invariant (seed 43): %s", v)
			}
		})
	}
}

// TestScenarioParallelByteIdentical runs the same (scenario, seed)
// from four goroutines at once and requires every timeline to be
// byte-identical to a serial run: accumulation grids, EVAR blocks and
// chunk streams come from process-wide pools, so a run is hermetic
// only as long as nothing it computes from survives in a recycled
// buffer.
func TestScenarioParallelByteIdentical(t *testing.T) {
	for _, name := range []string{"steady", "dynamics-flip"} {
		t.Run(name, func(t *testing.T) {
			sc, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			encode := func() ([]byte, error) {
				res, err := Run(sc, 42)
				if err != nil {
					return nil, err
				}
				return res.Encode()
			}
			want, err := encode()
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg   sync.WaitGroup
				got  [4][]byte
				errs [4]error
			)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = encode()
				}()
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatalf("concurrent run %d: %v", i, errs[i])
				}
				if !bytes.Equal(want, got[i]) {
					t.Fatalf("concurrent run %d diverged from the serial run; %s", i, firstDivergence(want, got[i]))
				}
			}
		})
	}
}

// firstDivergence renders the neighbourhood of the first byte at which
// two encoded timelines differ.
func firstDivergence(ja, jb []byte) string {
	i := 0
	for i < len(ja) && i < len(jb) && ja[i] == jb[i] {
		i++
	}
	lo := max(i-80, 0)
	return fmt.Sprintf("first divergence at byte %d:\n...%s\nvs\n...%s",
		i, ja[lo:min(i+80, len(ja))], jb[lo:min(i+80, len(jb))])
}

// TestScriptValidate covers the script compiler's error paths.
func TestScriptValidate(t *testing.T) {
	base := func() Script {
		return Script{
			Name:   "t",
			Mix:    []SessionSpec{{Network: "DOTIE", Level: 2, RateHz: 1000}},
			Phases: []Phase{{Name: "p", Ticks: 5}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Script)
		want string
	}{
		{"no name", func(s *Script) { s.Name = "" }, "no name"},
		{"no phases", func(s *Script) { s.Phases = nil }, "no phases"},
		{"no mix", func(s *Script) { s.Mix = nil }, "no session mix"},
		{"bad network", func(s *Script) { s.Mix[0].Network = "NoSuchNet" }, "NoSuchNet"},
		{"bad drop policy", func(s *Script) { s.Mix[0].DropPolicy = "drop-random" }, "drop-random"},
		{"zero rate", func(s *Script) { s.Mix[0].RateHz = 0 }, "rate must be positive"},
		{"bad nodes", func(s *Script) { s.Nodes = "tpu:2" }, "tpu"},
		{"bad policy", func(s *Script) { s.Nodes = "xavier:2"; s.Policy = "round-robin" }, "placement policy"},
		{"zero ticks", func(s *Script) { s.Phases[0].Ticks = 0 }, "ticks must be >= 1"},
		{"chaos without cluster", func(s *Script) { s.Phases[0].Kill = []string{"xavier0"} }, "needs a cluster"},
		{"unknown node", func(s *Script) { s.Nodes = "xavier:2"; s.Phases[0].Kill = []string{"orin7"} }, "unknown node"},
		{"burst outside phase", func(s *Script) { s.Phases[0].Burst = &Burst{FromTick: 4, Ticks: 3, Gain: 2} }, "outside phase"},
		{"bad burst gain", func(s *Script) { s.Phases[0].Burst = &Burst{FromTick: 0, Ticks: 2, Gain: 0} }, "gain must be positive"},
		{"rebalance without cluster", func(s *Script) { s.RebalanceGap = 0.1 }, "needs a cluster"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.mut(&sc)
			err := sc.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken script")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
}

// TestCompile pins the plan shape: action ordering inside a tick and
// the per-tick gain series.
func TestCompile(t *testing.T) {
	sc := Script{
		Name: "t",
		Mix:  []SessionSpec{{Network: "DOTIE", Level: 2, RateHz: 1000}},
		Phases: []Phase{
			{Name: "a", Ticks: 4, Arrive: 2, Burst: &Burst{FromTick: 1, Ticks: 2, Gain: 3}},
			{Name: "b", Ticks: 3, Depart: 1, ArriveEvery: 2, RateGain: 2},
		},
	}.normalized()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	p := compile(sc)
	wantGains := []float64{1, 3, 3, 1, 2, 2, 2}
	if len(p.gains) != len(wantGains) {
		t.Fatalf("gains len = %d, want %d", len(p.gains), len(wantGains))
	}
	for i, g := range wantGains {
		if p.gains[i] != g {
			t.Errorf("gain[%d] = %g, want %g", i, p.gains[i], g)
		}
	}
	var kinds []string
	for _, a := range p.actions {
		kinds = append(kinds, fmt.Sprintf("%d:%d", a.tick, a.kind))
	}
	// Tick 4 is phase b's start: phase marker, then depart, then the
	// spread arrival lands at tick 6.
	want := []string{"0:0", "0:6", "4:0", "4:5", "6:6"}
	if strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Fatalf("plan = %v, want %v", kinds, want)
	}
}
