package serve

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"evedge/internal/control"
	"evedge/internal/nn"
)

// TestClosedSessionFinalsAreFinal checks the close rule: CloseSession
// takes a session's finals only once nothing is held or in flight, so
// nothing that runs afterwards — a worker woken before the close, a
// stale execute pass, the retune controller — moves a counter. The
// finals folded into Totals are the finals the close returned, and
// they are what Snapshot reports for the session afterwards.
func TestClosedSessionFinalsAreFinal(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		cfg := Config{ManualDrain: true}
		cfg.Adapt.Retune = true
		cfg.Adapt.DSFA = control.DSFAConfig{DecideEveryUS: 1}
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer srv.Close()
		sess, err := srv.CreateSession(SessionConfig{Network: nn.SpikeFlowNet, Level: 2, QueueCap: 8})
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		if sess.retuner == nil {
			t.Fatal("test premise broken: no retuner on a level-2 adaptive session")
		}
		const dur = 200_000
		stream := genStream(t, nn.MustByName(nn.SpikeFlowNet).Input.Preset, 29, dur)
		parts := chunks(stream, dur, 20_000)
		for _, c := range parts[:len(parts)-1] {
			if _, err := srv.Ingest(sess.ID, c); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
			srv.Pump()
		}
		// The last chunk stays held: the close serves it.
		if _, err := srv.Ingest(sess.ID, parts[len(parts)-1]); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		fin, err := srv.CloseSession(sess.ID)
		if err != nil {
			t.Fatalf("CloseSession: %v", err)
		}
		if fin.RawFramesDone == 0 {
			t.Fatalf("test premise broken: nothing served (%+v)", fin)
		}
		if snap, err := srv.Snapshot(sess.ID); err != nil || !reflect.DeepEqual(snap, *fin) {
			t.Fatalf("Snapshot after the close = %+v (%v), CloseSession returned %+v", snap, err, *fin)
		}
		totals := srv.Totals()
		var want SessionTotals
		want.add(*fin)
		if totals != want {
			t.Fatalf("Totals() = %+v, want the finals %+v", totals, want)
		}
		// A wakeup queued before the close, then a direct pass.
		srv.schedule(sess)
		srv.Pump()
		srv.execute(sess, false)
		srv.sched.Drain()
		if snap := sess.snapshot(); !reflect.DeepEqual(snap, *fin) {
			t.Fatalf("snapshot moved after the close:\n got %+v\nwant %+v", snap, *fin)
		}
		if got := srv.Totals(); got != totals {
			t.Fatalf("Totals() moved after the close: %+v, was %+v", got, totals)
		}
	})

	t.Run("wall-clock", func(t *testing.T) {
		cfg := Config{Workers: 4}
		cfg.Adapt.Retune = true
		cfg.Adapt.DSFA = control.DSFAConfig{DecideEveryUS: 1}
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		const (
			sessions = 6
			dur      = 150_000
		)
		nets := []string{nn.SpikeFlowNet, nn.DOTIE}
		streams := make([][]Chunk, sessions)
		ids := make([]string, sessions)
		for i := range sessions {
			name := nets[i%len(nets)]
			sess, err := srv.CreateSession(SessionConfig{Network: name, Level: 2, QueueCap: 8})
			if err != nil {
				t.Fatalf("CreateSession: %v", err)
			}
			ids[i] = sess.ID
			for _, c := range chunks(genStream(t, nn.MustByName(name).Input.Preset, int64(31+i), dur), dur, 10_000) {
				streams[i] = append(streams[i], StreamChunk(c))
			}
		}
		finals := make([]SessionSnapshot, sessions)
		var wg sync.WaitGroup
		for i := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Ingest back to back and close while workers still hold
				// the session's wakeups.
				for _, c := range streams[i] {
					if _, err := srv.IngestChunk(ids[i], c); err != nil {
						t.Errorf("%s: IngestChunk: %v", ids[i], err)
						return
					}
				}
				fin, err := srv.CloseSession(ids[i])
				if err != nil {
					t.Errorf("%s: CloseSession: %v", ids[i], err)
					return
				}
				finals[i] = *fin
			}()
		}
		wg.Wait()
		srv.Close()
		if t.Failed() {
			return
		}
		var want SessionTotals
		for i, fin := range finals {
			want.add(fin)
			if snap, err := srv.Snapshot(ids[i]); err != nil || !reflect.DeepEqual(snap, fin) {
				t.Fatalf("%s: Snapshot after the close = %+v (%v), CloseSession returned %+v", ids[i], snap, err, fin)
			}
		}
		got := srv.Totals()
		// Closes fold their finals in whatever order they ran, so the
		// float latency sum may differ from want's in the last bits.
		if math.Abs(got.LatencySumUS-want.LatencySumUS) > 1e-9*want.LatencySumUS {
			t.Fatalf("Totals().LatencySumUS = %v, finals sum to %v", got.LatencySumUS, want.LatencySumUS)
		}
		got.LatencySumUS = want.LatencySumUS
		if got != want {
			t.Fatalf("Totals() = %+v, finals sum to %+v", got, want)
		}
		if want.RawFramesDone == 0 {
			t.Fatalf("test premise broken: nothing served (%+v)", want)
		}
	})
}
