package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"evedge"
	"evedge/internal/serve"
)

// pumpWorkload is serve_pump_batch: the serving core on its virtual
// clock, driven the way the scenario harness drives it — no goroutines,
// no wall-clock dispatchers, simulated results that repeat exactly.
type pumpWorkload struct {
	chunks [][]*evedge.Stream // [session][round]
	events int64              // per pass
	// last is the most recent pass's server-side view, kept for the
	// layer probes.
	last  pumpLast
	trace *tracer // last traced phase
}

// pumpLast is what a pass reads off its server before closing it.
type pumpLast struct {
	sched                evedge.SchedStats
	makespanUS           float64
	invocations          uint64
	dsfaDropped          uint64
	poolGets, poolMisses uint64
	obsSpans             uint64
}

const (
	pumpSessions = 8
	pumpChunkUS  = 20_000
	pumpNet      = evedge.SpikeFlowNet
	pumpLevel    = 2
)

func (w *pumpWorkload) lastTrace() *tracer  { return w.trace }
func (w *pumpWorkload) deterministic() bool { return true }
func (w *pumpWorkload) close()              {}

func (w *pumpWorkload) setup(seed int64) error {
	net, err := evedge.LoadNetwork(pumpNet)
	if err != nil {
		return err
	}
	specs := make([]streamSpec, pumpSessions)
	for i := range specs {
		specs[i] = streamSpec{net.Input.Preset, seed + 100 + int64(i)}
	}
	streams, err := genStreams(specs)
	if err != nil {
		return err
	}
	w.chunks = w.chunks[:0]
	for _, s := range streams {
		w.chunks = append(w.chunks, chunked(s, pumpChunkUS))
	}
	w.events = totalEvents(w.chunks)
	return nil
}

func pumpConfig(trace bool) evedge.ServeConfig {
	cfg := evedge.DefaultServeConfig()
	cfg.Mapper = evedge.MapperRR
	cfg.BatchMax = 8
	cfg.ManualDrain = true
	if trace {
		cfg.Trace = evedge.TraceConfig{Enabled: true, Node: "bench"}
	}
	return cfg
}

func (w *pumpWorkload) pass(tr *tracer, t *tally, opMS *[]float64) passOut {
	return w.passCfg(pumpConfig(false), tr, t, opMS)
}

// passCfg is one pass on a fresh server: create the sessions, feed
// every round's chunks then Pump, close the sessions. A unit operation
// is one round (8 Ingest calls and the Pump that drains them).
func (w *pumpWorkload) passCfg(cfg evedge.ServeConfig, tr *tracer, t *tally, opMS *[]float64) passOut {
	tr.nextPass()
	root := tr.start("pass", -1)
	defer tr.finish(root)
	var out passOut

	sp := tr.start("serve.new", root)
	srv, err := evedge.NewServer(cfg)
	tr.finish(sp)
	if !t.call("NewServer", err) {
		return out
	}
	defer srv.Close()

	ids := make([]string, 0, pumpSessions)
	sp = tr.start("serve.create", root)
	for i := 0; i < pumpSessions; i++ {
		sess, err := srv.CreateSession(evedge.ServeSessionConfig{Network: pumpNet, Level: pumpLevel})
		if t.call("CreateSession", err) {
			ids = append(ids, sess.ID)
		}
	}
	tr.finish(sp)
	if len(ids) != pumpSessions {
		return out
	}

	sent := make([]uint64, pumpSessions)
	for r := range w.chunks[0] {
		t0 := time.Now()
		sp = tr.start("serve.ingest", root)
		for i, id := range ids {
			c := w.chunks[i][r]
			if c.Len() == 0 {
				continue
			}
			_, err := srv.Ingest(id, c)
			if t.call("Ingest", err) {
				sent[i] += uint64(c.Len())
			}
		}
		tr.finish(sp)
		sp = tr.start("serve.pump", root)
		srv.Pump()
		tr.finish(sp)
		if opMS != nil {
			*opMS = append(*opMS, msSince(t0))
		}
	}

	sp = tr.start("serve.close", root)
	var last pumpLast
	for i, id := range ids {
		fin, err := srv.CloseSession(id)
		if !t.call("CloseSession", err) {
			continue
		}
		checkSession(t, fin, sent[i])
		last.invocations += fin.Invocations
		last.dsfaDropped += fin.FramesDroppedDSFA
		out.addSession(fin)
		out.frames += int64(fin.RawFramesDone)
	}
	tr.finish(sp)
	out.events = w.events
	makespan := out.settle(srv, tr, root, t)
	ar := srv.ArenaStats()
	last.sched = srv.SchedStats()
	last.makespanUS = makespan
	last.poolGets, last.poolMisses = ar.Total.Gets, ar.Total.News
	last.obsSpans = srv.Tracer().Recorded()
	w.last = last
	out.extra = map[string]float64{
		"sched.submitted":  float64(last.sched.Submitted),
		"sched.dispatches": float64(last.sched.Dispatches),
		"dsfa.batches_out": float64(last.invocations),
	}
	return out
}

// addSession folds one closed session's final snapshot into the pass's
// simulated results: frames in and done, latencies frame-weighted.
func (p *passOut) addSession(fin *evedge.SessionSnapshot) {
	p.sim.framesIn += float64(fin.FramesIn)
	p.sim.framesDone += float64(fin.RawFramesDone)
	p.sim.meanUS += fin.Latency.MeanUS * float64(fin.RawFramesDone) // a sum until settle
	p.sim.p99US = max(p.sim.p99US, fin.Latency.P99US)
}

// settle finishes the simulated results once every session is closed:
// the mean latency, and frames per simulated second from the engine
// makespan. It returns the makespan.
func (p *passOut) settle(srv *evedge.Server, tr *tracer, root int, t *tally) float64 {
	if p.sim.framesDone > 0 {
		p.sim.meanUS /= p.sim.framesDone
	}
	sp := tr.start("serve.metrics", root)
	makespan, err := engineMakespanUS(srv)
	tr.finish(sp)
	if t.call("WriteMetrics", err) && makespan > 0 {
		p.sim.framesPerS = p.sim.framesDone / (makespan * 1e-6)
	}
	return makespan
}

// checkSession applies the per-session output checks both serving
// workloads share: every event sent was counted, and every frame E2SF
// produced is accounted for at close.
func checkSession(t *tally, fin *evedge.SessionSnapshot, sent uint64) {
	t.check(fin.EventsIn == sent, "session %s: events_in %d != sent %d", fin.ID, fin.EventsIn, sent)
	acc := fin.RawFramesDone + fin.FramesDropped + fin.FramesDroppedDSFA
	t.check(fin.FramesIn == acc, "session %s: frames_in %d != done+dropped %d", fin.ID, fin.FramesIn, acc)
}

// engineMakespanUS reads the evserve_engine_makespan_us gauge the way a
// scraper would: through the server's own metrics exposition.
func engineMakespanUS(srv *evedge.Server) (float64, error) {
	pw := serve.NewPromWriter()
	srv.WriteMetrics(pw, "evserve", "")
	for _, line := range strings.Split(pw.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "evserve_engine_makespan_us "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("evserve_engine_makespan_us not in /metrics output")
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }
