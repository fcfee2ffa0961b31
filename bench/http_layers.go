package main

import (
	"bytes"
	"time"

	"evedge"
	"evedge/internal/e2sf"
	"evedge/internal/events"
	"evedge/internal/mem"
	"evedge/internal/nmp"
	"evedge/internal/nn"
	"evedge/internal/perf"
	"evedge/internal/quant"
	"evedge/internal/sparse"
)

// concat joins a session's chunks back into its stream.
func concat(chunks []*evedge.Stream) *events.Stream {
	all := events.NewStream(chunks[0].Width, chunks[0].Height)
	for _, c := range chunks {
		all.Events = append(all.Events, c.Events...)
	}
	return all
}

// placementSearch re-runs what the server's MapperNMP placement does
// for one active set: profile fully dense, the reduced serving search
// budget, Table 2 accuracy budgets.
func placementSearch(model *perf.Model, nets []*nn.Network) error {
	db, err := perf.BuildProfileDB(model, nets, true, nil)
	if err != nil {
		return err
	}
	cfg := nmp.DefaultConfig()
	cfg.Population, cfg.Generations = 12, 8 // serve's create-latency budget
	mp, err := nmp.NewMapper(db, model, cfg)
	if err != nil {
		return err
	}
	budgets := make([]float64, len(nets))
	for i, n := range nets {
		budgets[i] = quant.Table2Delta(n.Name)
	}
	if err := mp.SetBudgets(budgets); err != nil {
		return err
	}
	_, err = mp.Search()
	return err
}

// layers replays serve_http_mixed's chunks through what sits under the
// HTTP path: the EVAR codec, fused E2SF (time windows, and by count for
// SpikeFlowNet), and the placement search every create and close runs.
func (w *httpWorkload) layers(budgetS float64, t *tally) map[string]float64 {
	m := map[string]float64{}
	slice := seconds(budgetS / 8)

	base := untracedPassWall(w, 2, t)
	w.createMS = w.createMS[:0]
	tr, walls, outs := tracedPasses(w, 2*slice, t)
	st := tr.summarize()
	n := len(walls)
	w.trace = tr
	var postMS []float64
	if s := st["serve.http_ingest"]; s != nil {
		for _, d := range s.durs {
			postMS = append(postMS, float64(d)/float64(time.Millisecond))
		}
	}
	m["http.ingest_p50_ms"] = median(postMS)
	m["serve.http_ingest_p99_ms"] = quantile(postMS, 0.99)
	m["http.session_setup_ms"] = median(w.createMS)
	m["bench.http_span_coverage_pct"] = 100 * tr.coverage("pass")
	last := outs[n-1]
	m["http.shed_ratio"] = 1 - last.sim.delivered()
	m["serve.sim_frame_p99_ms"] = last.sim.p99US / 1e3
	m["serve.queue_dropped"] = float64(w.lastQueueDropped)

	// The same chunks through Server.Ingest directly, and a scrape of
	// the loaded server over HTTP.
	directMS, scrapeMS := w.directPass(t)
	m["serve.http_overhead_us"] = (median(postMS) - median(directMS)) * 1e3
	m["serve.metrics_scrape_ms"] = median(scrapeMS)

	// events: the wire codec on every chunk.
	var nEvents, nBytes int
	var encoded [][]byte
	var buf bytes.Buffer
	for _, cs := range w.chunks {
		for _, c := range cs {
			buf.Reset()
			if t.call("WriteBinary", events.WriteBinary(&buf, c)) {
				encoded = append(encoded, bytes.Clone(buf.Bytes()))
				nEvents += c.Len()
				nBytes += buf.Len()
			}
		}
	}
	encNS := timeCalls(slice, 3, func() {
		for _, cs := range w.chunks {
			for _, c := range cs {
				buf.Reset()
				_ = events.WriteBinary(&buf, c)
			}
		}
	})
	decNS := timeCalls(slice, 3, func() {
		for _, b := range encoded {
			_, _ = events.ReadBinary(bytes.NewReader(b))
		}
	})
	m["events.encode_ns_per_event"] = encNS / float64(nEvents)
	m["events.decode_ns_per_event"] = decNS / float64(nEvents)
	m["events.bytes_per_event"] = float64(nBytes) / float64(nEvents)

	// e2sf: fused conversion per session as the ingest converter runs it.
	pool := mem.NewFramePool()
	put := func(out []*sparse.Frame) {
		for _, f := range out {
			pool.Put(f)
		}
	}
	var windowNS, countNS float64
	var windowEvents int
	nets := make([]*nn.Network, len(httpNets))
	for i, name := range httpNets {
		net, err := evedge.LoadNetwork(name)
		if !t.call("LoadNetwork", err) {
			return m
		}
		nets[i] = net
		all := concat(w.chunks[i])
		fz, err := e2sf.NewFused(e2sf.Config{Width: all.Width, Height: all.Height, NumBins: net.Input.NumBins}, pool)
		if !t.call("NewFused", err) {
			return m
		}
		if net.Input.Framing == nn.FrameByCount {
			_, count := countRuns(w.chunks[i], net.Input.FramePeriodUS)
			countNS += timeCalls(slice/4, 3, func() { _ = convertByCount(fz, all, count, put) })
			continue
		}
		var out []*sparse.Frame
		windowNS += timeCalls(slice/4, 3, func() {
			for t0 := int64(0); t0+net.Input.WindowUS <= streamDurUS; t0 += net.Input.WindowUS {
				out, _, _ = fz.ConvertGroupedAppend(out[:0], all, t0, t0+net.Input.WindowUS, net.Input.GroupK)
				put(out)
			}
		})
		windowEvents += all.Len()
	}
	m["e2sf.fused_window_ns_per_event"] = windowNS / float64(windowEvents)

	// nmp: the placement searches of one pass — the active set grows by
	// one network per create and shrinks by one per close.
	model := perf.NewModel(evedge.Xavier())
	var nmpS float64
	var searches int
	for k := 1; k <= len(nets); k++ {
		sets := [][]*nn.Network{nets[:k]}
		if k < len(nets) {
			sets = append(sets, nets[len(nets)-k:]) // what remains after closes
		}
		for _, set := range sets {
			t0 := time.Now()
			t.call("placement search", placementSearch(model, set))
			nmpS += time.Since(t0).Seconds()
			searches++
		}
	}
	m["nmp.placement_search_ms"] = nmpS * 1e3 / float64(searches)

	m["share.http.e2sf_pct"] = sharePct((windowNS+countNS)/1e9, base)
	m["share.http.events_pct"] = sharePct((encNS+decNS)/1e9, base)
	m["share.http.nmp_pct"] = sharePct(nmpS, base)
	m["share.http.nn_pct"] = 0
	m["bench.rounds_run"] = float64(n)
	return m
}

// directPass feeds every chunk to a fresh server through Server.Ingest
// (no wire, no HTTP) and times each call, then times GET /metrics on
// the loaded server.
func (w *httpWorkload) directPass(t *tally) (ingestMS, scrapeMS []float64) {
	srv, err := evedge.NewServer(httpConfig())
	if !t.call("NewServer", err) {
		return nil, nil
	}
	w.current.Store(srv)
	defer func() {
		w.current.Store(nil)
		srv.Close()
	}()
	ids := make([]string, 0, len(httpNets))
	for _, name := range httpNets {
		sess, err := srv.CreateSession(evedge.ServeSessionConfig{Network: name, Level: httpLevel})
		if !t.call("CreateSession", err) {
			return nil, nil
		}
		ids = append(ids, sess.ID)
	}
	for r := range w.chunks[0] {
		for i, id := range ids {
			t0 := time.Now()
			_, err := srv.Ingest(id, w.chunks[i][r])
			ingestMS = append(ingestMS, msSince(t0))
			t.call("Ingest", err)
		}
	}
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		_, err := w.clients[0].Metrics()
		scrapeMS = append(scrapeMS, msSince(t0))
		t.call("GET /metrics", err)
	}
	for _, id := range ids {
		_, err := srv.CloseSession(id)
		t.call("CloseSession", err)
	}
	return ingestMS, scrapeMS
}
