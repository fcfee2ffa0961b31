package main

import (
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"evedge"
)

// httpWorkload is serve_http_mixed: the production serving mode —
// worker goroutines, wall-clock scheduler dispatchers, NMP placement —
// behind net/http on a loopback port of this process. The load is a
// closed loop of exactly httpClients connections sending flat out: it
// measures capacity and request service time, not queueing delay (four
// real-time cameras need ~2 % of this host, so a paced open loop would
// mostly measure sleep).
type httpWorkload struct {
	chunks [][]*evedge.Stream // [session][round]
	events int64

	hs      *http.Server
	served  chan struct{}
	current atomic.Pointer[evedge.Server] // the pass's server
	clients []*evedge.ServeClient
	conns   []*http.Transport // one per client, closed with the run
	// createMS collects, per pass, the wall time to create the pass's
	// sessions over HTTP (NMP placement re-runs on each).
	createMS []float64
	// lastQueueDropped is the last pass's ingest-queue shed count.
	lastQueueDropped uint64
	trace            *tracer // last traced phase
}

const (
	httpChunkUS = 25_000
	httpLevel   = 3
	httpClients = 2
)

var httpNets = []string{evedge.DOTIE, evedge.HALSIE, evedge.SpikeFlowNet, evedge.HidalgoDepth}

func (w *httpWorkload) lastTrace() *tracer  { return w.trace }
func (w *httpWorkload) deterministic() bool { return false }

func (w *httpWorkload) setup(seed int64) error {
	w.close()
	specs := make([]streamSpec, len(httpNets))
	for i, name := range httpNets {
		net, err := evedge.LoadNetwork(name)
		if err != nil {
			return err
		}
		specs[i] = streamSpec{net.Input.Preset, seed + int64(i)}
	}
	streams, err := genStreams(specs)
	if err != nil {
		return err
	}
	w.chunks = w.chunks[:0]
	for _, s := range streams {
		w.chunks = append(w.chunks, chunked(s, httpChunkUS))
	}
	w.events = totalEvents(w.chunks)

	// One listener and one http.Server for the whole run; each pass
	// swaps a fresh evedge.Server in behind it, so client connections
	// stay warm and no port is bound twice.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if srv := w.current.Load(); srv != nil {
			srv.Handler().ServeHTTP(rw, r)
			return
		}
		http.Error(rw, "no server", http.StatusServiceUnavailable)
	})}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns ErrServerClosed on close()
	}()
	base := "http://" + ln.Addr().String()
	w.clients = w.clients[:0]
	for i := 0; i < httpClients; i++ {
		// One transport per client: one connection each, as two
		// separate camera hosts would hold.
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		w.conns = append(w.conns, tr)
		w.clients = append(w.clients, evedge.NewServeClient(base, &http.Client{Transport: tr, Timeout: 30 * time.Second}))
	}
	return nil
}

func (w *httpWorkload) close() {
	if w.hs != nil {
		_ = w.hs.Close()
		<-w.served
		w.hs = nil
	}
	for _, tr := range w.conns {
		tr.CloseIdleConnections()
	}
	w.conns, w.clients = nil, nil
	w.current.Store(nil)
}

func httpConfig() evedge.ServeConfig {
	cfg := evedge.DefaultServeConfig()
	cfg.Mapper = evedge.MapperNMP
	return cfg
}

// pass creates the four sessions over HTTP, lets the clients post every
// chunk, and closes the sessions. A unit operation is one ingest POST
// (Client.SendEvents: encode, HTTP, decode, E2SF, enqueue, reply).
func (w *httpWorkload) pass(tr *tracer, t *tally, opMS *[]float64) passOut {
	tr.nextPass()
	root := tr.start("pass", -1)
	defer tr.finish(root)
	var out passOut

	sp := tr.start("serve.new", root)
	srv, err := evedge.NewServer(httpConfig())
	tr.finish(sp)
	if !t.call("NewServer", err) {
		return out
	}
	w.current.Store(srv)
	defer func() {
		w.current.Store(nil)
		srv.Close()
	}()

	t0 := time.Now()
	sp = tr.start("serve.http_create", root)
	ids := make([]string, 0, len(httpNets))
	for _, name := range httpNets {
		snap, err := w.clients[0].CreateSession(evedge.ServeSessionConfig{Network: name, Level: httpLevel})
		if t.call("POST /v1/sessions", err) {
			ids = append(ids, snap.ID)
		}
	}
	tr.finish(sp)
	w.createMS = append(w.createMS, msSince(t0))
	if len(ids) != len(httpNets) {
		return out
	}

	// A session's chunks must arrive in order, so the clients pass
	// session tokens: whoever holds a token posts that session's next
	// chunk and hands the token back. Both connections stay busy until
	// the last few chunks whatever the sessions' sizes.
	next := make([]int, len(ids))
	sent := make([]uint64, len(ids))
	tokens := make(chan int, len(ids)) // holds at most one token per session
	for i := range ids {
		tokens <- i
	}
	remaining := int64(0)
	for _, cs := range w.chunks {
		remaining += int64(len(cs))
	}
	var left atomic.Int64
	left.Store(remaining)
	var wg sync.WaitGroup
	samples := make([][]float64, httpClients)
	for ci, cl := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tokens {
				c := w.chunks[i][next[i]]
				next[i]++
				more := next[i] < len(w.chunks[i])
				t0 := time.Now()
				sp := tr.start("serve.http_ingest", root)
				_, err := cl.SendEvents(ids[i], c)
				tr.finish(sp)
				samples[ci] = append(samples[ci], msSince(t0))
				if t.call("POST events", err) {
					sent[i] += uint64(c.Len())
				}
				if more {
					tokens <- i
				}
				if left.Add(-1) == 0 {
					close(tokens)
				}
			}
		}()
	}
	wg.Wait()
	if opMS != nil {
		for _, s := range samples {
			*opMS = append(*opMS, s...)
		}
	}

	sp = tr.start("serve.http_close", root)
	w.lastQueueDropped = 0
	for i, id := range ids {
		fin, err := w.clients[0].CloseSession(id)
		if !t.call("POST close", err) {
			continue
		}
		checkSession(t, fin, sent[i])
		w.lastQueueDropped += fin.FramesDropped
		out.addSession(fin)
		// Which frames complete on the wall-clock server depends on
		// goroutine timing; the frames E2SF produced (all accounted for,
		// completed or shed — checkSession) do not.
		out.frames += int64(fin.FramesIn)
	}
	tr.finish(sp)
	out.events = w.events
	out.settle(srv, tr, root, t)
	return out
}
