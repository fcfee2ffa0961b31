package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/scene"
	"evedge/internal/serve"
)

// TestRouterIngestAllocBudget is the allocation gate of the router's
// ingest path: an EVAR body posted to Cluster.Handler costs what it
// costs at serve.Server.Handler, plus, with the journal on, the replica
// bytes the buddy stores. Each row posts the same 100 bodies of 20 ms
// of a half-scale DOTIE scene to one DOTIE level-2 session, pumping
// after each, and reads the server side's TotalAlloc per body; requests
// and recorders are built before the measurement. The budget holds over
// the warm part: the second half, and with the journal on not before
// the node's result ring is full — until then the ring and the buddy's
// log grow once to their bounds, which is setup, not a cost per event.
// The node row runs with the journal set as in the router row, so the
// node's own journal is on both sides. With the journal on, the
// buddy's replica log is read after each post and each pump, before a
// result append trims the chunk entry, and the capacity of each chunk
// entry's body counted once: each the body as received.
func TestRouterIngestAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("generates 2 s of scene; the race detector's instrumentation allocates")
	}
	const (
		bodies  = 100
		chunkUS = 20_000
	)
	seq, err := scene.NewSequence(nn.MustByName(nn.DOTIE).Input.Preset, scene.Half, 7)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := seq.Generate(bodies * chunkUS)
	if err != nil {
		t.Fatal(err)
	}
	body := make([][]byte, bodies)
	evs := make([]int, bodies)
	for i := range body {
		s := stream.Slice(int64(i)*chunkUS, int64(i+1)*chunkUS)
		var b bytes.Buffer
		if err := events.WriteBinary(&b, s); err != nil {
			t.Fatal(err)
		}
		body[i] = b.Bytes()
		evs[i] = s.Len()
	}
	dotie := serve.SessionConfig{Network: nn.DOTIE, Level: 2}
	// sync.Pool keeps a body buffer per P: on one P every request reads
	// into the buffer the one before it returned.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// measure posts every body to h's session id and pumps behind each,
	// calling after(i) outside the measurement after the post of body i
	// and after its pump, and returns the bytes allocated per body.
	measure := func(name string, h http.Handler, id string, pump func(), after func(i int)) []uint64 {
		reqs := make([]*http.Request, bodies)
		recs := make([]*httptest.ResponseRecorder, bodies)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/events", bytes.NewReader(body[i]))
			reqs[i].Header.Set("Content-Type", "application/octet-stream")
			recs[i] = httptest.NewRecorder()
		}
		alloc := make([]uint64, bodies)
		var ms runtime.MemStats
		timed := func(i int, f func()) {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			f()
			runtime.ReadMemStats(&ms)
			alloc[i] += ms.TotalAlloc - before
			after(i)
		}
		for i := range reqs {
			timed(i, func() { h.ServeHTTP(recs[i], reqs[i]) })
			if recs[i].Code != http.StatusOK {
				t.Fatalf("%s: body %d: HTTP %d %s", name, i, recs[i].Code, recs[i].Body.Bytes())
			}
			timed(i, pump)
		}
		return alloc
	}

	for _, journal := range []bool{false, true} {
		nodeCfg := serve.Config{ManualDrain: true, Journal: journal}
		srv, err := serve.New(nodeCfg)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := srv.CreateSession(dotie)
		if err != nil {
			t.Fatal(err)
		}
		// warm is the first measured body: the second half's first, or
		// the first after the one that filled the result ring.
		warm, retained := bodies/2, 0
		node := measure("node", srv.Handler(), sess.ID, srv.Pump, func(i int) {
			if st, err := srv.SessionJournalStats(sess.ID); err == nil && st.Retained > retained {
				retained = st.Retained
				warm = max(warm, i+1)
			}
		})
		srv.Close()
		if warm > bodies*3/4 {
			t.Fatalf("journal %v: the result ring still grew at body %d of %d", journal, warm-1, bodies)
		}

		c, err := New(Config{Nodes: specs(t, "xavier:2"), Node: nodeCfg, ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := c.CreateSession(dotie)
		if err != nil {
			t.Fatal(err)
		}
		stored := 0
		var seen uint64
		router := measure("router", c.Handler(), snap.ID, c.Pump, func(i int) {
			buddy := c.tab.Load().lookup(snap.ID).buddy
			if buddy == nil {
				return
			}
			for _, e := range buddy.server().ReplicaLog(snap.ID) {
				if e.Body != nil && e.Seq > seen {
					seen = e.Seq
					if i >= warm {
						stored += cap(e.Body)
					}
				}
			}
		})
		c.Close()

		warmEvents, nodeB, routerB := 0, uint64(0), uint64(0)
		for i := warm; i < bodies; i++ {
			warmEvents += evs[i]
			nodeB += node[i]
			routerB += router[i]
		}
		perNode, perRouter := float64(nodeB)/float64(warmEvents), float64(routerB)/float64(warmEvents)
		replica := float64(stored) / float64(warmEvents)
		budget := 1.2*perNode + replica
		t.Logf("journal %-5v: bodies %d to %d: node %.2f B/event, router %.2f B/event, replica %.2f B/event stored, budget %.2f",
			journal, warm, bodies-1, perNode, perRouter, replica, budget)
		if journal && stored == 0 {
			t.Fatal("journal on, yet the buddy stored no replica bytes")
		}
		if perRouter > budget {
			t.Errorf("journal %v: router ingest allocates %.2f B/event, over the budget of %.2f (1.2 x node %.2f + replica %.2f)",
				journal, perRouter, budget, perNode, replica)
		}
	}
}

// wireRecord is one 13-byte EVAR record, which WriteBinary cannot
// produce for a bad polarity or a timestamp order it does not check.
func wireRecord(x, y uint16, ts int64, pol int8) []byte {
	rec := make([]byte, 13)
	binary.LittleEndian.PutUint16(rec[0:], x)
	binary.LittleEndian.PutUint16(rec[2:], y)
	binary.LittleEndian.PutUint64(rec[4:], uint64(ts))
	rec[12] = byte(pol)
	return rec
}

// wireBody is an EVAR body for a w x h sensor whose header declares
// count records, followed by recs.
func wireBody(w, h int, count uint64, recs ...[]byte) []byte {
	var hdr bytes.Buffer
	if err := events.WriteBinary(&hdr, events.NewStream(w, h)); err != nil {
		panic(err)
	}
	b := hdr.Bytes()
	binary.LittleEndian.PutUint64(b[10:], count)
	for _, r := range recs {
		b = append(b, r...)
	}
	return b
}

// FuzzRouterIngestWire: a binary body POSTed to Cluster.Handler is
// answered as serve.Server.Handler answers it — the same status, the
// same IngestResult, the same error text — and every chunk the router
// accepts is in the buddy's replica log as one entry under the node's
// seq whose body is the body posted, byte for byte. Both sides
// journal; each input is two bodies sent in turn to one session
// (FuzzIngestWire's seeds), on a time-framed (DOTIE) or count-framed
// (SpikeFlowNet) network.
func FuzzRouterIngestWire(f *testing.F) {
	body := func(evs ...events.Event) []byte {
		s := events.NewStream(16, 16)
		s.Events = evs
		var b bytes.Buffer
		if err := events.WriteBinary(&b, s); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	ok := body(events.Event{X: 1, Y: 2, Pol: events.On, TS: 100},
		events.Event{X: 3, Y: 4, Pol: events.Off, TS: 3_000},
		events.Event{X: 5, Y: 6, Pol: events.On, TS: 6_000})
	later := body(events.Event{X: 7, Y: 8, Pol: events.Off, TS: 6_000},
		events.Event{X: 9, Y: 1, Pol: events.On, TS: 12_000})
	earlier := body(events.Event{X: 1, Y: 1, Pol: events.On, TS: 50})
	for _, countFraming := range []bool{false, true} {
		f.Add(countFraming, ok, later)
		f.Add(countFraming, ok, ok[:len(ok)-4])                                                               // truncated record
		f.Add(countFraming, ok, ok[:9])                                                                       // truncated header
		f.Add(countFraming, ok, wireBody(16, 16, 5, wireRecord(1, 1, 7_000, 1)))                              // count mismatch
		f.Add(countFraming, ok, wireBody(16, 16, 0, wireRecord(1, 1, 7_000, 1), wireRecord(2, 2, 7_001, 3)))  // bad polarity
		f.Add(countFraming, ok, wireBody(16, 16, 2, wireRecord(1, 1, 8_000, 1), wireRecord(2, 2, 7_000, -1))) // out of order
		f.Add(countFraming, ok, wireBody(16, 16, 1, wireRecord(16, 0, 7_000, 1)))                             // outside the sensor
		f.Add(countFraming, ok, wireBody(8, 16, 1, wireRecord(1, 1, 7_000, 1)))                               // another geometry
		f.Add(countFraming, ok, earlier)                                                                      // before the watermark
		f.Add(countFraming, wireBody(16, 16, 2, wireRecord(1, 1, math.MaxInt64-1, 1), wireRecord(2, 2, math.MaxInt64, -1)), later)
		f.Add(countFraming, wireBody(16, 16, 1, wireRecord(1, 1, math.MinInt64, 1)), later)
		f.Add(countFraming, wireBody(16, 16, 2, wireRecord(1, 1, -5, 1), wireRecord(2, 2, 1e12, 1)), later) // over the framing bound
		f.Add(countFraming, wireBody(0, 0, 0), ok)                                                          // no geometry
		f.Add(countFraming, []byte("NOPE"), ok)
	}

	f.Fuzz(func(t *testing.T, countFraming bool, first, second []byte) {
		cfg := serve.SessionConfig{Network: nn.DOTIE, Level: 2}
		if countFraming {
			cfg.Network = nn.SpikeFlowNet
		}
		nodeCfg := serve.Config{ManualDrain: true, Journal: true}
		srv, err := serve.New(nodeCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sess, err := srv.CreateSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{Nodes: specs(t, "xavier:2"), Node: nodeCfg, ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		snap, err := c.CreateSession(cfg)
		if err != nil {
			t.Fatal(err)
		}

		type answer struct {
			code int
			serve.IngestResult
			Error string `json:"error"`
		}
		post := func(h http.Handler, id string, b []byte) answer {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/events", bytes.NewReader(b))
			req.Header.Set("Content-Type", "application/octet-stream")
			h.ServeHTTP(rec, req)
			a := answer{code: rec.Code}
			if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
				t.Fatalf("HTTP %d with %q: %v", rec.Code, rec.Body.Bytes(), err)
			}
			return a
		}
		for i, b := range [][]byte{first, second} {
			node, router := post(srv.Handler(), sess.ID, b), post(c.Handler(), snap.ID, b)
			if node != router {
				t.Fatalf("body %d: node answered %+v, router %+v", i, node, router)
			}
			buddy := c.tab.Load().lookup(snap.ID).buddy
			var log []serve.ReplicaEntry
			if buddy != nil {
				log = buddy.server().ReplicaTake(snap.ID, 0)
			}
			if node.code != http.StatusOK {
				if len(log) != 0 {
					t.Fatalf("body %d: refused with %d, yet replicated %d entries", i, node.code, len(log))
				}
				continue
			}
			if len(log) != 1 {
				t.Fatalf("body %d: accepted, with %d replica entries", i, len(log))
			}
			if e := log[0]; e.Seq != node.Seq || !bytes.Equal(e.Body, b) {
				t.Fatalf("body %d: replica entry seq %d with a %d-byte body; want seq %d and the %d bytes posted", i, e.Seq, len(e.Body), node.Seq, len(b))
			}
		}
	})
}

// TestRouterIngestDuringMigration (run it under -race): ingest bodies
// are read into pooled buffers, and a chunk the router retries after a
// drain moved its session is the same view of the same buffer, which
// replication copies before the buffer goes back to the pool. Four
// senders post EVAR through Cluster.Handler to their own sessions on a
// journaled three-node fleet while the test drains and undrains the
// sessions' owners. Every request must be answered 200, the fleet must
// count each acknowledged chunk's events once, and every chunk entry
// left on the fleet must hold a whole EVAR body.
func TestRouterIngestDuringMigration(t *testing.T) {
	const (
		senders = 4
		chunkUS = 10_000
		perSend = 30
	)
	cfg := Config{Nodes: specs(t, "xavier:3")}
	cfg.Node.Journal = true
	c, cl, stop := newTestCluster(t, cfg)
	defer stop()
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 5, chunkUS*perSend)
	ids := make([]string, senders)
	for i := range ids {
		snap, err := cl.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		ids[i] = snap.ID
	}

	var acked atomic.Int64
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ch := range chunks(stream, chunkUS*perSend, chunkUS) {
				res, err := cl.SendEvents(id, ch)
				if err != nil {
					t.Errorf("%s: SendEvents: %v", id, err)
					return
				}
				acked.Add(int64(res.Events))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	moves := 0
	for k := 0; ; k++ {
		select {
		case <-done:
		default:
			owner := c.tab.Load().lookup(ids[k%senders]).node.name
			if c.DrainNode(owner) == nil {
				moves++
				if err := c.UndrainNode(owner); err != nil {
					t.Fatalf("UndrainNode(%s): %v", owner, err)
				}
			}
			continue
		}
		break
	}
	if moves == 0 {
		t.Fatal("no drain ran while the senders posted")
	}
	if got, want := c.FleetTotals().EventsIn, uint64(acked.Load()); got != want {
		t.Errorf("fleet ingested %d events, the senders were acknowledged %d", got, want)
	}
	for _, n := range c.nodes {
		for _, id := range ids {
			for _, e := range n.server().ReplicaTake(id, 0) {
				if e.Body == nil {
					continue
				}
				if _, _, _, err := events.ParseBinary(e.Body); err != nil {
					t.Errorf("replica entry %d of %s on %s: %v", e.Seq, id, n.name, err)
				}
			}
		}
	}
	t.Logf("%d drains under %d senders", moves, senders)
}

// TestJournalReplaysCountZeroBody: the journal stores an EVAR body as
// the client sent it, so a body whose header count is 0 (records run
// to the end; events.ParseBinary takes it, WriteBinary never writes it)
// lands in the replica log as it is. Sent through the router with the
// journal on, such bodies must replay after KillNode to the recovered
// frames and session snapshot that the canonical bodies replay to.
func TestJournalReplaysCountZeroBody(t *testing.T) {
	stream := genStream(t, nn.MustByName(nn.DOTIE).Input.Preset, 13, 120_000)
	run := func(countZero bool) (uint64, serve.SessionSnapshot) {
		cfg := Config{Nodes: specs(t, "xavier:2"), ProbeInterval: -1}
		cfg.Node.QueueCap = 4096
		cfg.Node.ManualDrain = true
		cfg.Node.Journal = true
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		snap, err := c.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, ch := range chunks(stream, 120_000, 30_000) {
			var b bytes.Buffer
			if err := events.WriteBinary(&b, ch); err != nil {
				t.Fatal(err)
			}
			body := b.Bytes()
			if countZero {
				binary.LittleEndian.PutUint64(body[10:], 0)
			}
			rec := httptest.NewRecorder()
			c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+snap.ID+"/events", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("count 0 %v, body %d: HTTP %d %s", countZero, i, rec.Code, rec.Body.Bytes())
			}
		}
		owner := c.tab.Load().lookup(snap.ID).node.name
		if err := c.KillNode(owner); err != nil {
			t.Fatal(err)
		}
		c.ProbeNow()
		got, err := c.Snapshot(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		got.CreatedAt = time.Time{} // wall clock
		return c.Health().FailoverRecoveredFrames, got
	}
	wantFrames, want := run(false)
	gotFrames, got := run(true)
	if wantFrames == 0 {
		t.Fatal("the canonical bodies recovered no frames")
	}
	if gotFrames != wantFrames || !reflect.DeepEqual(got, want) {
		t.Errorf("count-0 bodies replayed to %d frames, %+v;\ncanonical bodies to %d frames, %+v", gotFrames, got, wantFrames, want)
	}
}
