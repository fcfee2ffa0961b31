package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/scene"
	"evedge/internal/serve"
)

// The router's benchmarks. Compare two commits with the alternating
// go test -c recipe (build both test binaries, run them in turn with
// -test.run '^$' -test.bench Router -test.benchtime 0.2s -test.cpu 1,
// 10 or more pairs); read the minimum next to the median, since host
// noise only adds time.

const benchChunkUS = 20_000

// benchBodies returns 50 consecutive 20 ms EVAR bodies of a half-scale
// DOTIE scene and their event counts.
func benchBodies(b *testing.B) ([][]byte, []int) {
	b.Helper()
	const n = 50
	seq, err := scene.NewSequence(nn.MustByName(nn.DOTIE).Input.Preset, scene.Half, 7)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := seq.Generate(n * benchChunkUS)
	if err != nil {
		b.Fatal(err)
	}
	bodies, counts := make([][]byte, n), make([]int, n)
	for i := range bodies {
		s := stream.Slice(int64(i)*benchChunkUS, int64(i+1)*benchChunkUS)
		var buf bytes.Buffer
		if err := events.WriteBinary(&buf, s); err != nil {
			b.Fatal(err)
		}
		bodies[i], counts[i] = buf.Bytes(), s.Len()
	}
	return bodies, counts
}

// BenchmarkRouterIngest posts EVAR bodies to one DOTIE level-2 session
// through serve.Server.Handler ("node") and through Cluster.Handler
// ("router", two nodes), pumping after each, with the journal off and
// on, and reports host ns and bytes allocated per event. A new session
// starts every 50 bodies, outside the timer and the byte count
// (BenchmarkRouterCreateClose prices it).
func BenchmarkRouterIngest(b *testing.B) {
	bodies, counts := benchBodies(b)
	dotie := serve.SessionConfig{Network: nn.DOTIE, Level: 2}
	for _, journal := range []bool{false, true} {
		for _, side := range []string{"node", "router"} {
			b.Run(fmt.Sprintf("%s/journal=%v", side, journal), func(b *testing.B) {
				nodeCfg := serve.Config{ManualDrain: true, Journal: journal}
				var (
					h         http.Handler
					pump      func()
					create    func() string
					closeSess func(id string)
				)
				if side == "node" {
					srv, err := serve.New(nodeCfg)
					if err != nil {
						b.Fatal(err)
					}
					defer srv.Close()
					h, pump = srv.Handler(), srv.Pump
					create = func() string {
						sess, err := srv.CreateSession(dotie)
						if err != nil {
							b.Fatal(err)
						}
						return sess.ID
					}
					closeSess = func(id string) { _, _ = srv.CloseSession(id) }
				} else {
					c, err := New(Config{Nodes: specs(b, "xavier:2"), Node: nodeCfg, ProbeInterval: -1})
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					h, pump = c.Handler(), c.Pump
					create = func() string {
						snap, err := c.CreateSession(dotie)
						if err != nil {
							b.Fatal(err)
						}
						return snap.ID
					}
					closeSess = func(id string) { _, _ = c.CloseSession(id) }
				}
				var id string
				var evs int
				var alloc uint64
				var ms runtime.MemStats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % len(bodies)
					if k == 0 {
						b.StopTimer()
						if id != "" {
							runtime.ReadMemStats(&ms)
							alloc += ms.TotalAlloc
							closeSess(id)
						}
						id = create()
						runtime.ReadMemStats(&ms)
						alloc -= ms.TotalAlloc
						b.StartTimer()
					}
					req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/events", bytes.NewReader(bodies[k]))
					req.Header.Set("Content-Type", "application/octet-stream")
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("body %d: HTTP %d %s", k, rec.Code, rec.Body.Bytes())
					}
					pump()
					evs += counts[k]
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				alloc += ms.TotalAlloc
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evs), "ns/event")
				b.ReportMetric(float64(alloc)/float64(evs), "B/event")
			})
		}
	}
}

// BenchmarkRouterCreateClose creates and closes one DOTIE level-2
// session through the router of a two-node fleet that keeps 8 sessions
// open, and reports µs and bytes allocated per create+close.
func BenchmarkRouterCreateClose(b *testing.B) {
	c, err := New(Config{Nodes: specs(b, "xavier:2"), Node: serve.Config{ManualDrain: true}, ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	dotie := serve.SessionConfig{Network: nn.DOTIE, Level: 2}
	for i := 0; i < 8; i++ {
		if _, err := c.CreateSession(dotie); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := c.CreateSession(dotie)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.CloseSession(snap.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/cycle")
}

// BenchmarkRouterReplicate times the router's replication of one
// journaled chunk on its own: the replica entry copied from the body
// and appended to the buddy's log, which the chunk's ack trims back to
// one entry. It reports µs per replicated chunk.
func BenchmarkRouterReplicate(b *testing.B) {
	bodies, _ := benchBodies(b)
	c, err := New(Config{Nodes: specs(b, "xavier:2"), Node: serve.Config{ManualDrain: true, Journal: true}, ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	snap, err := c.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 2})
	if err != nil {
		b.Fatal(err)
	}
	chunks := make([]serve.Chunk, len(bodies))
	for i, body := range bodies {
		s, err := events.ReadBinary(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		chunks[i] = serve.StreamChunk(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		replicateOnce(c, snap.ID, chunks[i%len(chunks)], serve.IngestResult{Seq: seq, AckSeq: seq - 1})
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/chunk")
}

// BenchmarkRouterFailover times a kill until every session is resumed:
// four journaled DOTIE level-1 sessions on a three-node fleet each
// queue 200 ms of scene, then their owner dies and one probe pass
// fails them over, replaying the buddies' replicas. It reports ms per
// kill and the frames the replays recovered.
func BenchmarkRouterFailover(b *testing.B) {
	bodies, _ := benchBodies(b)
	var recovered uint64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := Config{Nodes: specs(b, "xavier:3"), ProbeInterval: -1, Policy: PolicyHash}
		cfg.Node.ManualDrain = true
		cfg.Node.Journal = true
		cfg.Node.QueueCap = 4096
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		h := c.Handler()
		var victim string
		for s := 0; s < 4; s++ {
			snap, err := c.CreateSession(serve.SessionConfig{Network: nn.DOTIE, Level: 1})
			if err != nil {
				b.Fatal(err)
			}
			if s == 0 {
				victim = snap.Node
			}
			for _, body := range bodies[:10] {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+snap.ID+"/events", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("HTTP %d %s", rec.Code, rec.Body.Bytes())
				}
			}
		}
		start := time.Now()
		b.StartTimer()
		if err := c.KillNode(victim); err != nil {
			b.Fatal(err)
		}
		c.ProbeNow()
		b.StopTimer()
		elapsed += time.Since(start)
		recovered += c.Health().FailoverRecoveredFrames
		c.Close()
	}
	b.ReportMetric(float64(elapsed.Microseconds())/1e3/float64(b.N), "ms/kill")
	b.ReportMetric(float64(recovered)/float64(b.N), "frames/kill")
}

// replicateOnce replicates one journaled chunk of session id as Ingest
// does once the owner took it.
func replicateOnce(c *Cluster, id string, chunk serve.Chunk, res serve.IngestResult) {
	t := c.tab.Load()
	c.replicate(t, t.lookup(id), chunk, res)
}
