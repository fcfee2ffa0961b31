package serve

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/scene"
)

// TestClientRoundTripAllocBudget is the allocation gate of the real
// HTTP ingest path: after warm-up, one SendEvents of a 3 400-event EVAR
// chunk through httptest, client and server together (encode, request,
// body read, decode, E2SF, reply), must allocate under 16 KiB. A body
// sent with a Content-Length costs a fresh copy buffer of up to 32 KiB
// per request inside net/http; see Client.post.
func TestClientRoundTripAllocBudget(t *testing.T) {
	const (
		chunkEvents = 3400
		chunkSpan   = 400_000 // µs of the harness's scene that hold chunkEvents
		budget      = 16 << 10
	)
	h := newAllocHarness(t)
	defer h.srv.Close()
	seq, err := scene.NewSequence(nn.MustByName(nn.SpikeFlowNet).Input.Preset, scene.Half, 11)
	if err != nil {
		t.Fatal(err)
	}
	long, err := seq.Generate(chunkSpan)
	if err != nil {
		t.Fatal(err)
	}
	if long.Len() < chunkEvents {
		t.Fatalf("%d µs of scene hold %d events, want >= %d", chunkSpan, long.Len(), chunkEvents)
	}
	h.chunk.Events, h.span = long.Events[:chunkEvents], chunkSpan
	hs := httptest.NewServer(h.srv.Handler())
	defer hs.Close()
	cl := NewClient(hs.URL, nil)
	defer cl.hc.CloseIdleConnections()
	roundTrip := func() {
		for i := range h.chunk.Events {
			h.chunk.Events[i].TS += h.span
		}
		if _, err := cl.SendEvents(h.id, h.chunk); err != nil {
			t.Fatalf("SendEvents: %v", err)
		}
		h.srv.Pump()
	}
	for i := 0; i < 20; i++ {
		roundTrip()
	}
	// The minimum of a few windows: a garbage collection that empties a
	// sync.Pool mid-window only ever adds bytes.
	const perWindow = 50
	best := ^uint64(0)
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < perWindow; i++ {
			roundTrip()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/perWindow)
	}
	if raceEnabled {
		t.Logf("race build: measured %d B per round trip (bound not enforced)", best)
		return
	}
	t.Logf("%d B per %d-event round trip (budget %d B)", best, chunkEvents, budget)
	if best >= budget {
		t.Fatalf("SendEvents round trip allocates %d B, want < %d B", best, budget)
	}
}

// TestDefaultClientReusesConnections: NewClient(base, nil) is what
// evload shares across its sessions, so closed-loop senders on one
// client must keep their connections instead of redialing whenever
// more than two are idle at once.
func TestDefaultClientReusesConnections(t *testing.T) {
	const senders, perSender = 8, 100
	srv, err := New(Config{ManualDrain: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var opened atomic.Int32
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()
	cl := NewClient(hs.URL, nil)
	defer cl.hc.CloseIdleConnections()

	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, err := cl.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 2})
			if err != nil {
				t.Errorf("CreateSession: %v", err)
				return
			}
			for c := int64(0); c < perSender; c++ {
				chunk := events.NewStream(8, 8)
				chunk.Append(events.Event{X: uint16(c % 8), Y: uint16(i), TS: c * 1000, Pol: events.On})
				if _, err := cl.SendEvents(snap.ID, chunk); err != nil {
					t.Errorf("SendEvents: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := opened.Load(); n > 2*senders {
		t.Fatalf("%d closed-loop senders opened %d connections for %d requests, want <= %d",
			senders, n, senders*(perSender+1), 2*senders)
	}
}

// bodyRecorder is an http.RoundTripper that records every pooled body
// the client hands its transport.
type bodyRecorder struct {
	http.RoundTripper
	mu     sync.Mutex
	bodies []*pooledBody
}

func (r *bodyRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if b, ok := req.Body.(*pooledBody); ok {
		r.mu.Lock()
		r.bodies = append(r.bodies, b)
		r.mu.Unlock()
	}
	return r.RoundTripper.RoundTrip(req)
}

// take returns and forgets the bodies recorded so far.
func (r *bodyRecorder) take() []*pooledBody {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.bodies
	r.bodies = nil
	return b
}

// TestClientBodyReleased (run it under -race): every body the client
// posts is a reference on a pooled encodeBuf, and whatever the
// request's outcome the transport must Close it and the buffer's count
// must reach zero, or the buffer never returns to the pool — or, with
// one release too many, returns while still being written. The
// transport may Close after Do returns, so each outcome polls.
func TestClientBodyReleased(t *testing.T) {
	srv, err := New(Config{ManualDrain: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	// hangup reads the first bytes of a body, then drops the connection.
	hangup := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.ReadFull(r.Body, make([]byte, 512))
		conn, _, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Errorf("Hijack: %v", err)
			return
		}
		_ = conn.Close()
	}))
	defer hangup.Close()

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	rec := &bodyRecorder{RoundTripper: tr}
	hc := &http.Client{Transport: rec, Timeout: 30 * time.Second}
	cl, hung := NewClient(hs.URL, hc), NewClient(hangup.URL, hc)
	snap, err := cl.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec.take()

	mk := func(n int, t0 int64) *events.Stream {
		s := events.NewStream(173, 130)
		for i := 0; i < n; i++ {
			s.Append(events.Event{X: uint16(i % 173), Y: uint16(i % 130), TS: t0 + int64(i), Pol: events.On})
		}
		return s
	}
	bad := mk(100, 10_000)
	bad.Events[50].X = 173
	for _, o := range []struct {
		name string
		ok   bool   // the request succeeds
		want string // else a substring of its error
		send func() error
	}{
		{"200", true, "", func() error { _, err := cl.SendEvents(snap.ID, mk(100, 0)); return err }},
		{"400 bad event", false, "HTTP 400", func() error { _, err := cl.SendEvents(snap.ID, bad); return err }},
		{"404 unknown session", false, "HTTP 404", func() error { _, err := cl.SendEvents("nope", mk(100, 0)); return err }},
		// Large enough that the client is still writing when the
		// connection drops.
		{"hangup mid-body", false, "", func() error { _, err := hung.SendEvents(snap.ID, mk(1<<18, 0)); return err }},
	} {
		if err := o.send(); o.ok != (err == nil) || err != nil && !strings.Contains(err.Error(), o.want) {
			t.Errorf("%s: err = %v, want ok=%v %q", o.name, err, o.ok, o.want)
		}
		bodies := rec.take()
		if len(bodies) == 0 {
			t.Fatalf("%s: the transport was handed no pooled body", o.name)
		}
		deadline := time.Now().Add(5 * time.Second)
		for _, b := range bodies {
			for !b.closed.Load() || b.buf.refs.Load() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%s: body closed %v, buffer refs %d; want closed and 0", o.name, b.closed.Load(), b.buf.refs.Load())
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
