package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/scene"
	"evedge/internal/serve"
)

// TestSessionAPIStatusParity pins the router's promise to speak "the
// exact session API of a single serve node" where it is easiest to
// break: the same refused request must get the same status from
// serve.Server.Handler and from Cluster.Handler, and that status is the
// one serve.ErrorStatus documents.
func TestSessionAPIStatusParity(t *testing.T) {
	srv, err := serve.New(serve.Config{ManualDrain: true})
	if err != nil {
		t.Fatal(err)
	}
	nodeHTTP := httptest.NewServer(srv.Handler())
	defer nodeHTTP.Close()
	defer srv.Close()
	tc, stop := newTestClusterURL(t, Config{Nodes: specs(t, "xavier:1"), Node: serve.Config{ManualDrain: true}})
	defer stop()

	// Each side names its first session, stops admitting and stops
	// altogether its own way.
	dotieCfg := serve.SessionConfig{Network: nn.DOTIE, Level: 2}
	sides := []struct {
		name, base, id     string
		drain, kill, evict func()
	}{
		{"node", nodeHTTP.URL, "s1", func() { srv.SetDraining(true) }, srv.Close, func() {
			// Close the first session, then MaxClosed more: the server
			// forgets the first.
			for id := "s1"; ; {
				if _, err := srv.CloseSession(id); err != nil {
					t.Fatal(err)
				}
				if srv.Totals().Sessions > serve.MaxClosed {
					return
				}
				sess, err := srv.CreateSession(dotieCfg)
				if err != nil {
					t.Fatal(err)
				}
				id = sess.ID
			}
		}},
		{"cluster", tc.base, "c1", func() {
			if err := tc.c.DrainNode("xavier0"); err != nil {
				t.Errorf("DrainNode: %v", err)
			}
		}, func() {
			if err := tc.c.KillNode("xavier0"); err != nil {
				t.Errorf("KillNode: %v", err)
			}
		}, func() {
			for id := "c1"; ; {
				if _, err := tc.c.CloseSession(id); err != nil {
					t.Fatal(err)
				}
				if tc.c.FleetTotals().Sessions > serve.MaxClosed {
					return
				}
				snap, err := tc.c.CreateSession(dotieCfg)
				if err != nil {
					t.Fatal(err)
				}
				id = snap.ID
			}
		}},
	}

	evar := func(s *events.Stream) []byte {
		var b bytes.Buffer
		if err := events.WriteBinary(&b, s); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	mk := func(t0 int64, xy ...uint16) *events.Stream {
		s := events.NewStream(8, 8)
		for i := 0; i < len(xy); i += 2 {
			s.Append(events.Event{X: xy[i], Y: xy[i+1], TS: t0 + int64(i)*500, Pol: events.On})
		}
		return s
	}
	first := evar(mk(0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7))
	outside := evar(mk(6_500, 9, 3))
	unbounded := mk(7_000, 1, 1, 2, 2)
	unbounded.Events[1].TS = 1e18
	const dotie = `{"network":"DOTIE","level":2}`

	// Rows run in order: the create makes each side's first session,
	// which {id} then names, and the state changes come last.
	rows := []struct {
		what, method, path string
		body               []byte
		drain, kill, evict bool // change each side's state first
		want               int
		wantText           string
	}{
		{what: "get unknown session", method: "GET", path: "/v1/sessions/nope", want: 404, wantText: serve.ErrNoSession.Error()},
		{what: "ingest into unknown session", method: "POST", path: "/v1/sessions/nope/events", body: first, want: 404},
		{what: "close unknown session", method: "POST", path: "/v1/sessions/nope/close", want: 404},
		{what: "stream unknown session", method: "GET", path: "/v1/sessions/nope/stream", want: 404, wantText: serve.ErrNoSession.Error()},
		{what: "create", method: "POST", path: "/v1/sessions", body: []byte(dotie), want: 201},
		{what: "first chunk", method: "POST", path: "/v1/sessions/{id}/events", body: first, want: 200},
		{what: "undecodable chunk", method: "POST", path: "/v1/sessions/{id}/events", body: []byte("not EVAR"), want: 400},
		{what: "event outside the geometry", method: "POST", path: "/v1/sessions/{id}/events", body: outside, want: 400},
		{what: "chunk over the work bounds", method: "POST", path: "/v1/sessions/{id}/events", body: evar(unbounded), want: 400},
		{what: "chunk before the watermark", method: "POST", path: "/v1/sessions/{id}/events", body: first, want: 409},
		{what: "stream without a journal", method: "GET", path: "/v1/sessions/{id}/stream", want: 409},
		{what: "get an evicted closed session", method: "GET", path: "/v1/sessions/{id}", evict: true, want: 404, wantText: serve.ErrNoSession.Error()},
		{what: "create with an unknown network", method: "POST", path: "/v1/sessions", body: []byte(`{"network":"nope"}`), want: 409},
		{what: "create with an undecodable config", method: "POST", path: "/v1/sessions", body: []byte(`{`), want: 400},
		{what: "create while draining", method: "POST", path: "/v1/sessions", body: []byte(dotie), drain: true, want: 503},
		{what: "create after shutdown", method: "POST", path: "/v1/sessions", body: []byte(dotie), kill: true, want: 503},
	}

	for _, row := range rows {
		for _, side := range sides {
			if row.drain {
				side.drain()
			}
			if row.kill {
				side.kill()
			}
			if row.evict {
				side.evict()
			}
			req, err := http.NewRequest(row.method, side.base+strings.ReplaceAll(row.path, "{id}", side.id), bytes.NewReader(row.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s on %s: %v", row.what, side.name, err)
			}
			text, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != row.want {
				t.Errorf("%s on %s: HTTP %d, want %d (%s)", row.what, side.name, resp.StatusCode, row.want, bytes.TrimSpace(text))
			}
			if !strings.Contains(string(text), row.wantText) {
				t.Errorf("%s on %s: body %q does not name %q", row.what, side.name, text, row.wantText)
			}
		}
	}
}

// TestIngestBodyLimit: a body one byte over serve.MaxBodyBytes is
// refused 413 by serve.Server.Handler and by Cluster.Handler alike, and
// leaves the session as it was. The body is well-formed EVAR up to the
// limit and is generated as the handler reads it.
func TestIngestBodyLimit(t *testing.T) {
	srv, err := serve.New(serve.Config{ManualDrain: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := New(Config{Nodes: specs(t, "xavier:1"), Node: serve.Config{ManualDrain: true}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	evar := func(s *events.Stream) []byte {
		var b bytes.Buffer
		if err := events.WriteBinary(&b, s); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	one := events.NewStream(8, 8)
	one.Append(events.Event{X: 1, Y: 1, TS: 9_000, Pol: events.On})
	first, header := evar(one), evar(events.NewStream(8, 8))
	record := first[len(header):]

	for _, side := range []struct {
		name string
		h    http.Handler
	}{{"node", srv.Handler()}, {"cluster", c.Handler()}} {
		do := func(method, path string, body io.Reader) (int, string) {
			rec := httptest.NewRecorder()
			side.h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
			return rec.Code, rec.Body.String()
		}
		code, text := do("POST", "/v1/sessions", strings.NewReader(`{"network":"DOTIE","level":2}`))
		var snap struct{ ID string }
		if err := json.Unmarshal([]byte(text), &snap); code != http.StatusCreated || err != nil {
			t.Fatalf("%s: create: HTTP %d %s (%v)", side.name, code, text, err)
		}
		path := "/v1/sessions/" + snap.ID
		if code, text := do("POST", path+"/events", bytes.NewReader(first)); code != http.StatusOK {
			t.Fatalf("%s: first chunk: HTTP %d %s", side.name, code, text)
		}
		_, before := do("GET", path, nil)

		body := io.MultiReader(bytes.NewReader(header),
			&repeatReader{rec: record, left: serve.MaxBodyBytes + 1 - int64(len(header))})
		code, text = do("POST", path+"/events", body)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(text, "request body too large") {
			t.Errorf("%s: body over MaxBodyBytes: HTTP %d %s, want 413 naming the limit", side.name, code, text)
		}
		if _, after := do("GET", path, nil); after != before {
			t.Errorf("%s: a refused body changed the session:\nbefore %s\nafter  %s", side.name, before, after)
		}
	}
}

// TestIngestFramings: both front doors take an ingest body in either
// HTTP/1.1 framing — chunked, as serve.Client and evload send it, and
// with a Content-Length, as curl sends it — in both wire formats, over
// real loopback connections, and answer each as an in-process Ingest of
// the same chunk into a fresh session does.
func TestIngestFramings(t *testing.T) {
	seq, err := scene.NewSequence(nn.MustByName(nn.DOTIE).Input.Preset, scene.Half, 3)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := seq.Generate(30_000)
	if err != nil {
		t.Fatal(err)
	}
	dotie := serve.SessionConfig{Network: nn.DOTIE, Level: 2}
	ref, err := serve.New(serve.Config{ManualDrain: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	sess, err := ref.CreateSession(dotie)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Ingest(sess.ID, chunk)
	if err != nil || want.Frames == 0 {
		t.Fatalf("in-process Ingest: %+v, %v; want frames", want, err)
	}
	var evar bytes.Buffer
	if err := events.WriteBinary(&evar, chunk); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(serve.ChunkFromStream(chunk))
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{ManualDrain: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := New(Config{Nodes: specs(t, "xavier:1"), Node: serve.Config{ManualDrain: true}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, door := range []struct {
		name string
		h    http.Handler
	}{{"node", srv.Handler()}, {"cluster", c.Handler()}} {
		// The framing each ingest request arrived in, as the handler saw it.
		var mu sync.Mutex
		var length int64
		var encoding []string
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/events") {
				mu.Lock()
				length, encoding = r.ContentLength, r.TransferEncoding
				mu.Unlock()
			}
			door.h.ServeHTTP(w, r)
		}))
		cl := serve.NewClient(hs.URL, nil)
		post := func(contentType string, body []byte) func(id string) (*serve.IngestResult, error) {
			return func(id string) (*serve.IngestResult, error) {
				resp, err := http.Post(hs.URL+"/v1/sessions/"+id+"/events", contentType, bytes.NewReader(body))
				if err != nil {
					return nil, err
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					text, _ := io.ReadAll(resp.Body)
					return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, text)
				}
				var res serve.IngestResult
				return &res, json.NewDecoder(resp.Body).Decode(&res)
			}
		}
		for _, way := range []struct {
			name   string
			length int64 // the Content-Length the handler must see; -1 for chunked
			send   func(id string) (*serve.IngestResult, error)
		}{
			{"chunked EVAR", -1, func(id string) (*serve.IngestResult, error) { return cl.SendEvents(id, chunk) }},
			{"chunked JSON", -1, func(id string) (*serve.IngestResult, error) { return cl.SendEventsJSON(id, chunk) }},
			{"Content-Length EVAR", int64(evar.Len()), post("application/octet-stream", evar.Bytes())},
			{"Content-Length JSON", int64(len(js)), post("application/json", js)},
		} {
			snap, err := cl.CreateSession(dotie)
			if err != nil {
				t.Fatalf("%s: create: %v", door.name, err)
			}
			got, err := way.send(snap.ID)
			if err != nil {
				t.Errorf("%s, %s: %v", door.name, way.name, err)
				continue
			}
			if *got != want {
				t.Errorf("%s, %s: %+v, want %+v as in-process", door.name, way.name, *got, want)
			}
			mu.Lock()
			chunked := len(encoding) == 1 && encoding[0] == "chunked"
			if length != way.length || chunked != (way.length < 0) {
				t.Errorf("%s, %s: arrived with Content-Length %d, Transfer-Encoding %v", door.name, way.name, length, encoding)
			}
			mu.Unlock()
		}
		hs.Close()
	}
}

// repeatReader yields left bytes of rec repeated end to end.
type repeatReader struct {
	rec  []byte
	off  int
	left int64
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.left {
		p = p[:r.left]
	}
	n := 0
	for n < len(p) {
		k := copy(p[n:], r.rec[r.off:])
		n += k
		r.off = (r.off + k) % len(r.rec)
	}
	r.left -= int64(n)
	return n, nil
}
