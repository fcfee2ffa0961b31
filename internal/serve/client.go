package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"evedge/internal/events"
)

// Client talks to an evserve instance. It is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at base (e.g.
// "http://localhost:7733"). A nil http.Client gets a 30 s timeout and
// a transport that keeps as many idle connections per host as it keeps
// in total, so goroutines sharing the client reuse their connections
// instead of redialing past http.DefaultTransport's two per host.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = tr.MaxIdleConns
		hc = &http.Client{Timeout: 30 * time.Second, Transport: tr}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// do issues one request without a body and decodes the JSON response
// into out.
func (c *Client) do(method, path string, out any) error {
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.send(req, path, out)
}

// send issues req and decodes the JSON response into out, surfacing
// the server's error payload on non-2xx statuses.
func (c *Client) send(req *http.Request, path string, out any) error {
	method := req.Method
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("serve: %s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("serve: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// post encodes a request body into a pooled buffer with enc and POSTs
// it without a Content-Length, so it goes out chunked. net/http copies
// a body of known length through an io.LimitReader, which hides the
// reader's WriteTo, and the connection then allocates a copy buffer of
// up to 32 KiB per request; a chunked body writes itself straight into
// the connection's buffered writer. The servers read bodies through
// http.MaxBytesReader and never consult Content-Length.
func (c *Client) post(path, contentType string, enc func(*bytes.Buffer) error, out any) error {
	buf := encodeBufs.Get().(*encodeBuf)
	buf.Reset()
	buf.refs.Store(1)
	defer buf.release()
	if err := enc(&buf.Buffer); err != nil {
		return err
	}
	body := buf.body()
	req, err := http.NewRequest(http.MethodPost, c.base+path, body)
	if err != nil {
		_ = body.Close()
		return err
	}
	req.GetBody = func() (io.ReadCloser, error) { return buf.body(), nil }
	req.Header.Set("Content-Type", contentType)
	return c.send(req, path, out)
}

// encodeBuf is a pooled buffer post encodes a request body into. It
// goes back to the pool when its last reference is released: post
// holds one for the length of the call and every body handed to the
// transport one until its Close. Returning from Do is not enough — a
// server that answers before it has read the whole body (a 400 on the
// header, a body over its limit) leaves the transport writing the rest
// after the response is in, and the transport's Close is the one
// signal that it is done with the bytes.
type encodeBuf struct {
	bytes.Buffer
	refs atomic.Int32
}

var encodeBufs = sync.Pool{New: func() any { return new(encodeBuf) }}

func (e *encodeBuf) release() {
	if e.refs.Add(-1) == 0 {
		encodeBufs.Put(e)
	}
}

// body returns a new reader over the encoded bytes, holding a
// reference; it is the request's Body and, for the transport's retry on
// a dead keep-alive connection, its GetBody.
func (e *encodeBuf) body() io.ReadCloser {
	e.refs.Add(1)
	b := &pooledBody{buf: e}
	b.Reset(e.Bytes())
	return b
}

// pooledBody is a request body over an encodeBuf. Its embedded
// bytes.Reader's WriteTo is what the transport copies a chunked body
// with.
type pooledBody struct {
	bytes.Reader
	buf    *encodeBuf
	closed atomic.Bool // the transport may Close from more than one goroutine
}

func (b *pooledBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.buf.release()
	}
	return nil
}

// CreateSession opens a session and returns its initial snapshot.
func (c *Client) CreateSession(cfg SessionConfig) (*SessionSnapshot, error) {
	var snap SessionSnapshot
	if err := c.post("/v1/sessions", "application/json",
		func(b *bytes.Buffer) error { return json.NewEncoder(b).Encode(cfg) }, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// SendEvents streams one chunk in the EVAR binary wire format.
func (c *Client) SendEvents(id string, chunk *events.Stream) (*IngestResult, error) {
	var res IngestResult
	if err := c.post("/v1/sessions/"+id+"/events", "application/octet-stream",
		func(b *bytes.Buffer) error { return events.WriteBinary(b, chunk) }, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// SendEventsJSON streams one chunk in the JSON wire format.
func (c *Client) SendEventsJSON(id string, chunk *events.Stream) (*IngestResult, error) {
	var res IngestResult
	if err := c.post("/v1/sessions/"+id+"/events", "application/json",
		func(b *bytes.Buffer) error { return json.NewEncoder(b).Encode(ChunkFromStream(chunk)) }, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Session fetches a session snapshot.
func (c *Client) Session(id string) (*SessionSnapshot, error) {
	var snap SessionSnapshot
	if err := c.do(http.MethodGet, "/v1/sessions/"+id, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// Sessions lists all sessions.
func (c *Client) Sessions() ([]SessionSnapshot, error) {
	var snaps []SessionSnapshot
	if err := c.do(http.MethodGet, "/v1/sessions", &snaps); err != nil {
		return nil, err
	}
	return snaps, nil
}

// CloseSession closes a session and returns its final snapshot.
func (c *Client) CloseSession(id string) (*SessionSnapshot, error) {
	var snap SessionSnapshot
	if err := c.do(http.MethodPost, "/v1/sessions/"+id+"/close", &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// StreamResults subscribes to the session's server-push result stream
// (SSE on /v1/sessions/{id}/stream), invoking fn for every result
// event in journal sequence order. since is the last sequence number
// the caller has seen (0 from the beginning): the server first replays
// retained results after that watermark, then tails live — so a
// dropped connection resumes gaplessly by passing the last delivered
// Seq back in.
//
// The call blocks until the session closes (nil), the context is
// canceled (ctx.Err()), fn returns an error (that error), or the
// connection breaks: a read error, or io.ErrUnexpectedEOF when the
// stream ends without the session's close event — the server stopped
// or died, or a cluster failover moved the session, so the caller
// reconnects with since=<last Seq> rather than taking it for a close.
// Use a context or an http.Client without a Timeout for long-lived
// streams — the default 30 s client deadline applies to the whole
// response.
func (c *Client) StreamResults(ctx context.Context, id string, since uint64, fn func(ResultEvent) error) error {
	url := fmt.Sprintf("%s/v1/sessions/%s/stream?since=%d", c.base, id, since)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("serve: GET %s: %s (HTTP %d)", url, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("serve: GET %s: HTTP %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var data string
	closing := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: close"):
			closing = true
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "":
			// Blank line terminates one SSE event.
			if closing {
				return nil
			}
			if data != "" {
				var ev ResultEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return fmt.Errorf("serve: decoding stream event: %w", err)
				}
				data = ""
				if err := fn(ev); err != nil {
					return err
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

// Health fetches /healthz.
func (c *Client) Health() (*Health, error) {
	var h Health
	if err := c.do(http.MethodGet, "/healthz", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics() (string, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("serve: GET /metrics: HTTP %d", resp.StatusCode)
	}
	return string(b), nil
}
