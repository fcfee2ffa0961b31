package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"

	"evedge/internal/serve"
)

// Handler returns the router's HTTP handler. It speaks the exact
// session API of a single serve node (so serve.Client and evload work
// unchanged) plus fleet-admin endpoints:
//
//	POST   /v1/sessions               create (placed by policy)
//	GET    /v1/sessions[/{id}]        fleet-wide session listing/state
//	POST   /v1/sessions/{id}/events   ingest (serve.IngestHandler)
//	GET    /v1/sessions/{id}/stream   proxied SSE result stream
//	POST   /v1/sessions/{id}/close    proxied close (DELETE too)
//	GET    /healthz                   fleet + per-node health
//	GET    /metrics                   fleet + per-node Prometheus text
//	GET    /v1/nodes                  node health list
//	POST   /v1/nodes/{name}/kill      simulate a node failure
//	POST   /v1/nodes/{name}/drain     graceful drain + migration
//	POST   /v1/nodes/{name}/revive    restart a killed node (fresh server)
//	POST   /v1/nodes/{name}/undrain   return a draining node to service
func (c *Cluster) Handler() http.Handler {
	c.muxOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/sessions", c.handleCreate)
		mux.HandleFunc("GET /v1/sessions", c.handleList)
		mux.HandleFunc("GET /v1/sessions/{id}", c.handleGet)
		mux.HandleFunc("POST /v1/sessions/{id}/events", serve.IngestHandler(c.Ingest))
		mux.HandleFunc("GET /v1/sessions/{id}/stream", c.handleStream)
		mux.HandleFunc("POST /v1/sessions/{id}/close", c.handleClose)
		mux.HandleFunc("DELETE /v1/sessions/{id}", c.handleClose)
		mux.HandleFunc("GET /healthz", c.handleHealth)
		mux.HandleFunc("GET /metrics", c.handleMetrics)
		mux.HandleFunc("GET /v1/trace", c.handleTrace)
		mux.HandleFunc("GET /v1/nodes", c.handleNodes)
		mux.HandleFunc("POST /v1/nodes/{name}/kill", c.handleKill)
		mux.HandleFunc("POST /v1/nodes/{name}/drain", c.handleDrain)
		mux.HandleFunc("POST /v1/nodes/{name}/revive", c.handleRevive)
		mux.HandleFunc("POST /v1/nodes/{name}/undrain", c.handleUndrain)
		c.mux = mux
	})
	return c.mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (c *Cluster) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg serve.SessionConfig
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&cfg); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding session config: %w", err))
		return
	}
	snap, err := c.CreateSession(cfg)
	if err != nil {
		writeError(w, serve.ErrorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, snap)
}

func (c *Cluster) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Snapshots())
}

func (c *Cluster) handleGet(w http.ResponseWriter, r *http.Request) {
	snap, err := c.Snapshot(r.PathValue("id"))
	if err != nil {
		writeError(w, serve.ErrorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleStream proxies the SSE result stream to the session's current
// owner. A failover mid-stream drops the connection; the client
// reconnects with since=<last seq> and the resumed session's journal
// (re-seeded from the replicated log) serves the catch-up.
func (c *Cluster) handleStream(w http.ResponseWriter, r *http.Request) {
	_, rt, err := c.route(r.PathValue("id"))
	if err != nil {
		writeError(w, serve.ErrorStatus(err), err)
		return
	}
	rt.srv.ServeStream(w, r, rt.localID)
}

func (c *Cluster) handleClose(w http.ResponseWriter, r *http.Request) {
	snap, err := c.CloseSession(r.PathValue("id"))
	if err != nil {
		writeError(w, serve.ErrorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (c *Cluster) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Health())
}

// handleTrace serves the fleet's merged Chrome trace: every node
// incarnation's lifecycle lanes plus the router's fleet track, one
// process group per node.
func (c *Cluster) handleTrace(w http.ResponseWriter, r *http.Request) {
	if c.tracer == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: tracing disabled (set Node.Trace.Enabled)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = c.WriteTrace(w)
}

func (c *Cluster) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Health().Nodes)
}

func (c *Cluster) handleKill(w http.ResponseWriter, r *http.Request) {
	if err := c.KillNode(r.PathValue("name")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	// Fail the sessions over right away rather than waiting one probe
	// interval — the admin asked for the failure, make it observable.
	c.ProbeNow()
	writeJSON(w, http.StatusOK, c.Health())
}

func (c *Cluster) handleDrain(w http.ResponseWriter, r *http.Request) {
	if err := c.DrainNode(r.PathValue("name")); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Health())
}

func (c *Cluster) handleRevive(w http.ResponseWriter, r *http.Request) {
	if err := c.ReviveNode(r.PathValue("name")); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Health())
}

func (c *Cluster) handleUndrain(w http.ResponseWriter, r *http.Request) {
	if err := c.UndrainNode(r.PathValue("name")); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Health())
}
