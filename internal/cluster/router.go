package cluster

import (
	"net/http"

	"evedge/internal/serve"
)

// Handler returns the router's HTTP handler. It mounts the session API
// of a single serve node (serve.SessionAPI, so serve.Client and evload
// work unchanged) over the fleet's session operations, plus fleet
// metrics and admin endpoints:
//
//	GET    /metrics                   fleet + per-node Prometheus text
//	GET    /v1/nodes                  node health list
//	POST   /v1/nodes/{name}/kill      simulate a node failure
//	POST   /v1/nodes/{name}/drain     graceful drain + migration
//	POST   /v1/nodes/{name}/revive    restart a killed node (fresh server)
//	POST   /v1/nodes/{name}/undrain   return a draining node to service
func (c *Cluster) Handler() http.Handler {
	c.muxOnce.Do(func() {
		api := serve.SessionAPI{
			Create: c.CreateSession,
			List:   c.Snapshots,
			Get:    c.Snapshot,
			Ingest: c.Ingest,
			Stream: c.stream,
			Close:  c.CloseSession,
			Health: func() any { return c.Health() },
		}
		if c.tracer != nil {
			api.Trace = c.WriteTrace
		}
		mux := http.NewServeMux()
		api.Mount(mux)
		mux.HandleFunc("GET /metrics", c.handleMetrics)
		mux.HandleFunc("GET /v1/nodes", c.handleNodes)
		mux.HandleFunc("POST /v1/nodes/{name}/kill", c.handleKill)
		mux.HandleFunc("POST /v1/nodes/{name}/drain", c.handleDrain)
		mux.HandleFunc("POST /v1/nodes/{name}/revive", c.handleRevive)
		mux.HandleFunc("POST /v1/nodes/{name}/undrain", c.handleUndrain)
		c.mux = mux
	})
	return c.mux
}

// stream proxies the SSE result stream to the session's current owner.
// A failover mid-stream drops the connection; the client reconnects
// with since=<last seq> and the resumed session's journal (re-seeded
// from the replicated log) serves the catch-up.
func (c *Cluster) stream(w http.ResponseWriter, r *http.Request, extID string) {
	_, rt, err := c.route(extID)
	if err != nil {
		serve.WriteError(w, serve.ErrorStatus(err), err)
		return
	}
	rt.srv.ServeStream(w, r, rt.localID)
}

func (c *Cluster) handleNodes(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.Health().Nodes)
}

func (c *Cluster) handleKill(w http.ResponseWriter, r *http.Request) {
	if err := c.KillNode(r.PathValue("name")); err != nil {
		serve.WriteError(w, http.StatusNotFound, err)
		return
	}
	// Fail the sessions over right away rather than waiting one probe
	// interval — the admin asked for the failure, make it observable.
	c.ProbeNow()
	serve.WriteJSON(w, http.StatusOK, c.Health())
}

func (c *Cluster) handleDrain(w http.ResponseWriter, r *http.Request) {
	if err := c.DrainNode(r.PathValue("name")); err != nil {
		serve.WriteError(w, http.StatusConflict, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, c.Health())
}

func (c *Cluster) handleRevive(w http.ResponseWriter, r *http.Request) {
	if err := c.ReviveNode(r.PathValue("name")); err != nil {
		serve.WriteError(w, http.StatusConflict, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, c.Health())
}

func (c *Cluster) handleUndrain(w http.ResponseWriter, r *http.Request) {
	if err := c.UndrainNode(r.PathValue("name")); err != nil {
		serve.WriteError(w, http.StatusConflict, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, c.Health())
}
