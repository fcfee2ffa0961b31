package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// SessionAPI is the session half of the HTTP API, one set of
// operations served alike by a node (evserve) and by the cluster router
// (evcluster): Mount registers the routes, and each route decodes the
// request, calls its operation, answers an error through ErrorStatus
// and encodes the result the same way at both front doors.
//
//	POST   /v1/sessions               Create (201)
//	GET    /v1/sessions               List
//	GET    /v1/sessions/{id}          Get
//	POST   /v1/sessions/{id}/events   Ingest (IngestHandler)
//	GET    /v1/sessions/{id}/stream   Stream (SSE results)
//	POST   /v1/sessions/{id}/close    Close (DELETE /v1/sessions/{id} too)
//	GET    /healthz                   Health
//	GET    /v1/trace                  Trace (404 when nil)
type SessionAPI struct {
	Create func(SessionConfig) (SessionSnapshot, error)
	List   func() []SessionSnapshot
	Get    func(id string) (SessionSnapshot, error)
	Ingest func(id string, c Chunk) (IngestResult, error)
	Stream func(w http.ResponseWriter, r *http.Request, id string)
	Close  func(id string) (SessionSnapshot, error)
	// Health returns the /healthz payload.
	Health func() any
	// Trace writes the Chrome trace-event JSON; nil when tracing is off.
	Trace func(io.Writer) error
}

// errTracingDisabled answers GET /v1/trace, 404, on a front door whose
// tracing is off.
var errTracingDisabled = errors.New("serve: tracing disabled (set Trace.Enabled)")

// Mount registers the session API's routes on mux.
func (a SessionAPI) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/sessions", a.create)
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, a.List())
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		respond(w, http.StatusOK, a.Get, r.PathValue("id"))
	})
	mux.HandleFunc("POST /v1/sessions/{id}/events", IngestHandler(a.Ingest))
	mux.HandleFunc("GET /v1/sessions/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		a.Stream(w, r, r.PathValue("id"))
	})
	closeSession := func(w http.ResponseWriter, r *http.Request) {
		respond(w, http.StatusOK, a.Close, r.PathValue("id"))
	}
	mux.HandleFunc("POST /v1/sessions/{id}/close", closeSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", closeSession)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, a.Health())
	})
	mux.HandleFunc("GET /v1/trace", a.trace)
}

func (a SessionAPI) create(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&cfg); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding session config: %w", err))
		return
	}
	respond(w, http.StatusCreated, a.Create, cfg)
}

func (a SessionAPI) trace(w http.ResponseWriter, r *http.Request) {
	if a.Trace == nil {
		WriteError(w, http.StatusNotFound, errTracingDisabled)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = a.Trace(w)
}

// respond answers op(arg): the snapshot with status, or the error with
// its ErrorStatus.
func respond[A any](w http.ResponseWriter, status int, op func(A) (SessionSnapshot, error), arg A) {
	snap, err := op(arg)
	if err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	WriteJSON(w, status, snap)
}

// WriteJSON answers v as indented JSON with status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError answers err as {"error": ...} with status.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	pw := NewPromWriter()
	s.WriteMetrics(pw, "evserve", "")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(pw.String()))
}
