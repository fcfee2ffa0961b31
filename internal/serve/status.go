package serve

import (
	"errors"
	"net/http"

	"evedge/internal/events"
)

// unavailable is a refusal that is about the node or the fleet, not
// the request: the same call can succeed later or elsewhere.
type unavailable struct{ msg string }

func (e *unavailable) Error() string { return e.msg }

// Unavailable returns a sentinel error reading msg that ErrorStatus
// classifies as 503 — how ErrDraining, ErrServerClosed and the
// cluster's "no alive nodes" share one row of the status table.
func Unavailable(msg string) error { return &unavailable{msg} }

// ErrorStatus is the one error → HTTP status table of the session API,
// used by every session handler of a node and of the cluster router:
//
//	404  unknown session (ErrNoSession)
//	400  a chunk with no sensor geometry, an event outside it, with no
//	     legal polarity or out of time order (the events sentinels
//	     ingest's per-event check wraps), or over ingest's work bounds
//	503  the node or fleet cannot take the work now (Unavailable)
//	409  everything else: the request is understood but the session's
//	     state refuses it (a chunk before the watermark, a disabled
//	     journal, a configuration the node cannot build)
//
// A body that does not decode at all — bad EVAR magic or version, a
// truncated record, a header count that does not match — never reaches
// an error from the session layer; handlers answer it 400 themselves,
// or 413 when it runs past MaxBodyBytes, before they look the session
// up.
func ErrorStatus(err error) int {
	var u *unavailable
	switch {
	case errors.Is(err, ErrNoSession):
		return http.StatusNotFound
	case errors.Is(err, events.ErrGeometry), errors.Is(err, events.ErrPolarity),
		errors.Is(err, events.ErrOrder), errors.Is(err, events.ErrNoGeometry),
		errors.Is(err, ErrChunkTooLarge):
		return http.StatusBadRequest
	case errors.As(err, &u):
		return http.StatusServiceUnavailable
	}
	return http.StatusConflict
}
