package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Server-push result delivery: GET /v1/sessions/{id}/stream emits one
// SSE event per completed inference batch, in journal sequence order.
// A reconnecting client passes ?since=<seq> (the last sequence number
// it saw) and the handler first replays every retained result after
// that watermark from the journal's catch-up ring, then switches to
// live tailing — so a dropped connection resumes gaplessly as long as
// the client reconnects within the ring's retention window.

// ErrJournalDisabled reports a stream request against a session whose
// server runs without the journal (Config.Journal == false).
var ErrJournalDisabled = errors.New("serve: journaling disabled")

// ServeStream streams session id's results over SSE until the session
// closes, the server stops, or the client goes away. It is exported so
// the cluster router can proxy streams to the owning node using the
// node-local session ID.
func (s *Server) ServeStream(w http.ResponseWriter, r *http.Request, id string) {
	sess, ok := s.Session(id)
	if !ok {
		err := fmt.Errorf("%w: %q", ErrNoSession, id)
		WriteError(w, ErrorStatus(err), err)
		return
	}
	j := sess.journal
	if j == nil {
		WriteError(w, ErrorStatus(ErrJournalDisabled), ErrJournalDisabled)
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: bad since %q: %w", v, err))
			return
		}
		since = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, errors.New("serve: streaming unsupported"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	cursor := since
	var buf []ResultEvent
	for {
		// Grab the wake channel before reading so an append between
		// the read and the select still wakes this subscriber, and
		// the closed flag too: a journal closed before the read holds
		// no result the read misses, while one that closes after it
		// may have taken one more append, which the next pass writes.
		wake := j.wait()
		closed := j.isClosed()
		buf = j.resultsSince(cursor, buf[:0])
		for _, ev := range buf {
			if err := writeSSEResult(w, ev); err != nil {
				return
			}
			cursor = ev.Seq
		}
		if len(buf) > 0 {
			fl.Flush()
		}
		if closed {
			io.WriteString(w, "event: close\ndata: {}\n\n")
			fl.Flush()
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.stopped:
			return
		}
	}
}

func writeSSEResult(w io.Writer, ev ResultEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, data)
	return err
}
