package serve

import (
	"errors"
	"fmt"
	"testing"

	"evedge/internal/events"
)

// TestErrorStatus walks the table with errors wrapped the way callers
// wrap them; the handlers' use of it is pinned end to end by the
// cluster package's TestSessionAPIStatusParity.
func TestErrorStatus(t *testing.T) {
	for _, row := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("%w: %q", ErrNoSession, "s9"), 404},
		{fmt.Errorf("chunk: %w", events.ErrGeometry), 400},
		{events.ErrPolarity, 400},
		{events.ErrOrder, 400},
		{events.ErrNoGeometry, 400},
		{fmt.Errorf("%w: 5000x5000", ErrChunkTooLarge), 400},
		{ErrDraining, 503},
		{ErrServerClosed, 503},
		{fmt.Errorf("%w to place session %q", Unavailable("cluster: no alive nodes"), "c1"), 503},
		{ErrJournalDisabled, 409},
		{errors.New("rebalance failed"), 409}, // what a failed close returns
	} {
		if got := ErrorStatus(row.err); got != row.want {
			t.Errorf("ErrorStatus(%v) = %d, want %d", row.err, got, row.want)
		}
	}
	if errors.Is(ErrDraining, ErrServerClosed) {
		t.Error("ErrDraining and ErrServerClosed match each other")
	}
}
