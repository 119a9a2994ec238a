package httpd

import (
	"errors"
	"testing"

	"repro/internal/submit"
)

// TestRespondAsyncClosedQueue pins a regression sdradlint's errclass
// analyzer surfaced: a request admitted to the submission queues but
// resolved by Close (so the drain loop never filled its response) was
// answered with a zero-value Response — status 0, no error — instead of
// a 503 carrying the typed ErrClosed.
func TestRespondAsyncClosedQueue(t *testing.T) {
	resp := respondAsync(&asyncReq{}, submit.Resolved(submit.ErrClosed))
	if !errors.Is(resp.Err, submit.ErrClosed) {
		t.Fatalf("closed-queue response carries err %v, want submit.ErrClosed", resp.Err)
	}
	if resp.Status != 503 {
		t.Fatalf("closed-queue response has status %d, want 503", resp.Status)
	}
}
