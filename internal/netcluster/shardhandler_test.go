package netcluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestShardHandlerRejectsOversizedK: k arrives from outside the process and
// sizes result buffers behind the handler, so both encoded routes refuse a
// k no coordinator would send — before the backend sees it — and still
// serve the largest k they admit.
func TestShardHandlerRejectsOversizedK(t *testing.T) {
	backend := &fakeBackend{matches: rankedMatches(0, 8)}
	h := NewShardHandler(backend, nil, 0)
	post := func(path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code
	}
	for _, tc := range []struct {
		k    int
		want int
	}{
		{maxEncodedK, http.StatusOK},
		{maxEncodedK + 1, http.StatusBadRequest},
		{1 << 40, http.StatusBadRequest},
	} {
		if got := post(PathEncodedSearch, fmt.Sprintf(`{"vector":[0.25,-0.5,1],"k":%d}`, tc.k)); got != tc.want {
			t.Errorf("%s k=%d: status %d, want %d", PathEncodedSearch, tc.k, got, tc.want)
		}
		if got := post(PathEncodedSearchBatch, fmt.Sprintf(`{"vectors":[[0.25,-0.5,1],[1,0,0]],"ks":[3,%d]}`, tc.k)); got != tc.want {
			t.Errorf("%s k=%d: status %d, want %d", PathEncodedSearchBatch, tc.k, got, tc.want)
		}
	}
	if calls := backend.calls.Load(); calls != 3 {
		t.Errorf("backend saw %d searches, want 3 (only the admitted requests)", calls)
	}
}
