package netcluster

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// postFrame sends body to one of the handler's routes as a request frame.
func postFrame(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", FrameContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func mustFrame(t *testing.T, qs [][]float32, ks []int) []byte {
	t.Helper()
	b, err := appendRequest(nil, qs, ks)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardHandlerRejectsOversizedK: k arrives from outside the process and
// sizes result buffers behind the handler, so both encoded routes refuse a
// k no coordinator would send — before the backend sees it — and still
// serve the largest k they admit.
func TestShardHandlerRejectsOversizedK(t *testing.T) {
	backend := &fakeBackend{matches: rankedMatches(0, 8)}
	h := NewShardHandler(backend, nil, 0)
	for _, tc := range []struct {
		k    int
		want int
	}{
		{maxEncodedK, http.StatusOK},
		{maxEncodedK + 1, http.StatusBadRequest},
		{math.MaxUint32, http.StatusBadRequest},
		{0, http.StatusBadRequest},
	} {
		single := mustFrame(t, [][]float32{testVec}, []int{tc.k})
		if got := postFrame(h, PathEncodedSearch, single).Code; got != tc.want {
			t.Errorf("%s k=%d: status %d, want %d", PathEncodedSearch, tc.k, got, tc.want)
		}
		batch := mustFrame(t, [][]float32{testVec, {1, 0, 0}}, []int{3, tc.k})
		if got := postFrame(h, PathEncodedSearchBatch, batch).Code; got != tc.want {
			t.Errorf("%s k=%d: status %d, want %d", PathEncodedSearchBatch, tc.k, got, tc.want)
		}
	}
	if calls := backend.calls.Load(); calls != 3 {
		t.Errorf("backend saw %d searches, want 3 (only the admitted requests)", calls)
	}
}

// TestShardHandlerRejectsBadFrames: every header field is checked before
// the body it sizes is read, and a body whose length disagrees with its
// header is refused — short with 400, long with 413 — without reaching the
// backend.
func TestShardHandlerRejectsBadFrames(t *testing.T) {
	backend := &fakeBackend{matches: rankedMatches(0, 8)}
	h := NewShardHandler(backend, nil, len(testVec))
	ok := mustFrame(t, [][]float32{testVec}, []int{3})
	block := make([][]float32, maxEncodedBatch+1)
	ks := make([]int, len(block))
	for i := range block {
		block[i], ks[i] = testVec, 1
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
		want       int
	}{
		{"empty body", PathEncodedSearch, nil, http.StatusBadRequest},
		{"short header", PathEncodedSearch, ok[:requestHeaderLen-1], http.StatusBadRequest},
		{"bad version", PathEncodedSearch, append([]byte{2}, ok[1:]...), http.StatusBadRequest},
		{"short body", PathEncodedSearch, ok[:len(ok)-1], http.StatusBadRequest},
		{"trailing bytes", PathEncodedSearch, append(append([]byte{}, ok...), 0), http.StatusRequestEntityTooLarge},
		{"wrong dim", PathEncodedSearch, mustFrame(t, [][]float32{{1, 0}}, []int{3}), http.StatusBadRequest},
		{"zero queries", PathEncodedSearchBatch, mustFrame(t, nil, nil), http.StatusBadRequest},
		{"two on the single route", PathEncodedSearch, mustFrame(t, [][]float32{testVec, testVec}, []int{1, 1}), http.StatusBadRequest},
		{"batch over the cap", PathEncodedSearchBatch, mustFrame(t, block, ks), http.StatusBadRequest},
		{"batch at the cap", PathEncodedSearchBatch, mustFrame(t, block[1:], ks[1:]), http.StatusOK},
	} {
		if got := postFrame(h, tc.path, tc.body); got.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, got.Code, tc.want, got.Body)
		}
	}
	if calls := backend.calls.Load(); calls != maxEncodedBatch {
		t.Errorf("backend saw %d searches, want %d (the admitted batch only)", calls, maxEncodedBatch)
	}
	// Without a dimension to check against, dim is still bounded.
	wide := mustFrame(t, [][]float32{make([]float32, maxFrameDim+1)}, []int{1})
	if got := postFrame(NewShardHandler(backend, nil, 0), PathEncodedSearch, wide).Code; got != http.StatusBadRequest {
		t.Errorf("dim %d on an unchecked shard: status %d, want 400", maxFrameDim+1, got)
	}
}
