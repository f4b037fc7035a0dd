package netcluster

import (
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// serveStreams serves h on a loopback server; cleanup closes the server
// and then sh's streams, which the server's Close leaves open.
func serveStreams(t testing.TB, h http.Handler, sh *ShardHandler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		sh.Close()
	})
	return srv
}

// rawStream is a search stream driven by hand, for envelopes a Client
// would never send.
type rawStream struct {
	t   testing.TB
	rwc io.ReadWriteCloser
}

// dialStream upgrades a connection to the shard at base.
func dialStream(t testing.TB, base string) *rawStream {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+PathSearchStream, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", StreamProtocol)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if !ok || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade answered %d", resp.StatusCode)
	}
	t.Cleanup(func() { rwc.Close() })
	return &rawStream{t: t, rwc: rwc}
}

// sendFrame sends frame in an envelope with no trace context or budget
// and returns the answer's status and body.
func (s *rawStream) sendFrame(frame []byte) (int, []byte) {
	s.t.Helper()
	env := binary.LittleEndian.AppendUint32(nil, uint32(minEnvelopeLen+len(frame)))
	env = append(append(env, make([]byte, minEnvelopeLen)...), frame...)
	return s.send(env)
}

// send writes raw bytes and reads one answer.
func (s *rawStream) send(raw []byte) (int, []byte) {
	s.t.Helper()
	if _, err := s.rwc.Write(raw); err != nil {
		s.t.Fatal(err)
	}
	_, status, body, err := readAnswer(s.rwc, nil)
	if err != nil {
		s.t.Fatalf("reading the answer: %v", err)
	}
	return status, body
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
// sizes result buffers behind the handler, so a shard refuses a k no
// coordinator would send — alone or in a block, before the backend sees
// it — and still serves the largest k it admits.
func TestShardHandlerRejectsOversizedK(t *testing.T) {
	backend := &fakeBackend{matches: rankedMatches(0, 8)}
	h := NewShardHandler(backend, nil, nil, 0)
	st := dialStream(t, serveStreams(t, h, h).URL)
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
		if got, _ := st.sendFrame(single); got != tc.want {
			t.Errorf("single k=%d: status %d, want %d", tc.k, got, tc.want)
		}
		batch := mustFrame(t, [][]float32{testVec, {1, 0, 0}}, []int{3, tc.k})
		if got, _ := st.sendFrame(batch); got != tc.want {
			t.Errorf("batch k=%d: status %d, want %d", tc.k, got, tc.want)
		}
	}
	if calls := backend.calls.Load(); calls != 3 {
		t.Errorf("backend saw %d searches, want 3 (only the admitted requests)", calls)
	}
}

// TestShardHandlerRejectsBadFrames: every header field is checked before
// the body it sizes is read, and a frame whose length disagrees with its
// header is refused — short with 400, long with 413 — without reaching the
// backend. Each refusal leaves the stream in step for the next frame.
func TestShardHandlerRejectsBadFrames(t *testing.T) {
	backend := &fakeBackend{matches: rankedMatches(0, 8)}
	h := NewShardHandler(backend, nil, nil, len(testVec))
	st := dialStream(t, serveStreams(t, h, h).URL)
	ok := mustFrame(t, [][]float32{testVec}, []int{3})
	block := make([][]float32, maxEncodedBatch+1)
	ks := make([]int, len(block))
	for i := range block {
		block[i], ks[i] = testVec, 1
	}
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"empty body", nil, http.StatusBadRequest},
		{"short header", ok[:requestHeaderLen-1], http.StatusBadRequest},
		{"bad version", append([]byte{2}, ok[1:]...), http.StatusBadRequest},
		{"short body", ok[:len(ok)-1], http.StatusBadRequest},
		{"trailing bytes", append(append([]byte{}, ok...), 0), http.StatusRequestEntityTooLarge},
		{"wrong dim", mustFrame(t, [][]float32{{1, 0}}, []int{3}), http.StatusBadRequest},
		{"zero queries", mustFrame(t, nil, nil), http.StatusBadRequest},
		{"batch over the cap", mustFrame(t, block, ks), http.StatusBadRequest},
		{"batch at the cap", mustFrame(t, block[1:], ks[1:]), http.StatusOK},
	} {
		if got, body := st.sendFrame(tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, got, tc.want, body)
		}
	}
	if calls := backend.calls.Load(); calls != maxEncodedBatch {
		t.Errorf("backend saw %d searches, want %d (the admitted batch only)", calls, maxEncodedBatch)
	}
	// Without a dimension to check against, dim is still bounded.
	wide := mustFrame(t, [][]float32{make([]float32, maxFrameDim+1)}, []int{1})
	unchecked := NewShardHandler(backend, nil, nil, 0)
	if got, _ := dialStream(t, serveStreams(t, unchecked, unchecked).URL).sendFrame(wide); got != http.StatusBadRequest {
		t.Errorf("dim %d on an unchecked shard: status %d, want 400", maxFrameDim+1, got)
	}
}
