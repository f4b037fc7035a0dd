package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"testing"
	"testing/iotest"

	"semdisco"
)

// encodingJSON is the reference the append encoders are held to: what
// writeJSON writes for v, or ok false when encoding/json refuses v.
func encodingJSON(v any) (_ []byte, ok bool) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// Strings that encoding/json escapes: HTML characters, every kind of
// control character, U+2028/U+2029 and invalid UTF-8.
var fuzzStrings = []string{
	"", "rel-001", "<script>&amp;</script>", "a\"b\\c", "\x00\x01\x1f\x7f",
	"\b\f\n\r\t", "line\u2028sep\u2029", "\xff\xfe", "caf\xc3", "\u65e5\u672c\u8a9e", "\ufffd",
}

// Scores at every formatting boundary of encoding/json's float32 path.
var fuzzScores = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 9.99e-7,
	math.SmallestNonzeroFloat32, math.Float32frombits(0x00000123), 9.99e20, 1e21, -1e21,
	math.MaxFloat32, 0.1, 123456789, float32(math.Inf(1)), float32(math.NaN()),
}

// FuzzSearchResponse holds appendSearchResponse to json.NewEncoder(w).Encode
// byte for byte, and to its refusal of a NaN or infinite score.
func FuzzSearchResponse(f *testing.F) {
	for i, s := range fuzzStrings {
		f.Add(s, fuzzStrings[(i+3)%len(fuzzStrings)], fuzzScores[i%len(fuzzScores)], fuzzScores[(i+7)%len(fuzzScores)],
			uint8(i), int64(i*1000), int64(-i), s)
	}
	for i, sc := range fuzzScores {
		f.Add("r", "s", sc, -sc, uint8(i*37), int64(0), int64(math.MaxInt64), "")
	}
	f.Fuzz(func(t *testing.T, id1, id2 string, s1, s2 float32, shape uint8, c1, c2 int64, extra string) {
		resp := SearchResponse{TraceID: extra, Degraded: shape&1 != 0}
		switch n := shape >> 1 & 3; n {
		case 0:
			if shape&8 != 0 {
				resp.Matches = []MatchJSON{}
			}
		default:
			for j := 0; j < int(n); j++ {
				resp.Matches = append(resp.Matches, MatchJSON{RelationID: id1, Score: s1}, MatchJSON{RelationID: id2, Score: s2})
			}
		}
		if shape&16 != 0 {
			resp.ShardErrors = []string{id2, extra}
		} else if shape&32 != 0 {
			resp.ShardErrors = []string{}
		}
		if shape&64 != 0 {
			resp.Cost = fuzzCost(c1, c2, shape)
		}
		got, gotOK := appendSearchResponse(nil, &resp)
		want, wantOK := encodingJSON(resp)
		if gotOK != wantOK || (wantOK && !bytes.Equal(got, want)) {
			t.Fatalf("appendSearchResponse = %q (ok %v)\nencoding/json      = %q (ok %v)", got, gotOK, want, wantOK)
		}
	})
}

// fuzzCost spreads two values over a CostReport's fields, some left zero
// so the omitempty ones are both written and dropped.
func fuzzCost(c1, c2 int64, shape uint8) *semdisco.CostReport {
	c := &semdisco.CostReport{DistanceComps: c1}
	fields := []*int64{&c.HNSWHops, &c.PQLookups, &c.ValuesScanned, &c.BytesScanned,
		&c.CandidatesGenerated, &c.CandidatesPruned, &c.CacheHits}
	for i, p := range fields {
		if (int(shape)+i)%3 != 0 {
			*p = c2 + int64(i)
		}
	}
	return c
}

// FuzzBatchResponse is FuzzSearchResponse for appendBatchResponse.
func FuzzBatchResponse(f *testing.F) {
	for i, s := range fuzzStrings {
		f.Add(s, fuzzScores[i%len(fuzzScores)], fuzzScores[(i+5)%len(fuzzScores)], uint8(i*29), int64(i), int64(i*i), fuzzStrings[(i+1)%len(fuzzStrings)])
	}
	f.Fuzz(func(t *testing.T, id string, s1, s2 float32, shape uint8, c1, c2 int64, shardErr string) {
		var resp BatchSearchResponse
		if shape&1 != 0 {
			resp.Results = []BatchItemJSON{}
		}
		for j := 0; j < int(shape>>1&3); j++ {
			item := BatchItemJSON{Degraded: (int(shape)+j)&4 != 0}
			if (int(shape)+j)&8 != 0 {
				item.Matches = []MatchJSON{{RelationID: id, Score: s1}, {RelationID: shardErr, Score: s2}}
			} else if j == 1 {
				item.Matches = []MatchJSON{}
			}
			if (int(shape)+j)&16 != 0 {
				item.Cost = fuzzCost(c1, c2, shape+uint8(j))
			}
			if (int(shape)+j)&32 != 0 {
				item.ShardErrors = []string{shardErr}
			}
			resp.Results = append(resp.Results, item)
		}
		got, gotOK := appendBatchResponse(nil, &resp)
		want, wantOK := encodingJSON(resp)
		if gotOK != wantOK || (wantOK && !bytes.Equal(got, want)) {
			t.Fatalf("appendBatchResponse = %q (ok %v)\nencoding/json     = %q (ok %v)", got, gotOK, want, wantOK)
		}
	})
}

// FuzzSearchRequest holds the one-pass request decoders to what the
// handlers decoded with before them,
// json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode: the same
// accept or reject, the same fields, the same error — so the same 400 or
// 413 body — for a body under, at and over the limit, and for a body
// whose reader fails part way.
func FuzzSearchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"query":"covid vaccines","k":10}`,
		`{"query":"x","k":5} trailing`,
		`{"query":"x"}{"query":"y"}`,
		`  {"query":"x","sources":["WHO","ECDC"]}`,
		`{"sources":[],"query":"x"}`,
		`{"Query":"mixed","K":3}`,
		`{"query":"a","query":"b","k":1,"k":2}`,
		`{"query":null,"k":null,"sources":null}`,
		`null`, `[]`, `""`, `12`, ``, `{`, `{"query":"x",}`,
		`{"query":"escé\n\"q\""}`,
		`{"query":"x","k":1e2}`, `{"query":"x","k":10.5}`, `{"query":"x","k":-0}`,
		`{"query":"x","k":99999999999999999999}`, `{"query":"x","k":999999999999999999}`,
		`{"query":"x","k":01}`, `{"query":"x","k":"10"}`, `{"query":"x","k":-}`,
		"{\"query\":\"bad\xffutf8\"}", "{\"query\":\"ctl\x01\"}", "{\"query\":\"\u2028\u2029\"}",
		`{"query":"x","trace":true}`, `{"query":"x","extra":{"a":[1,2]}}`,
		`{"queries":[{"query":"a","k":3},{"query":"b"}]}`,
		`{"queries":[]}`, `{"queries":null}`, `{"queries":[null]}`, `{"queries":[{"query":"a"}],"queries":[{"k":1}]}`,
		`{"queries":[{"query":"a","k":2,"query":"c"}]} x`, `{"queries":[{"QUERY":"a"}]}`, `{"queries":[1]}`,
	} {
		f.Add([]byte(seed), uint16(0), false)
		f.Add([]byte(seed), uint16(len(seed)/2), false)
		f.Add([]byte(seed), uint16(len(seed)/2), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, cut uint16, failRead bool) {
		// cut 0 keeps the handlers' 16 MiB limit. Otherwise the limit is
		// cut bytes, or with failRead the body fails after cut bytes.
		limit := int64(maxBodyBytes)
		if cut > 0 && !failRead {
			limit = int64(cut)
		}
		reader := func() io.Reader {
			if failRead && int(cut) <= len(body) {
				return io.MultiReader(bytes.NewReader(body[:cut]), iotest.ErrReader(errors.New("connection reset")))
			}
			return bytes.NewReader(body)
		}
		oldDecode := func(v any) error {
			return json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(reader()), limit)).Decode(v)
		}

		var want SearchRequest
		wantErr := oldDecode(&want)
		got, gotErr := readSearchRequest(reader(), limit)
		sameDecode(t, "search", got, gotErr, want, wantErr)

		var wantBatch BatchSearchRequest
		wantErr = oldDecode(&wantBatch)
		gotBatch, gotErr := readBatchRequest(reader(), limit)
		sameDecode(t, "batch", gotBatch, gotErr, wantBatch, wantErr)
	})
}

// sameDecode fails unless a decode matches the reference: both accept
// with equal values, or both reject with the same status and message.
func sameDecode(t *testing.T, what string, got any, gotErr error, want any, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if wantErr != nil {
		g, w := fmt.Sprintf("bad body: %v", gotErr), fmt.Sprintf("bad body: %v", wantErr)
		if g != w || decodeError(gotErr) != decodeError(wantErr) {
			t.Fatalf("%s: %d %q, reference %d %q", what, decodeError(gotErr), g, decodeError(wantErr), w)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %#v, reference %#v", what, got, want)
	}
}

// TestRequestDecodeLimit pins the 413 boundary: a body of exactly the
// limit decodes, one byte more is too large unless the object ended
// within the limit, as with http.MaxBytesReader under json.Decoder.
func TestRequestDecodeLimit(t *testing.T) {
	body := []byte(`{"query":"abc","k":3}`)
	n := int64(len(body))
	if req, err := readSearchRequest(bytes.NewReader(body), n); err != nil || req.Query != "abc" || req.K != 3 {
		t.Fatalf("body at the limit: %+v, %v", req, err)
	}
	if _, err := readSearchRequest(bytes.NewReader(body), n-1); decodeError(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over: %v, want 413", err)
	}
	padded := append(append([]byte(nil), body...), bytes.Repeat([]byte(" "), 64)...)
	if req, err := readSearchRequest(bytes.NewReader(padded), n+8); err != nil || req.Query != "abc" {
		t.Fatalf("object within the limit, padding past it: %+v, %v", req, err)
	}
}
