package httpapi

import (
	"encoding/json"
	"net/http"
	"testing"
)

func TestBatchSearchEndpointCluster(t *testing.T) {
	srv := testClusterServer(t)
	rec, body := do(t, srv, "POST", "/v1/search/batch",
		`{"queries":[{"query":"common","k":5},{"query":"common","k":5},{"query":"val1","k":2}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch=%d %s", rec.Code, body)
	}
	var resp BatchSearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results", len(resp.Results))
	}
	if len(resp.Results[0].Matches) == 0 || len(resp.Results[2].Matches) == 0 {
		t.Fatalf("empty matches: %+v", resp.Results)
	}
	// The duplicate item coalesces onto the first slot.
	if !resp.Results[1].Coalesced {
		t.Errorf("duplicate item not coalesced: %+v", resp.Results[1])
	}
	if len(resp.Results[1].Matches) != len(resp.Results[0].Matches) {
		t.Errorf("coalesced item lost matches: %d vs %d",
			len(resp.Results[1].Matches), len(resp.Results[0].Matches))
	}
}
