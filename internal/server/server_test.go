package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"subtraj/internal/traj"
)

func newTestServer(t testing.TB) (*Server, *httptest.Server, []traj.Symbol) {
	t.Helper()
	safe, w := newTestEngine(t)
	srv := New(safe, Config{CacheSize: 16, MaxConcurrent: 4, MaxBatch: 8, MaxK: 10,
		MaxSymbol: int32(w.Graph.NumVertices())})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, sampleQuery(t, w.Data, 6, 3)
}

func post(t testing.TB, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func getJSON(t testing.TB, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointsSuccess(t *testing.T) {
	_, ts, q := newTestServer(t)

	// The query was sampled from the dataset, so every endpoint finds at
	// least its source trajectory.
	for _, tc := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/search", map[string]any{"q": q, "tau_ratio": 0.2}},
		{"/v1/topk", map[string]any{"q": q, "k": 3}},
		{"/v1/temporal", map[string]any{"q": q, "tau_ratio": 0.2, "lo": 0.0, "hi": 1e12}},
		{"/v1/temporal", map[string]any{"q": q, "tau_ratio": 0.2, "lo": 0.0, "hi": 1e12, "mode": "departure"}},
		{"/v1/exact", map[string]any{"q": q}},
		{"/v1/count", map[string]any{"q": q}},
	} {
		resp, out := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %v: status %d, body %v", tc.path, tc.body, resp.StatusCode, out)
		}
		var count int
		if err := json.Unmarshal(out["count"], &count); err != nil {
			t.Fatalf("POST %s: bad count: %v", tc.path, err)
		}
		if count < 1 {
			t.Errorf("POST %s: count = %d, want >= 1", tc.path, count)
		}
	}

	var health map[string]any
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, q := newTestServer(t)
	for _, tc := range []struct {
		path string
		body map[string]any
		want int
	}{
		{"/v1/search", map[string]any{"q": []int{}, "tau": 1.0}, 400},
		{"/v1/search", map[string]any{"q": q}, 400},                                // no tau
		{"/v1/search", map[string]any{"q": q, "tau": 1.0, "tau_ratio": 0.1}, 400},  // both
		{"/v1/search", map[string]any{"q": q, "tau_ratio": 2.0}, 400},              // ratio > 1
		{"/v1/search", map[string]any{"q": q, "tau": 3.0, "tau_ratio": -0.5}, 400}, // negative ratio
		{"/v1/search", map[string]any{"q": q, "tau": -2.0, "tau_ratio": 0.1}, 400}, // negative tau
		{"/v1/search", map[string]any{"q": q, "tau": 1e18}, 400},                   // τ ≥ wed(ε, Q)
		{"/v1/search", map[string]any{"q": q, "tau": 1.0, "bogus": true}, 400},     // unknown field
		{"/v1/topk", map[string]any{"q": q, "k": 0}, 400},
		{"/v1/topk", map[string]any{"q": q, "k": 9999}, 400},                              // k > MaxK
		{"/v1/temporal", map[string]any{"q": q, "tau_ratio": 0.2, "lo": 5, "hi": 1}, 400}, // empty window
		{"/v1/temporal", map[string]any{"q": q, "tau_ratio": 0.2, "mode": "sideways"}, 400},
		{"/v1/search", map[string]any{"q": []int{-1, 2}, "tau": 1.0}, 400},  // negative symbol
		{"/v1/search", map[string]any{"q": []int{999999}, "tau": 1.0}, 400}, // out of alphabet
		{"/v1/append", map[string]any{"path": []int{}}, 400},
		{"/v1/append", map[string]any{"path": []int{999999}}, 400},                         // out of alphabet
		{"/v1/append", map[string]any{"path": []int{1, 2}, "times": []float64{0}}, 400},    // wrong times len
		{"/v1/append", map[string]any{"path": []int{1, 2}, "times": []float64{5, 1}}, 400}, // decreasing
		{"/v1/batch", map[string]any{"queries": []any{}}, 400},
	} {
		resp, out := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s %v: status %d, want %d (body %v)", tc.path, tc.body, resp.StatusCode, tc.want, out)
		}
		if _, ok := out["error"]; !ok {
			t.Errorf("POST %s: error responses must carry an error field, got %v", tc.path, out)
		}
	}

	// Raw malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/search: status %d, want 405", resp.StatusCode)
	}
}

// TestTrailingBodyRejected: a request body is one JSON value. Anything
// after it but whitespace answers 400 and applies nothing — a second
// trajectory in an append body is not silently dropped — while the
// trailing newline json.Encoder and curl -d @file send is accepted.
func TestTrailingBodyRejected(t *testing.T) {
	srv, ts, q := newTestServer(t)
	qj, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	search := fmt.Sprintf(`{"q":%s,"tau_ratio":0.2}`, qj)
	batch := fmt.Sprintf(`{"queries":[{"kind":"count","q":%s}]}`, qj)
	gen := srv.Engine().Generation()
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/search", search + `{"q":[`, 400},
		{"/v1/search", search + " 1", 400},
		{"/v1/append", `{"path":[1,2]} {"path":[3]}`, 400},
		{"/v1/batch", batch + "}", 400},
		{"/v1/search", search + "\n", 200},
		{"/v1/batch", batch + " \r\n", 200},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s %q: status %d, want %d", tc.path, tc.body, resp.StatusCode, tc.want)
		}
	}
	if got := srv.Engine().Generation(); got != gen {
		t.Fatalf("generation moved %d -> %d on a refused append", gen, got)
	}
	resp, err := http.Post(ts.URL+"/v1/append", "application/json", strings.NewReader(`{"path":[1,2]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || srv.Engine().Generation() != gen+1 {
		t.Fatalf("append with a trailing newline: status %d, generation %d, want 200 and %d",
			resp.StatusCode, srv.Engine().Generation(), gen+1)
	}
}

// TestCacheHitAndInvalidation is the acceptance path: a repeated query is
// served from the LRU (observable via /v1/stats), and an append
// invalidates it.
func TestCacheHitAndInvalidation(t *testing.T) {
	_, ts, q := newTestServer(t)
	body := map[string]any{"q": q, "tau_ratio": 0.2}

	var cached bool
	run := func() (bool, int) {
		resp, out := post(t, ts.URL+"/v1/search", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search: status %d", resp.StatusCode)
		}
		var count int
		json.Unmarshal(out["count"], &count)
		json.Unmarshal(out["cached"], &cached)
		return cached, count
	}

	c1, n1 := run()
	if c1 {
		t.Fatal("first query must miss the cache")
	}
	c2, n2 := run()
	if !c2 {
		t.Fatal("identical repeated query must hit the cache")
	}
	if n1 != n2 {
		t.Fatalf("cached count %d != fresh count %d", n2, n1)
	}

	var st StatsSnapshot
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Cache.Hits < 1 {
		t.Errorf("stats cache hits = %d, want >= 1", st.Cache.Hits)
	}

	// Append invalidates: same query misses again and may see more matches.
	resp, _ := post(t, ts.URL+"/v1/append", map[string]any{"path": q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d", resp.StatusCode)
	}
	c3, n3 := run()
	if c3 {
		t.Fatal("query after append must not be served from the stale cache")
	}
	if n3 < n1+1 {
		t.Errorf("after appending the query itself, count = %d, want >= %d", n3, n1+1)
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Cache.Invalidations < 1 {
		t.Errorf("stats cache invalidations = %d, want >= 1", st.Cache.Invalidations)
	}
	if st.Engine.Generation != 1 {
		t.Errorf("engine generation = %d, want 1", st.Engine.Generation)
	}
	// The τ-banded verification counters flow through to /v1/stats.
	if st.Totals.StepDPCalls > 0 {
		if st.Totals.CellsAvailable <= 0 || st.Totals.CellsComputed <= 0 ||
			st.Totals.CellsComputed > st.Totals.CellsAvailable {
			t.Errorf("band cell counters inconsistent: computed=%d available=%d",
				st.Totals.CellsComputed, st.Totals.CellsAvailable)
		}
		if st.Totals.BandRatio <= 0 || st.Totals.BandRatio > 1 {
			t.Errorf("band ratio out of range: %v", st.Totals.BandRatio)
		}
	}
}

func TestBatch(t *testing.T) {
	_, ts, q := newTestServer(t)
	batch := map[string]any{"queries": []map[string]any{
		{"kind": "search", "q": q, "tau_ratio": 0.2},
		{"kind": "count", "q": q},
		{"kind": "topk", "q": q, "k": 2},
		{"kind": "search", "q": q}, // invalid: no tau — must fail alone
	}}
	resp, out := post(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, body %v", resp.StatusCode, out)
	}
	var results []struct {
		Count  int    `json:"count"`
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i := 0; i < 3; i++ {
		if results[i].Error != "" {
			t.Errorf("result %d: unexpected error %q", i, results[i].Error)
		}
		if results[i].Count < 1 {
			t.Errorf("result %d: count = %d, want >= 1", i, results[i].Count)
		}
	}
	if results[3].Error == "" {
		t.Error("result 3 (no tau) should have failed")
	}

	// Oversized batch is rejected outright.
	big := make([]map[string]any, 9)
	for i := range big {
		big[i] = map[string]any{"kind": "count", "q": q}
	}
	resp, _ = post(t, ts.URL+"/v1/batch", map[string]any{"queries": big})
	if resp.StatusCode != 400 {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentHTTP hammers the HTTP layer itself (run under -race):
// mixed search/append/batch/stats traffic against one server.
func TestConcurrentHTTP(t *testing.T) {
	_, ts, q := newTestServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				switch (g + i) % 4 {
				case 0:
					resp, _ := post(t, ts.URL+"/v1/search", map[string]any{"q": q, "tau_ratio": 0.2})
					if resp.StatusCode != 200 {
						t.Errorf("search: %d", resp.StatusCode)
					}
				case 1:
					resp, _ := post(t, ts.URL+"/v1/append", map[string]any{"path": q})
					if resp.StatusCode != 200 {
						t.Errorf("append: %d", resp.StatusCode)
					}
				case 2:
					resp, _ := post(t, ts.URL+"/v1/batch", map[string]any{"queries": []map[string]any{
						{"kind": "count", "q": q}, {"kind": "exact", "q": q},
					}})
					if resp.StatusCode != 200 {
						t.Errorf("batch: %d", resp.StatusCode)
					}
				case 3:
					var st StatsSnapshot
					getJSON(t, ts.URL+"/v1/stats", &st)
				}
			}
		}(g)
	}
	wg.Wait()

	var st StatsSnapshot
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Requests.Errors != 0 {
		t.Errorf("errors = %d, want 0", st.Requests.Errors)
	}
	if st.Pool.InFlight != 0 {
		t.Errorf("in-flight = %d after quiesce, want 0", st.Pool.InFlight)
	}
	if st.Engine.Generation != uint64(st.Requests.Append) {
		t.Errorf("generation %d != appends %d", st.Engine.Generation, st.Requests.Append)
	}
}
