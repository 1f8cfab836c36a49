package server

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/mapmatch"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// newGoldenServer builds a GPS-enabled server over the golden fixture:
// engine on the golden dataset (Lev costs), matcher on the golden grid.
func newGoldenServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	eng := core.NewEngine(testutil.GoldenDataset(), wed.NewLev())
	srv := New(NewSafeEngine(eng), Config{
		CacheSize:     16,
		MaxConcurrent: 4,
		MaxSymbol:     int32(testutil.GoldenRows * testutil.GoldenCols),
		Matcher:       mapmatch.New(testutil.GoldenNet(), mapmatch.Config{MaxGap: 300}),
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// goldenTrace samples a noisy GPS trace of one golden path.
func goldenTrace(sigma float64, pathIdx int, seed int64) ([][2]float64, []traj.Symbol) {
	g := testutil.GoldenNet()
	truth := testutil.GoldenPaths()[pathIdx]
	tr := workload.GenerateTrace(g, truth, workload.GPSConfig{NoiseSigma: sigma, SampleSpacing: 50},
		rand.New(rand.NewSource(seed)))
	pts := make([][2]float64, len(tr.Points))
	for i, p := range tr.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}
	return pts, truth
}

func TestMatchEndpoint(t *testing.T) {
	_, ts := newGoldenServer(t)
	trace, truth := goldenTrace(10, 2, 1)
	resp, out := post(t, ts.URL+"/v1/match", map[string]any{"trace": trace})
	if resp.StatusCode != 200 {
		t.Fatalf("match: status %d, body %v", resp.StatusCode, out)
	}
	var segs []struct {
		Symbols    []traj.Symbol `json:"symbols"`
		First      int           `json:"first"`
		Last       int           `json:"last"`
		Confidence float64       `json:"confidence"`
	}
	if err := json.Unmarshal(out["segments"], &segs); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	if segs[0].First != 0 || segs[0].Last != len(trace)-1 {
		t.Errorf("segment covers [%d,%d], want [0,%d]", segs[0].First, segs[0].Last, len(trace)-1)
	}
	if len(segs[0].Symbols) != len(truth) {
		t.Fatalf("matched %d symbols, want the %d-vertex truth (got %v)", len(segs[0].Symbols), len(truth), segs[0].Symbols)
	}
	for i := range truth {
		if segs[0].Symbols[i] != truth[i] {
			t.Fatalf("symbol %d = %d, want %d", i, segs[0].Symbols[i], truth[i])
		}
	}
	var conf float64
	json.Unmarshal(out["confidence"], &conf)
	if conf <= 0.5 || conf > 1 {
		t.Errorf("confidence %g implausible for σ=10", conf)
	}
}

func TestIngestEndpoint(t *testing.T) {
	srv, ts := newGoldenServer(t)
	clean, truth := goldenTrace(8, 0, 2)
	// A teleporting trace (two distant golden paths concatenated — the
	// straight run ends >400 m from the U-shape's start, past MaxGap)
	// splits.
	a, _ := goldenTrace(8, 0, 3)
	b, _ := goldenTrace(8, 3, 4)
	teleport := append(append([][2]float64{}, a...), b...)

	resp, out := post(t, ts.URL+"/v1/ingest", map[string]any{
		"traces": []any{clean, teleport, [][2]float64{}},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("ingest: status %d, body %v", resp.StatusCode, out)
	}
	var results []struct {
		IDs        []int32 `json:"ids"`
		Confidence float64 `json:"confidence"`
		Splits     int     `json:"splits"`
		Error      string  `json:"error"`
	}
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[0].Error != "" || len(results[0].IDs) != 1 {
		t.Fatalf("clean trace: %+v, want one appended segment", results[0])
	}
	if results[1].Error != "" || len(results[1].IDs) != 2 || results[1].Splits != 1 {
		t.Fatalf("teleport trace: %+v, want two appended segments from one split", results[1])
	}
	if results[2].Error == "" {
		t.Fatal("empty trace must fail alone")
	}
	var appended int
	json.Unmarshal(out["appended"], &appended)
	if appended != 3 {
		t.Errorf("appended = %d, want 3", appended)
	}
	if gen := srv.Engine().Generation(); gen != 3 {
		t.Errorf("generation = %d, want 3", gen)
	}

	// The ingested clean trace is now findable by its ground-truth path.
	resp, out = post(t, ts.URL+"/v1/exact", map[string]any{"q": truth})
	if resp.StatusCode != 200 {
		t.Fatalf("exact: status %d", resp.StatusCode)
	}
	var count int
	json.Unmarshal(out["count"], &count)
	if count < 2 { // original golden trajectory + ingested copy
		t.Errorf("exact count = %d, want ≥ 2 after ingest", count)
	}

	// Stats reflect the pipeline.
	st := srv.Snapshot()
	if !st.GPS.Enabled {
		t.Error("GPS.Enabled = false on a matcher-equipped server")
	}
	if st.GPS.TracesMatched != 2 || st.GPS.TracesFailed != 0 || st.GPS.TracesSplit != 1 {
		t.Errorf("GPS counters matched=%d failed=%d split=%d, want 2/0/1",
			st.GPS.TracesMatched, st.GPS.TracesFailed, st.GPS.TracesSplit)
	}
	if st.GPS.SegmentsAppended != 3 {
		t.Errorf("segments appended = %d, want 3", st.GPS.SegmentsAppended)
	}
	if st.GPS.MatchNS <= 0 || st.GPS.MeanMatchNS <= 0 {
		t.Errorf("match latency counters not recorded: total=%d mean=%d", st.GPS.MatchNS, st.GPS.MeanMatchNS)
	}
	if st.Requests.Ingest != 1 {
		t.Errorf("ingest requests = %d, want 1", st.Requests.Ingest)
	}
}

// TestTraceSearchEquivalence is the end-to-end acceptance check: at
// σ=10 m, querying /v1/search with a raw trace returns the identical
// match set — bit-equal WEDs — as querying with that trace's ground-truth
// symbols, for search and topk kinds, and the two share cache entries.
func TestTraceSearchEquivalence(t *testing.T) {
	_, ts := newGoldenServer(t)
	trace, truth := goldenTrace(10, 2, 5)

	type matchRow struct {
		ID  int32   `json:"id"`
		S   int32   `json:"s"`
		T   int32   `json:"t"`
		WED float64 `json:"wed"`
	}
	run := func(path string, body map[string]any) ([]matchRow, map[string]json.RawMessage) {
		resp, out := post(t, ts.URL+path, body)
		if resp.StatusCode != 200 {
			t.Fatalf("POST %s %v: status %d, body %v", path, body, resp.StatusCode, out)
		}
		var ms []matchRow
		if out["matches"] != nil {
			if err := json.Unmarshal(out["matches"], &ms); err != nil {
				t.Fatal(err)
			}
		}
		return ms, out
	}

	for _, tc := range []struct {
		path string
		base map[string]any
	}{
		{"/v1/search", map[string]any{"tau_ratio": 0.3}},
		{"/v1/topk", map[string]any{"k": 3}},
	} {
		symBody := map[string]any{}
		traceBody := map[string]any{}
		for k, v := range tc.base {
			symBody[k] = v
			traceBody[k] = v
		}
		symBody["q"] = truth
		traceBody["trace"] = trace

		bySym, _ := run(tc.path, symBody)
		byTrace, out := run(tc.path, traceBody)
		if len(bySym) == 0 {
			t.Fatalf("%s: symbol query found nothing", tc.path)
		}
		if len(byTrace) != len(bySym) {
			t.Fatalf("%s: trace query found %d matches, symbols found %d", tc.path, len(byTrace), len(bySym))
		}
		for i := range bySym {
			if bySym[i] != byTrace[i] {
				t.Fatalf("%s match %d: trace %+v != symbols %+v (WEDs must be bit-equal)",
					tc.path, i, byTrace[i], bySym[i])
			}
		}
		// The trace resolved to exactly the ground-truth symbols...
		var resolved []traj.Symbol
		json.Unmarshal(out["resolved_q"], &resolved)
		if len(resolved) != len(truth) {
			t.Fatalf("%s: resolved_q = %v, want truth %v", tc.path, resolved, truth)
		}
		for i := range truth {
			if resolved[i] != truth[i] {
				t.Fatalf("%s: resolved_q[%d] = %d, want %d", tc.path, i, resolved[i], truth[i])
			}
		}
		// ...so the trace query was served from the symbol query's cache
		// entry: one shared key for both forms.
		var cached bool
		json.Unmarshal(out["cached"], &cached)
		if !cached {
			t.Errorf("%s: trace query after identical symbol query must hit the shared cache", tc.path)
		}
	}
}

func TestGPSValidation(t *testing.T) {
	_, ts := newGoldenServer(t)
	trace, truth := goldenTrace(10, 0, 6)
	for _, tc := range []struct {
		path string
		body map[string]any
		want int
	}{
		{"/v1/match", map[string]any{"trace": [][2]float64{}}, 400},
		{"/v1/match", map[string]any{"trace": []any{[]float64{120}}}, 400},                // missing y
		{"/v1/match", map[string]any{"trace": []any{[]float64{120, 95, 1e9}}}, 400},       // [x,y,t] triple
		{"/v1/search", map[string]any{"trace": trace, "q": truth, "tau_ratio": 0.2}, 400}, // both q and trace
		{"/v1/search", map[string]any{"trace": trace}, 400},                               // no tau
		{"/v1/ingest", map[string]any{"traces": []any{}}, 400},
	} {
		resp, out := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s: status %d, want %d (body %v)", tc.path, resp.StatusCode, tc.want, out)
		}
	}
}

func TestGPSDisabled(t *testing.T) {
	// Servers built without a matcher answer the GPS surface with 501.
	_, ts, q := newTestServer(t)
	_ = q
	trace := [][2]float64{{0, 0}, {100, 0}}
	for _, tc := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/match", map[string]any{"trace": trace}},
		{"/v1/ingest", map[string]any{"traces": []any{trace}}},
		{"/v1/search", map[string]any{"trace": trace, "tau_ratio": 0.2}},
	} {
		resp, out := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != 501 {
			t.Errorf("POST %s without matcher: status %d, want 501 (body %v)", tc.path, resp.StatusCode, out)
		}
	}
	// Stats report the surface as disabled.
	var st StatsSnapshot
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.GPS.Enabled {
		t.Error("GPS.Enabled = true on a matcher-less server")
	}
}

// TestConcurrentGPSTraffic extends the -race hammer to the GPS surface:
// concurrent /v1/ingest, /v1/search in both trace and symbol forms,
// /v1/append, and /v1/stats against one server. Afterwards the cache
// generation and the stats counters must be mutually consistent.
func TestConcurrentGPSTraffic(t *testing.T) {
	srv, ts := newGoldenServer(t)
	paths := testutil.GoldenPaths()

	const (
		workers = 6
		rounds  = 10
	)
	traces := make([][][2]float64, workers*rounds)
	for i := range traces {
		traces[i], _ = goldenTrace(8, i%len(paths), int64(100+i))
	}
	var ingested, appended, traceSearches atomic64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch (g + i) % 4 {
				case 0:
					resp, out := post(t, ts.URL+"/v1/ingest", map[string]any{
						"traces": []any{traces[g*rounds+i]},
					})
					if resp.StatusCode != 200 {
						t.Errorf("ingest: status %d, body %v", resp.StatusCode, out)
						return
					}
					ingested.add(1)
				case 1:
					resp, _ := post(t, ts.URL+"/v1/search", map[string]any{
						"trace": traces[g*rounds+i], "tau_ratio": 0.2,
					})
					if resp.StatusCode != 200 {
						t.Errorf("trace search: status %d", resp.StatusCode)
						return
					}
					traceSearches.add(1)
				case 2:
					resp, _ := post(t, ts.URL+"/v1/search", map[string]any{
						"q": paths[i%len(paths)], "tau_ratio": 0.2,
					})
					if resp.StatusCode != 200 {
						t.Errorf("symbol search: status %d", resp.StatusCode)
						return
					}
				case 3:
					resp, _ := post(t, ts.URL+"/v1/append", map[string]any{
						"path": paths[(g+i)%len(paths)],
					})
					if resp.StatusCode != 200 {
						t.Errorf("append: status %d", resp.StatusCode)
						return
					}
					appended.add(1)
					var st StatsSnapshot
					getJSON(t, ts.URL+"/v1/stats", &st)
				}
			}
		}(g)
	}
	wg.Wait()

	st := srv.Snapshot()
	if st.Requests.Errors != 0 {
		t.Errorf("errors = %d, want 0", st.Requests.Errors)
	}
	if st.Pool.InFlight != 0 {
		t.Errorf("in-flight = %d after quiesce, want 0", st.Pool.InFlight)
	}
	// Golden traces at σ=8 never split, so every ingested trace appended
	// exactly one segment, and the generation counts appends of both
	// kinds exactly.
	if st.GPS.SegmentsAppended != ingested.load() {
		t.Errorf("segments appended = %d, want %d (one per ingested trace)",
			st.GPS.SegmentsAppended, ingested.load())
	}
	if want := uint64(appended.load() + ingested.load()); st.Engine.Generation != want {
		t.Errorf("generation = %d, want %d (appends + ingested segments)", st.Engine.Generation, want)
	}
	if st.GPS.TracesFailed != 0 {
		t.Errorf("traces failed = %d, want 0", st.GPS.TracesFailed)
	}
	if want := ingested.load() + traceSearches.load(); st.GPS.TracesMatched != want {
		t.Errorf("traces matched = %d, want %d", st.GPS.TracesMatched, want)
	}
	if st.GPS.TraceQueries != traceSearches.load() {
		t.Errorf("trace queries = %d, want %d", st.GPS.TraceQueries, traceSearches.load())
	}
	if st.Engine.Trajectories != 4+int(st.Engine.Generation) {
		t.Errorf("trajectories = %d, want %d", st.Engine.Trajectories, 4+int(st.Engine.Generation))
	}

	// After the dust settles, a cached repeat must agree with a fresh run
	// (generation tagging kept stale entries out).
	q := paths[0]
	_, out1 := post(t, ts.URL+"/v1/search", map[string]any{"q": q, "tau_ratio": 0.2})
	_, out2 := post(t, ts.URL+"/v1/search", map[string]any{"q": q, "tau_ratio": 0.2})
	var c1, c2 int
	json.Unmarshal(out1["count"], &c1)
	json.Unmarshal(out2["count"], &c2)
	if c1 != c2 {
		t.Errorf("cached count %d != fresh count %d", c2, c1)
	}
}

// atomic64 is a tiny test-local counter (avoids importing sync/atomic's
// full surface into assertions).
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
