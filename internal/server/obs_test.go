package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"subtraj/internal/core"
	"subtraj/internal/mapmatch"
	"subtraj/internal/obs"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// newObsServer builds a server over a workload big enough that searches
// take real (sub-millisecond-plus) time, so span-sum checks are not
// dominated by microsecond rounding — at τ_ratio 0.7: the
// trajectory-level pre-filter leaves its 0.35 query about 0.1 ms. Its
// queries stay under the engine's fan-out threshold;
// TestTraceSpansSumSharded brings its own dataset.
func newObsServer(t testing.TB, cfg Config) (*Server, *httptest.Server, []traj.Symbol) {
	t.Helper()
	w := workload.Generate(workload.Config{
		Name: "obs", GridRows: 20, GridCols: 20, NumTrajectories: 900,
		TargetLen: 70, Seed: 11, Horizon: 86400, SpeedMean: 11,
	})
	eng := core.NewEngine(w.Data, wed.NewLev())
	cfg.MaxSymbol = int32(w.Graph.NumVertices())
	srv := New(NewSafeEngine(eng), cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	q, err := workload.SampleQuery(w.Data, 18, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return srv, ts, q
}

// searchTrace runs one ?debug=trace search and returns its span tree.
func searchTrace(t *testing.T, url string, q []traj.Symbol, ratio float64) *obs.SpanJSON {
	t.Helper()
	resp, out := post(t, url+"/v1/search?debug=trace", map[string]any{"q": q, "tau_ratio": ratio})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d, body %v", resp.StatusCode, out)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("missing X-Request-ID header")
	}
	raw, ok := out["trace"]
	if !ok {
		t.Fatal("?debug=trace response has no trace field")
	}
	var tree obs.SpanJSON
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	return &tree
}

// spanSumErr checks the acceptance contract on one trace: the root's
// direct children are sequential wall spans whose durations sum to the
// root's within 5%.
func spanSumErr(tree *obs.SpanJSON) error {
	var sum int64
	names := make([]string, 0, len(tree.Children))
	for _, c := range tree.Children {
		sum += c.DurUS
		names = append(names, c.Name)
	}
	if tree.DurUS <= 0 {
		return fmt.Errorf("root span has no duration: %+v", tree)
	}
	diff := tree.DurUS - sum
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(tree.DurUS) {
		return fmt.Errorf("top-level spans %v sum to %dµs, root is %dµs (diff %dµs > 5%%)",
			names, sum, tree.DurUS, diff)
	}
	return nil
}

// checkSpanSum asserts spanSumErr over a few attempts: on a loaded
// single-CPU test box the goroutine can lose the processor for tens of
// microseconds between spans, so one trace is allowed to be unlucky —
// but the contract must hold within three.
func checkSpanSum(t *testing.T, ts string, q []traj.Symbol, ratio float64) *obs.SpanJSON {
	t.Helper()
	var tree *obs.SpanJSON
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		tree = searchTrace(t, ts, q, ratio)
		if err = spanSumErr(tree); err == nil {
			break
		}
		t.Logf("attempt %d: %v", attempt+1, err)
	}
	if err != nil {
		t.Error(err)
	}
	names := make([]string, 0, len(tree.Children))
	for _, c := range tree.Children {
		names = append(names, c.Name)
	}
	for _, want := range []string{"decode", "cache_lookup", "pool_wait", "engine"} {
		if findChild(tree, want) == nil {
			t.Errorf("trace has no top-level %q span (got %v)", want, names)
		}
	}
	return tree
}

func findChild(s *obs.SpanJSON, name string) *obs.SpanJSON {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func TestTraceSpansSumSequential(t *testing.T) {
	_, ts, q := newObsServer(t, Config{CacheSize: -1, MaxConcurrent: 4, MaxParallelism: 1})
	tree := checkSpanSum(t, ts.URL, q, 0.7)
	eng := findChild(tree, "engine")
	if eng == nil {
		t.Fatal("no engine span")
	}
	if par, _ := eng.Attrs["parallelism"].(float64); par != 1 {
		t.Errorf("sequential path reports parallelism %v, want 1", eng.Attrs["parallelism"])
	}
	// The QueryStats stages hang under the engine span as work spans,
	// each tagged with the worker count its durations were summed over.
	for _, stage := range []string{"filter", "verify"} {
		sp := findChild(eng, stage)
		if sp == nil {
			t.Errorf("engine span has no %q child", stage)
			continue
		}
		if _, ok := sp.Attrs["workers"]; !ok {
			t.Errorf("%s span has no workers attr", stage)
		}
	}
}

// TestTraceSpansSumSharded: the top-level spans still sum to the request
// when the engine fans the query out, and the engine span reports the
// workers the query used — all four it was lent, its work being several
// times the threshold.
func TestTraceSpansSumSharded(t *testing.T) {
	w := fanOutWorkload()
	_, ts := newPoolServer(t, w, 8, 4)
	tree := checkSpanSum(t, ts.URL, sampleQuery(t, w.Data, fanOutQueryLen, 3), fanOutTauRatio)
	eng := findChild(tree, "engine")
	if eng == nil {
		t.Fatal("no engine span")
	}
	if par, _ := eng.Attrs["parallelism"].(float64); par != 4 {
		t.Errorf("fanned-out query reports parallelism %v, want 4 (idle pool)", eng.Attrs["parallelism"])
	}
}

func TestTraceCacheHitSpan(t *testing.T) {
	_, ts, q := newObsServer(t, Config{CacheSize: 16, MaxConcurrent: 4})
	searchTrace(t, ts.URL, q, 0.35)           // populate
	tree := searchTrace(t, ts.URL, q, 0.35)   // hit
	lookup := findChild(tree, "cache_lookup") // hit attr set on the lookup span
	if lookup == nil {
		t.Fatal("no cache_lookup span")
	}
	if hit, _ := lookup.Attrs["hit"].(bool); !hit {
		t.Errorf("second identical query: cache_lookup attrs = %v, want hit=true", lookup.Attrs)
	}
	if findChild(tree, "engine") != nil {
		t.Error("cache-hit trace still has an engine span")
	}
}

// --- /metrics exposition --------------------------------------------------

// expositionLine matches any valid line of the Prometheus text format.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*` + // comment
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+` + // sample
		`)$`)

// scrapeMetrics fetches /metrics, validates every line, and returns the
// samples keyed by full series name (name plus rendered labels).
func scrapeMetrics(t testing.TB, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// bucketQuantile re-derives a quantile from scraped _bucket samples the
// same way obs.Histogram.Quantile does, so /metrics and /v1/stats can be
// cross-checked through the wire format.
func bucketQuantile(samples map[string]float64, name, labels string, q float64) float64 {
	type bk struct{ le, cum float64 }
	var bks []bk
	prefix := name + "_bucket{" + labels
	for series, v := range samples {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le := series[strings.Index(series, `le="`)+4:]
		le = le[:strings.IndexByte(le, '"')]
		if le == "+Inf" {
			continue
		}
		f, _ := strconv.ParseFloat(le, 64)
		bks = append(bks, bk{le: f, cum: v})
	}
	sort.Slice(bks, func(i, j int) bool { return bks[i].le < bks[j].le })
	total := samples[name+"_count{"+labels+"}"]
	if total == 0 {
		return 0
	}
	rank := q * total
	prevCum, lo := 0.0, 0.0
	for _, b := range bks {
		if b.cum >= rank {
			c := b.cum - prevCum
			if c == 0 {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prevCum)/c
		}
		prevCum, lo = b.cum, b.le
	}
	return bks[len(bks)-1].le
}

// TestMetricsMatchStats drives every endpoint — a cache hit, a trace
// query, a split ingest, failing requests and items, a recovered panic,
// slow requests — and then checks every counter /v1/stats reports against
// its /metrics series. A counter kept in only one of the two surfaces is
// missing from the scrape, or reads zero in /v1/stats where the traffic
// moved it, and fails here.
func TestMetricsMatchStats(t *testing.T) {
	srv := New(NewSafeEngine(core.NewEngine(testutil.GoldenDataset(), wed.NewLev())), Config{
		CacheSize: 16, MaxConcurrent: 4, SlowQuery: time.Nanosecond,
		MaxSymbol: int32(testutil.GoldenRows * testutil.GoldenCols),
		Matcher:   mapmatch.New(testutil.GoldenNet(), mapmatch.Config{MaxGap: 300}),
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	v := testutil.GoldenVertex
	// Up column 3 at τ = 2 the pre-filter drops one trajectory (see
	// TestPreFilterStatsGolden).
	north := []any{v(5, 3), v(4, 3), v(3, 3), v(2, 3), v(1, 3)}
	path := testutil.GoldenPaths()[2]
	trace, _ := goldenTrace(10, 2, 1)
	a, _ := goldenTrace(8, 0, 3)
	b, _ := goldenTrace(8, 3, 4)
	teleport := append(append([][2]float64{}, a...), b...) // splits in two
	for _, c := range []postCase{
		{"/v1/search", map[string]any{"q": north, "tau": 2}},
		{"/v1/search", map[string]any{"q": north, "tau": 2}}, // cache hit
		{"/v1/search", map[string]any{"trace": trace, "tau_ratio": 0.3}},
		{"/v1/search", map[string]any{"q": path}}, // no τ: an error
		{"/v1/topk", map[string]any{"q": path, "k": 3}},
		{"/v1/temporal", map[string]any{"q": path, "tau_ratio": 0.3, "lo": 0, "hi": 1e12}},
		{"/v1/exact", map[string]any{"q": path}},
		{"/v1/count", map[string]any{"q": path}},
		{"/v1/append", map[string]any{"path": path}},
		{"/v1/match", map[string]any{"trace": trace}},
		{"/v1/ingest", map[string]any{"traces": []any{teleport, [][2]float64{}}}}, // the empty trace fails alone
		{"/v1/batch", map[string]any{"queries": []map[string]any{
			{"kind": "count", "q": path},
			{"kind": "search", "q": path}, // no τ: fails alone
		}}},
		{"/v1/checkpoint", map[string]any{}}, // a volatile engine: 501
	} {
		post(t, ts.URL+c.path, c.body)
	}
	srv.instrument("search", func(http.ResponseWriter, *http.Request) { panic("boom") })(
		httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/search", nil))

	// Scrape first: the /v1/stats request itself is slow (1 ns threshold)
	// and counts as such only after its snapshot was taken.
	samples := scrapeMetrics(t, ts.URL)
	var st StatsSnapshot
	getJSON(t, ts.URL+"/v1/stats", &st)

	// Counters this traffic cannot move: the matcher rejects only empty
	// traces, which validation rejects first; the golden queries are too
	// small to fan out.
	mayBeZero := map[string]bool{"subtraj_gps_traces_failed_total": true, "subtraj_parallel_queries_total": true}
	for _, c := range []struct {
		series string
		stats  int64
	}{
		{`subtraj_requests_total{endpoint="search"}`, st.Requests.Search},
		{`subtraj_requests_total{endpoint="topk"}`, st.Requests.TopK},
		{`subtraj_requests_total{endpoint="temporal"}`, st.Requests.Temporal},
		{`subtraj_requests_total{endpoint="exact"}`, st.Requests.Exact},
		{`subtraj_requests_total{endpoint="count"}`, st.Requests.Count},
		{`subtraj_requests_total{endpoint="append"}`, st.Requests.Append},
		{`subtraj_requests_total{endpoint="match"}`, st.Requests.Match},
		{`subtraj_requests_total{endpoint="ingest"}`, st.Requests.Ingest},
		{`subtraj_requests_total{endpoint="batch"}`, st.Requests.Batch},
		{`subtraj_requests_total{endpoint="checkpoint"}`, st.Requests.Checkpoint},
		{"subtraj_request_errors_total", st.Requests.Errors},
		{"subtraj_panics_total", st.Requests.Panics},
		{"subtraj_slow_queries_total", st.Requests.Slow},
		{"subtraj_queries_executed_total", st.Totals.Executed},
		{"subtraj_matches_total", st.Totals.Matches},
		{"subtraj_candidates_total", st.Totals.Candidates},
		{"subtraj_pruned_trajectories_total", st.Totals.PrunedTrajectories},
		{"subtraj_pruned_candidates_total", st.Totals.PrunedCandidates},
		{"subtraj_columns_visited_total", st.Totals.ColumnsVisited},
		{"subtraj_columns_available_total", st.Totals.ColumnsAvailable},
		{"subtraj_step_dp_calls_total", st.Totals.StepDPCalls},
		{"subtraj_cells_computed_total", st.Totals.CellsComputed},
		{"subtraj_cells_available_total", st.Totals.CellsAvailable},
		{"subtraj_shard_workers_total", st.Totals.ShardWorkers},
		{"subtraj_parallel_queries_total", st.Totals.ParallelQueries},
		{"subtraj_topk_queued_total", st.Totals.TopKQueued},
		{"subtraj_topk_verified_total", st.Totals.TopKVerified},
		{"subtraj_gps_traces_matched_total", st.GPS.TracesMatched},
		{"subtraj_gps_traces_failed_total", st.GPS.TracesFailed},
		{"subtraj_gps_traces_split_total", st.GPS.TracesSplit},
		{"subtraj_gps_segments_appended_total", st.GPS.SegmentsAppended},
		{"subtraj_gps_trace_queries_total", st.GPS.TraceQueries},
		{"subtraj_cache_hits_total", st.Cache.Hits},
		{"subtraj_engine_generation", int64(st.Engine.Generation)},
	} {
		got, ok := samples[c.series]
		switch {
		case !ok:
			t.Errorf("%s: missing from /metrics (/v1/stats has %d)", c.series, c.stats)
		case got != float64(c.stats):
			t.Errorf("%s: /metrics has %g, /v1/stats has %d", c.series, got, c.stats)
		case c.stats == 0 && !mayBeZero[c.series]:
			t.Errorf("%s: 0 in both surfaces; the traffic above should have moved it", c.series)
		}
	}

	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9+1e-9*want {
			t.Errorf("%s: /metrics has %g, /v1/stats has %g", name, got, want)
		}
	}
	// Stage times live once, in the stage histograms: /v1/stats reports
	// their sums in whole nanoseconds.
	for stage, ns := range map[string]int64{"plan": st.Totals.MinCandNS, "filter": st.Totals.LookupNS,
		"verify": st.Totals.VerifyNS, "match": st.GPS.MatchNS} {
		sum := samples[`subtraj_stage_duration_seconds_sum{stage="`+stage+`"}`]
		if ns <= 0 || math.Abs(sum*1e9-float64(ns)) > 1 {
			t.Errorf("stage %s: /metrics sums %gs, /v1/stats %dns", stage, sum, ns)
		}
	}
	near("band_ratio", samples["subtraj_band_ratio"], st.Totals.BandRatio)
	near("topk_verified_ratio", samples["subtraj_topk_verified_ratio"],
		float64(st.Totals.TopKVerified)/float64(st.Totals.TopKQueued))
	near("cache_hit_ratio", samples["subtraj_cache_hit_ratio"], st.Cache.HitRatio)

	lat, ok := st.Latency["search"]
	if !ok {
		t.Fatal("/v1/stats has no latency block for search")
	}
	if lat.Count != st.Requests.Search {
		t.Errorf("latency count %d != search requests %d (cache hits must be recorded)", lat.Count, st.Requests.Search)
	}
	labels := `endpoint="search"`
	for _, pq := range []struct {
		q    float64
		want float64
	}{{0.50, lat.P50MS}, {0.99, lat.P99MS}} {
		got := bucketQuantile(samples, "subtraj_request_duration_seconds", labels, pq.q) * 1e3
		if math.Abs(got-pq.want) > 1e-6+1e-6*pq.want {
			t.Errorf("p%d from /metrics buckets = %gms, /v1/stats reports %gms", int(pq.q*100), got, pq.want)
		}
	}
}

func TestMetricsExpositionWellFormed(t *testing.T) {
	_, ts, q := newObsServer(t, Config{CacheSize: 16, MaxConcurrent: 4})
	post(t, ts.URL+"/v1/search", map[string]any{"q": q, "tau_ratio": 0.35})
	samples := scrapeMetrics(t, ts.URL)
	for _, family := range []string{
		"subtraj_requests_total", "subtraj_request_errors_total",
		"subtraj_queries_executed_total", "subtraj_band_ratio",
		"subtraj_topk_verified_ratio", "subtraj_cache_hits_total",
		"subtraj_cache_hit_ratio", "subtraj_pool_capacity",
		"subtraj_engine_generation", "subtraj_uptime_seconds",
		"subtraj_verifier_pool_gets_total", "subtraj_verifier_pool_retained_bytes",
	} {
		found := false
		for series := range samples {
			if series == family || strings.HasPrefix(series, family+"{") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("/metrics is missing family %s", family)
		}
	}
	// Histogram invariants on the wire: buckets cumulative (monotone in
	// le) and _count equal to the +Inf bucket.
	labels := `endpoint="search"`
	inf := samples[`subtraj_request_duration_seconds_bucket{`+labels+`,le="+Inf"}`]
	count := samples["subtraj_request_duration_seconds_count{"+labels+"}"]
	if inf != count || count < 1 {
		t.Errorf("search histogram: +Inf bucket %g, _count %g, want equal and >= 1", inf, count)
	}
}

// TestMetricsConcurrentHammer scrapes /metrics while searches, appends,
// and batches are in flight; under -race this is the acceptance test for
// the lock-free registry wiring. Afterward the scrape must still be
// well-formed and the request counters must equal the traffic sent.
func TestMetricsConcurrentHammer(t *testing.T) {
	_, ts, q := newObsServer(t, Config{
		CacheSize: 16, MaxConcurrent: 8, SlowQuery: 1,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	const workers, iters = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch w % 4 {
				case 0:
					post(t, ts.URL+"/v1/search", map[string]any{"q": q, "tau_ratio": 0.3})
				case 1:
					post(t, ts.URL+"/v1/append", map[string]any{"path": q})
				case 2:
					post(t, ts.URL+"/v1/batch", map[string]any{
						"queries": []map[string]any{
							{"kind": "count", "q": q},
							{"kind": "topk", "q": q, "k": 2},
						},
					})
				case 3:
					scrapeMetrics(t, ts.URL)
					getJSON(t, ts.URL+"/v1/debug/traces", &struct{}{})
				}
			}
		}(w)
	}
	wg.Wait()
	samples := scrapeMetrics(t, ts.URL)
	if got := samples[`subtraj_requests_total{endpoint="search"}`]; got != iters {
		t.Errorf("search counter = %g after hammer, want %d", got, iters)
	}
	if got := samples[`subtraj_requests_total{endpoint="append"}`]; got != iters {
		t.Errorf("append counter = %g after hammer, want %d", got, iters)
	}
	if got := samples["subtraj_engine_generation"]; got != iters {
		t.Errorf("generation gauge = %g, want %d", got, iters)
	}
}

// --- slow-query log and debug ring ----------------------------------------

// lockedBuffer lets the slog handler race the test's reads safely.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSlowQueryLogAndRing(t *testing.T) {
	var logBuf lockedBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	// A 1ns threshold makes every request slow, so the ring and log fill
	// deterministically.
	_, ts, q := newObsServer(t, Config{
		CacheSize: -1, MaxConcurrent: 4,
		SlowQuery: time.Nanosecond, TraceBuffer: 4, Logger: logger,
	})
	// The retained tree, unlike a ?debug=trace body, holds the encode span,
	// and its top-level spans sum to the root: the span-sum contract, with
	// its allowance of three attempts, at the τ_ratio the other span-sum
	// checks use.
	var reqID string
	var sumErr error
	for attempt := 0; attempt < 3; attempt++ {
		resp, _ := post(t, ts.URL+"/v1/search", map[string]any{"q": q, "tau_ratio": 0.7})
		reqID = resp.Header.Get("X-Request-ID")
		if reqID == "" {
			t.Fatal("no X-Request-ID on response")
		}

		var ring debugTracesResponse
		getJSON(t, ts.URL+"/v1/debug/traces", &ring)
		if ring.Capacity != 4 {
			t.Errorf("ring capacity = %d, want 4", ring.Capacity)
		}
		var rec *obs.TraceRecord
		for i := range ring.Traces {
			if ring.Traces[i].RequestID == reqID {
				rec = &ring.Traces[i]
			}
		}
		if rec == nil {
			t.Fatalf("request %s not retained in /v1/debug/traces (%d records)", reqID, len(ring.Traces))
		}
		if rec.Endpoint != "search" || rec.Trace == nil || rec.DurUS <= 0 {
			t.Fatalf("retained record incomplete: %+v", rec)
		}
		for _, want := range []string{"engine", "encode"} {
			if findChild(rec.Trace, want) == nil {
				t.Errorf("retained trace has no top-level %s span", want)
			}
		}
		if sumErr = spanSumErr(rec.Trace); sumErr == nil {
			break
		}
		t.Logf("attempt %d: %v", attempt+1, sumErr)
	}
	if sumErr != nil {
		t.Error(sumErr)
	}

	logged := logBuf.String()
	if !strings.Contains(logged, "slow query") || !strings.Contains(logged, reqID) {
		t.Errorf("slow-query log missing entry for %s: %q", reqID, logged)
	}
	if !strings.Contains(logged, "breakdown=") {
		t.Errorf("slow-query log has no span breakdown: %q", logged)
	}

	var stats StatsSnapshot
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Requests.Slow < 1 {
		t.Errorf("stats report %d slow requests, want >= 1", stats.Requests.Slow)
	}
}

func TestSlowQueryDisabled(t *testing.T) {
	var logBuf lockedBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	_, ts, q := newObsServer(t, Config{
		CacheSize: -1, MaxConcurrent: 4,
		SlowQuery: -1, TraceBuffer: -1, Logger: logger,
	})
	post(t, ts.URL+"/v1/search", map[string]any{"q": q, "tau_ratio": 0.35})
	var ring debugTracesResponse
	getJSON(t, ts.URL+"/v1/debug/traces", &ring)
	if len(ring.Traces) != 0 || ring.Capacity != 0 {
		t.Errorf("disabled ring still retains traces: %+v", ring)
	}
	if logged := logBuf.String(); logged != "" {
		t.Errorf("disabled slow-query log still wrote: %q", logged)
	}
}

// poisonCosts panics when asked for the filtering cost of one symbol: a
// cost model with a bug only one query reaches.
type poisonCosts struct {
	wed.FilterCosts
	poison traj.Symbol
}

func (c poisonCosts) FilterCost(q traj.Symbol) float64 {
	if q == c.poison {
		panic("poisoned symbol")
	}
	return c.FilterCosts.FilterCost(q)
}

// TestBatchItemPanicLoggedAndCounted: a panic inside one /v1/batch item's
// goroutine is that item's error and nobody else's — and it is not
// swallowed: it counts as a panic and leaves the record instrument's
// backstop would have left, with the item's index.
func TestBatchItemPanicLoggedAndCounted(t *testing.T) {
	var logBuf lockedBuffer
	w := workload.Generate(workload.Tiny(7))
	q := sampleQuery(t, w.Data, 6, 3)
	poison := traj.Symbol(0)
	for slices.Contains(q, poison) {
		poison++
	}
	bad := append(slices.Clone(q[:len(q)-1]), poison)
	eng := core.NewEngine(w.Data, poisonCosts{wed.NewLev(), poison})
	srv := New(NewSafeEngine(eng), Config{CacheSize: -1, MaxConcurrent: 4, MaxBatch: 8,
		MaxSymbol: int32(w.Graph.NumVertices()), SlowQuery: -1,
		Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, out := post(t, ts.URL+"/v1/batch", map[string]any{"queries": []map[string]any{
		{"kind": "search", "q": q, "tau_ratio": 0.35},
		{"kind": "search", "q": bad, "tau_ratio": 0.35},
		{"kind": "count", "q": q, "tau_ratio": 0.35},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: one item's panic is not the batch's", resp.StatusCode)
	}
	var results []struct {
		Count int    `json:"count"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out["results"], &results); err != nil || len(results) != 3 {
		t.Fatalf("results = %s (%v)", out["results"], err)
	}
	if !strings.Contains(results[1].Error, "internal error") {
		t.Errorf("panicking item answered %+v, want an internal error", results[1])
	}
	for _, i := range []int{0, 2} {
		if results[i].Error != "" || results[i].Count == 0 {
			t.Errorf("item %d beside the panic answered %+v, want its matches", i, results[i])
		}
	}
	snap := srv.Snapshot()
	if snap.Requests.Panics != 1 || snap.Requests.Errors != 1 {
		t.Errorf("panics = %d, errors = %d, want 1 and 1", snap.Requests.Panics, snap.Requests.Errors)
	}
	logged := logBuf.String()
	if n := strings.Count(logged, "handler panic"); n != 1 {
		t.Fatalf("%d \"handler panic\" records, want 1: %q", n, logged)
	}
	for _, want := range []string{"request_id=" + resp.Header.Get("X-Request-ID"), "endpoint=batch",
		"item=1", "poisoned symbol", "poisonCosts"} {
		if !strings.Contains(logged, want) {
			t.Errorf("panic record lacks %q: %q", want, logged)
		}
	}
}

// --- healthz --------------------------------------------------------------

func TestHealthzFields(t *testing.T) {
	srv, ts, q := newObsServer(t, Config{CacheSize: 16, MaxConcurrent: 4})
	var h healthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("status = %q", h.Status)
	}
	if h.Trajectories != srv.eng.NumTrajectories() {
		t.Errorf("healthz reports %d trajectories, want %d", h.Trajectories, srv.eng.NumTrajectories())
	}
	if h.Generation != 0 {
		t.Errorf("fresh server generation = %d, want 0", h.Generation)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %g", h.UptimeSeconds)
	}
	if h.GPSEnabled {
		t.Error("gps_enabled = true on a matcher-less server")
	}

	post(t, ts.URL+"/v1/append", map[string]any{"path": q})
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Generation != 1 {
		t.Errorf("generation after append = %d, want 1", h.Generation)
	}
}

// --- overhead benchmark ---------------------------------------------------

// BenchmarkServeSearch measures the full request path in process: the
// pipeline, the trace middleware, the registry's counters and histograms,
// and the spans.
func BenchmarkServeSearch(b *testing.B) {
	b.Run("metrics=on", func(b *testing.B) {
		srv, _, q := newObsServer(b, Config{
			CacheSize: -1, MaxConcurrent: 4, MaxParallelism: 1,
			SlowQuery: -1, TraceBuffer: -1,
		})
		body, _ := json.Marshal(map[string]any{"q": q, "tau_ratio": 0.35})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	})
}
