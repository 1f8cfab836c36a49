package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"subtraj/internal/core"
	"subtraj/internal/obs"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
)

// encodeRef is the reference encoding of a response body: the bytes
// json.NewEncoder writes for v.
func encodeRef(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// encodeFloats are the values where encoding/json's float rule has an
// edge: −0, both sides of 2^53 (where the integral fast path stops), 2^54
// + 8 (the first integral float whose shortest form, 18014398509481990,
// is not its integer digits), both sides of the 'e' notation's bounds
// 1e-6 and 1e21, one-digit negative exponents, subnormals and the
// extremes.
var encodeFloats = []float64{
	0, math.Copysign(0, -1), 1, -3, 42, 0.5, -2.75, 0.1 + 0.2, 123.456,
	1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2, 1<<54 + 8, 1 << 60,
	1e20, -1e20, 1e21, -1e21, 1.5e300,
	9.99e-7, 1e-6, -1e-6, 1.5e-9, 1e-7, -2.5e-8, 1e-10,
	5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
}

// randFloat draws an edge value, a whole number (a unit-cost WED or τ),
// a value of random magnitude, or any finite float64.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return encodeFloats[rng.Intn(len(encodeFloats))]
	case 1:
		return float64(rng.Intn(200))
	case 2:
		return (rng.Float64() - 0.25) * math.Pow(10, float64(rng.Intn(50)-25))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// randSpan draws a ?debug=trace tree whose names and attributes need
// encoding/json's HTML escaping.
func randSpan(rng *rand.Rand, depth int) *obs.SpanJSON {
	s := &obs.SpanJSON{Name: []string{"engine", "<verify>", "a&b"}[rng.Intn(3)], StartUS: rng.Int63n(1e6), DurUS: rng.Int63n(1e6)}
	if rng.Intn(2) == 0 {
		s.Attrs = map[string]any{"hit": rng.Intn(2) == 0, "workers": rng.Intn(8), "why": "<&>", "ratio": randFloat(rng)}
	}
	for range rng.Intn(3) * depth {
		s.Children = append(s.Children, randSpan(rng, depth-1))
	}
	return s
}

// randResponse draws a query answer with each optional field present or
// absent, and names in seen the cases it drew.
func randResponse(rng *rand.Rand, seen map[string]int) *queryResponse {
	draw := func(name string) bool {
		ok := rng.Intn(2) == 0
		if !ok {
			name = "no " + name
		}
		seen[name]++
		return ok
	}
	r := &queryResponse{Count: rng.Intn(1000), Cached: draw("cached")}
	if draw("matches") {
		for range 1 + rng.Intn(20) {
			r.Matches = append(r.Matches, traj.Match{ID: rng.Int31(), S: rng.Int31n(500), T: rng.Int31n(500), WED: randFloat(rng)})
		}
	} else if draw("empty matches") {
		r.Matches = []traj.Match{}
	}
	if draw("tau") {
		r.Tau = randFloat(rng)
	}
	if draw("stats") {
		r.Stats = &queryStatsJSON{SubseqLen: rng.Intn(60), Candidates: rng.Intn(1e5), MinCandNS: rng.Int63(),
			LookupNS: rng.Int63(), VerifyNS: rng.Int63(), PlusLen: rng.Intn(100),
			PrunedTrajectories: rng.Intn(1e4), PrunedCandidates: rng.Intn(1e5)}
		if draw("topk stats") {
			r.Stats.Queued, r.Stats.Verified = 1+rng.Intn(1e4), rng.Intn(1e4)
		}
	}
	if draw("resolved_q") {
		for range 1 + rng.Intn(10) {
			r.ResolvedQ = append(r.ResolvedQ, rng.Int31())
		}
	}
	if draw("match_confidence") {
		r.MatchConfidence = randFloat(rng)
	}
	if draw("match_splits") {
		r.MatchSplits = rng.Intn(5) - 1
	}
	if draw("trace") {
		r.Trace = randSpan(rng, 2)
	}
	return r
}

// TestQueryResponseEncodingQuick pins appendJSON to encoding/json: for
// drawn answers, every optional field present and absent, it writes
// json.NewEncoder's bytes less the newline.
func TestQueryResponseEncodingQuick(t *testing.T) {
	check := func(r *queryResponse) bool {
		got, want := append(r.appendJSON(nil), '\n'), encodeRef(t, r)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSON differs from encoding/json:\n got %s\nwant %s", got, want)
			return false
		}
		return true
	}
	for _, f := range encodeFloats {
		check(&queryResponse{Matches: []traj.Match{{ID: 1, S: 2, T: 3, WED: f}}, Tau: f, MatchConfidence: f})
	}
	seen := map[string]int{}
	drawn := func(seed int64) bool { return check(randResponse(rand.New(rand.NewSource(seed)), seen)) }
	if err := quick.Check(drawn, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"cached", "matches", "empty matches", "tau", "stats", "topk stats",
		"resolved_q", "match_confidence", "match_splits", "trace"} {
		if seen[c] == 0 || seen["no "+c] == 0 {
			t.Errorf("case %q drawn %d times, its absence %d times", c, seen[c], seen["no "+c])
		}
	}
}

// tryPost posts body and returns the answer's headers and bytes; any
// status but 200 is an error.
func tryPost(url string, body any) (*http.Response, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d, body %s", url, resp.StatusCode, out)
	}
	return resp, out, err
}

func postRaw(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	resp, out, err := tryPost(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// checkReencodes decodes body into a fresh *T and requires json.NewEncoder
// to write the same bytes for it.
func checkReencodes[T any](t *testing.T, what string, body []byte) *T {
	t.Helper()
	v := new(T)
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s: decoding %s: %v", what, body, err)
	}
	if want := encodeRef(t, v); !bytes.Equal(body, want) {
		t.Errorf("%s: body differs from encoding/json:\n got %s\nwant %s", what, body, want)
	}
	return v
}

// TestQueryEndpointsEncodeAsEncodingJSON sends every query endpoint, a
// ?debug=trace search, a GPS trace query and a /v1/batch a request under
// each of the six cost models, and requires each body to be the bytes
// encoding/json writes for what it decodes to.
func TestQueryEndpointsEncodeAsEncodingJSON(t *testing.T) {
	env := testutil.NewEnv(5, 40, 20)
	fractional := 0
	for _, m := range env.Models() {
		t.Run(m.Name, func(t *testing.T) {
			ts := httptest.NewServer(New(NewSafeEngine(core.NewEngine(m.DS, m.Costs)), Config{MaxConcurrent: 4}))
			defer ts.Close()
			q := env.Query(m, 8)
			for _, c := range []struct {
				path string
				body map[string]any
			}{
				{"/v1/search?debug=trace", map[string]any{"q": q, "tau_ratio": 0.4}},
				{"/v1/search", map[string]any{"q": q, "tau_ratio": 0.4}},
				{"/v1/topk", map[string]any{"q": q, "k": 5}},
				{"/v1/temporal", map[string]any{"q": q, "tau_ratio": 0.4, "lo": 0, "hi": 1800}},
				{"/v1/exact", map[string]any{"q": q}},
				{"/v1/count", map[string]any{"q": q}},
			} {
				resp, body := postRaw(t, ts.URL+c.path, c.body)
				if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
					t.Errorf("%s: Content-Length %q for a %d-byte body", c.path, cl, len(body))
				}
				r := checkReencodes[queryResponse](t, c.path, body)
				for _, mt := range r.Matches {
					if mt.WED != math.Trunc(mt.WED) {
						fractional++
					}
				}
			}
			_, body := postRaw(t, ts.URL+"/v1/batch", map[string]any{"queries": []map[string]any{
				{"kind": "search", "q": q, "tau_ratio": 0.4},
				{"kind": "topk", "q": q, "k": 3},
				{"kind": "count", "q": q},
				{"kind": "bogus", "q": q},
			}})
			// encoding/json cannot decode into batchItemResponse's embedded
			// pointer to an unexported type, so each item is rebuilt by hand.
			var raw struct{ Results []json.RawMessage }
			if err := json.Unmarshal(body, &raw); err != nil {
				t.Fatalf("/v1/batch: decoding %s: %v", body, err)
			}
			var batch batchResponse
			for _, item := range raw.Results {
				var it batchItemResponse
				if err := json.Unmarshal(item, &struct{ Error *string }{&it.Error}); err != nil {
					t.Fatal(err)
				}
				if it.Error == "" {
					it.queryResponse = checkReencodes[queryResponse](t, "/v1/batch item", append(item, '\n'))
				}
				batch.Results = append(batch.Results, it)
			}
			if want := encodeRef(t, batch); !bytes.Equal(body, want) {
				t.Errorf("/v1/batch: body differs from encoding/json:\n got %s\nwant %s", body, want)
			}
		})
	}
	if fractional == 0 {
		t.Error("no answer carried a fractional WED: the float path went unchecked over HTTP")
	}

	_, ts := newGoldenServer(t)
	trace, _ := goldenTrace(10, 2, 5)
	_, body := postRaw(t, ts.URL+"/v1/search", map[string]any{"trace": trace, "tau_ratio": 0.3})
	if r := checkReencodes[queryResponse](t, "trace search", body); len(r.ResolvedQ) == 0 || r.MatchConfidence == 0 {
		t.Errorf("trace search answered without its resolution: %s", body)
	}
}

// TestConcurrentQueryAnswersByteIdentical runs searches, temporal
// searches and top-k queries with distinct answers concurrently beside
// appends that cannot match them, as the benchmark's ingest_mixed does,
// over a cached server. Every body must equal its query's sequential
// answer byte for byte, less the per-run cache flag and stage times, and
// must itself be what encoding/json writes: no pooled buffer is shared
// between answers or reused while a write reads it.
func TestConcurrentQueryAnswersByteIdentical(t *testing.T) {
	safe, w := newTestEngine(t)
	ts := httptest.NewServer(New(safe, Config{MaxConcurrent: 4, MaxSymbol: int32(w.Graph.NumVertices())}))
	defer ts.Close()
	type request struct {
		path string
		body map[string]any
	}
	var reqs []request
	used := map[traj.Symbol]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		q := sampleQuery(t, w.Data, 6, seed)
		for _, s := range q {
			used[s] = true
		}
		reqs = append(reqs,
			request{"/v1/search", map[string]any{"q": q, "tau_ratio": 0.5}},
			request{"/v1/temporal", map[string]any{"q": q, "tau_ratio": 0.5, "lo": 0, "hi": 2400}},
			request{"/v1/topk", map[string]any{"q": q, "k": 3}})
	}
	// Under Lev a path sharing no symbol with a query lies |Q| from it,
	// beyond every τ and top-k ceiling here.
	var foreign []traj.Symbol
	for s := range traj.Symbol(w.Graph.NumVertices()) {
		if !used[s] {
			foreign = append(foreign, s)
		}
	}
	cached, stats := regexp.MustCompile(`"cached":(true|false)`), regexp.MustCompile(`,"stats":\{[^}]*\}`)
	norm := func(b []byte) []byte { return stats.ReplaceAll(cached.ReplaceAll(b, []byte(`"cached":_`)), nil) }
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		_, body := postRaw(t, ts.URL+r.path, r.body)
		want[i] = norm(body)
		if !bytes.Contains(body, []byte(`"matches":[{`)) {
			t.Fatalf("%s %v: sequential answer has no match: %s", r.path, r.body, body)
		}
	}

	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 3 * len(reqs) {
				i := (g + k) % len(reqs)
				_, body, err := tryPost(ts.URL+reqs[i].path, reqs[i].body)
				if err != nil {
					t.Error(err)
					return
				}
				if got := norm(body); !bytes.Equal(got, want[i]) {
					t.Errorf("%s %v: concurrent answer\n%s\ndiffers from the sequential\n%s", reqs[i].path, reqs[i].body, got, want[i])
				}
				var v queryResponse
				if err := json.Unmarshal(body, &v); err != nil {
					t.Errorf("decoding %s: %v", body, err)
				} else if ref := encodeRef(t, &v); !bytes.Equal(body, ref) {
					t.Errorf("concurrent body differs from encoding/json:\n got %s\nwant %s", body, ref)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for range 40 {
			path := make([]traj.Symbol, 3+rng.Intn(8))
			for j := range path {
				path[j] = foreign[rng.Intn(len(foreign))]
			}
			if _, _, err := tryPost(ts.URL+"/v1/append", map[string]any{"path": path}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for i, r := range reqs {
		if _, body := postRaw(t, ts.URL+r.path, r.body); !bytes.Equal(norm(body), want[i]) {
			t.Errorf("%s %v: the appends changed the answer to\n%s", r.path, r.body, body)
		}
	}
}

// TestLargeAnswerNotPooled: an answer past maxRespBuf is written whole,
// with its Content-Length, and its buffer is not kept by the pool.
func TestLargeAnswerNotPooled(t *testing.T) {
	r := &queryResponse{Tau: 12}
	for i := range 40000 {
		r.Matches = append(r.Matches, traj.Match{ID: int32(i), S: int32(i % 50), T: int32(i%50 + 7), WED: float64(i%9) / 4})
	}
	r.Count = len(r.Matches)
	want := encodeRef(t, r)
	if len(want) <= maxRespBuf {
		t.Fatalf("answer of %d bytes is within the %d-byte cap", len(want), maxRespBuf)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, r)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("large answer written as %d bytes, want encoding/json's %d", rec.Body.Len(), len(want))
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Errorf("Content-Length %q, want %d", cl, len(want))
	}
	for range 4 {
		bp := respBufs.Get().(*[]byte)
		defer respBufs.Put(bp)
		if cap(*bp) > maxRespBuf {
			t.Fatalf("the pool kept a %d-byte buffer, past the %d-byte cap", cap(*bp), maxRespBuf)
		}
	}
}

// benchResponse is an EDR-like answer of n matches: integral WEDs, stats
// present.
func benchResponse(n int) *queryResponse {
	r := &queryResponse{Count: n, Tau: 18, Stats: &queryStatsJSON{SubseqLen: 43, Candidates: 3 * n,
		MinCandNS: 75_000, LookupNS: 175_000, VerifyNS: 46_000, PlusLen: 60}}
	for i := range n {
		r.Matches = append(r.Matches, traj.Match{ID: int32(37 * i), S: int32(i % 90), T: int32(i%90 + 58), WED: float64(i % 19)})
	}
	return r
}

// TestQueryResponseEncodeAllocs holds appendJSON into a warmed pooled
// buffer at zero allocations.
func TestQueryResponseEncodeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts change under -race")
	}
	r := benchResponse(500)
	r.MatchConfidence, r.ResolvedQ = 0.75, []traj.Symbol{1, 2, 3}
	bp := respBufs.Get().(*[]byte)
	defer respBufs.Put(bp)
	*bp = r.appendJSON((*bp)[:0])
	if allocs := testing.AllocsPerRun(100, func() { *bp = r.appendJSON((*bp)[:0]) }); allocs != 0 {
		t.Fatalf("appendJSON into a warmed buffer allocates %.1f times per answer, want 0", allocs)
	}
}

// BenchmarkQueryResponseEncode times appendJSON against the reference
// arm, json.NewEncoder as writeJSON used it, at 10 and 500 matches.
func BenchmarkQueryResponseEncode(b *testing.B) {
	for _, n := range []int{10, 500} {
		r := benchResponse(n)
		b.Run(fmt.Sprintf("matches=%d/enc=append", n), func(b *testing.B) {
			b.ReportAllocs()
			buf := r.appendJSON(nil)
			for b.Loop() {
				buf = r.appendJSON(buf[:0])
			}
		})
		b.Run(fmt.Sprintf("matches=%d/enc=encoding_json", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				json.NewEncoder(io.Discard).Encode(r)
			}
		})
	}
}
