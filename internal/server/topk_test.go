package server

import (
	"encoding/json"
	"sync"
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/traj"
)

// TestTopKTauReported is the regression test for the tau:0 bug: /v1/topk
// must report the driver's final effective threshold on the computed
// path, and the cached path must replay the same value instead of the
// request's (unset) τ.
func TestTopKTauReported(t *testing.T) {
	_, ts, q := newTestServer(t)

	var taus [2]float64
	for i := 0; i < 2; i++ {
		resp, out := post(t, ts.URL+"/v1/topk", map[string]any{"q": q, "k": 3})
		if resp.StatusCode != 200 {
			t.Fatalf("topk status %d", resp.StatusCode)
		}
		var cached bool
		if err := json.Unmarshal(out["cached"], &cached); err != nil {
			t.Fatal(err)
		}
		if cached != (i == 1) {
			t.Fatalf("request %d: cached = %v", i, cached)
		}
		if raw, ok := out["tau"]; !ok {
			t.Fatalf("request %d (cached=%v): no tau in response", i, cached)
		} else if err := json.Unmarshal(raw, &taus[i]); err != nil {
			t.Fatal(err)
		}
		if taus[i] <= 0 {
			t.Fatalf("request %d (cached=%v): tau = %g, want > 0", i, cached, taus[i])
		}
		if i == 0 {
			// The computed response carries the driver's queue counters.
			var stats struct {
				Queued   int `json:"queued"`
				Verified int `json:"verified"`
			}
			var count int
			if err := json.Unmarshal(out["stats"], &stats); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(out["count"], &count); err != nil {
				t.Fatal(err)
			}
			if count == 0 || stats.Queued < stats.Verified || stats.Verified < count {
				t.Fatalf("topk stats: %+v for %d results, want queued ≥ verified ≥ results", stats, count)
			}
		}
	}
	if taus[0] != taus[1] {
		t.Fatalf("cached tau %g != computed tau %g", taus[1], taus[0])
	}
}

// TestShardWorkerConsistency asserts the /v1/stats worker accounting is
// produced by real QueryStats for every query kind — including top-k,
// which used to fake it — so parallel_queries and shard_workers stay
// consistent: with MaxParallelism 2 and queries whose work is over the
// engine's fan-out threshold, every executed query reports exactly 2
// workers.
func TestShardWorkerConsistency(t *testing.T) {
	w := fanOutWorkload()
	srv, ts := newPoolServer(t, w, 4, 2)
	q := sampleQuery(t, w.Data, fanOutQueryLen, 3)
	tau := srv.Engine().Threshold(q, fanOutTauRatio)

	reqs := []struct {
		path string
		body map[string]any
	}{
		{"/v1/search", map[string]any{"q": q, "tau": tau}},
		{"/v1/topk", map[string]any{"q": q, "k": 50}}, // k = 5 scans too few cells to fan out
		{"/v1/temporal", map[string]any{"q": q, "tau": tau, "lo": 0.0, "hi": 1e12}},
	}
	for _, r := range reqs {
		if resp, _ := post(t, ts.URL+r.path, r.body); resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", r.path, resp.StatusCode)
		}
	}

	var snap StatsSnapshot
	getJSON(t, ts.URL+"/v1/stats", &snap)
	if snap.Totals.Executed != int64(len(reqs)) {
		t.Fatalf("executed = %d, want %d", snap.Totals.Executed, len(reqs))
	}
	if want := 2 * snap.Totals.Executed; snap.Totals.ShardWorkers != want {
		t.Fatalf("shard_workers = %d, want %d (2 per executed query)", snap.Totals.ShardWorkers, want)
	}
	if snap.Totals.ParallelQueries != snap.Totals.Executed {
		t.Fatalf("parallel_queries = %d, want %d", snap.Totals.ParallelQueries, snap.Totals.Executed)
	}
	if snap.Totals.TopKQueued < snap.Totals.TopKVerified || snap.Totals.TopKVerified < 1 {
		t.Fatalf("topk_queued = %d, topk_verified = %d, want queued ≥ verified ≥ 1", snap.Totals.TopKQueued, snap.Totals.TopKVerified)
	}
}

// TestTopKUnderAppends exercises the top-k driver through the SafeEngine:
// its queue counters must add up, and queries must keep succeeding while
// appends publish new snapshots under them.
func TestTopKUnderAppends(t *testing.T) {
	safe, w := newTestEngine(t)
	q := sampleQuery(t, w.Data, 8, 2)
	res, stats, err := safe.SearchTopKStats(q, 5, core.TopKOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || stats == nil {
		t.Fatalf("no results or stats (%d, %+v)", len(res), stats)
	}
	if stats.TrajQueued < stats.TrajVerified || stats.TrajVerified < len(res) {
		t.Fatalf("queued %d, verified %d, %d results: want queued ≥ verified ≥ results", stats.TrajQueued, stats.TrajVerified, len(res))
	}
	if stats.EffectiveTau <= 0 {
		t.Fatalf("effective τ = %g", stats.EffectiveTau)
	}

	// Interleave appends (twins of trajectory 0, path copied up front —
	// the dataset slice reallocates under concurrent Appends): top-k
	// queries must keep succeeding throughout.
	twin := append([]traj.Symbol(nil), w.Data.Path(0)...)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				safe.Append(traj.Trajectory{Path: append([]traj.Symbol(nil), twin...)})
				if _, _, err := safe.SearchTopKStats(q, 5, core.TopKOptions{}); err != nil {
					t.Errorf("topk under appends: %v", err)
				}
			}
		}()
	}
	wg.Wait()
}
