package server

import (
	"net/http/httptest"
	"sync"
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// This file pins the server side of the per-query fan-out contract:
// /v1/stats counts the workers a query USED (core.QueryStats.Workers),
// not the pool slots it was lent. The engine fans a query out only when
// its estimated work pays for it, so the two differ for most queries.

// fanOutWorkload is a dataset big enough that fanOutQuery — 20 symbols at
// τ_ratio 0.8 under fanOutCosts — keeps a few thousand candidates after
// the trajectory-level pre-filter: several times the work the engine wants
// per worker, so it takes every worker offered. (At 0.3 the pre-filter
// leaves under a hundred of its 3,000.) Built once; tests only read it.
var fanOutWorkload = sync.OnceValue(func() *workload.Workload {
	cfg := workload.Tiny(7)
	cfg.NumTrajectories = 4000
	return workload.Generate(cfg)
})

const (
	fanOutQueryLen = 20
	fanOutTauRatio = 0.8
)

// fanOutCosts is SURS over unit road lengths: Lev's filter — B(q) = {q},
// c(q) = 1, so the same candidates and the same estimated work — but a
// substitution costs 2, so it is not a unit-cost model and its queries
// take the candidate walk. Under Lev the engine would enumerate them by
// words (verify.Enumerate), work too small to fan out.
func fanOutCosts(w *workload.Workload) wed.FilterCosts {
	ones := make([]float64, w.Graph.NumVertices())
	for i := range ones {
		ones[i] = 1
	}
	return wed.NewSURS(ones)
}

// newPoolServer builds a server over w under fanOutCosts with the given
// pool size and per-query parallelism cap, and no result cache: every
// request must hit the engine.
func newPoolServer(t *testing.T, w *workload.Workload, maxConcurrent, maxParallelism int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(NewSafeEngine(core.NewEngine(w.Data, fanOutCosts(w))), Config{
		CacheSize:      -1,
		MaxConcurrent:  maxConcurrent,
		MaxParallelism: maxParallelism,
		MaxSymbol:      int32(w.Graph.NumVertices()),
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func searchOnce(t *testing.T, ts *httptest.Server, w *workload.Workload, qlen int, ratio float64) StatsSnapshot {
	t.Helper()
	q := sampleQuery(t, w.Data, qlen, 3)
	if resp, _ := post(t, ts.URL+"/v1/search", map[string]any{"q": q, "tau_ratio": ratio}); resp.StatusCode != 200 {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	var snap StatsSnapshot
	getJSON(t, ts.URL+"/v1/stats", &snap)
	return snap
}

// TestSmallQueryDeclinesFanOut: a tiny query on an idle pool is lent two
// extra slots and uses neither — one worker, no parallel query.
func TestSmallQueryDeclinesFanOut(t *testing.T) {
	w := workload.Generate(workload.Tiny(7))
	srv, ts := newPoolServer(t, w, 8, 3)
	snap := searchOnce(t, ts, w, 6, 0.3)
	if srv.queryParallelism() != 3 {
		t.Fatalf("queryParallelism = %d, want 3", srv.queryParallelism())
	}
	if snap.Totals.ShardWorkers != 1 || snap.Totals.ParallelQueries != 0 {
		t.Fatalf("tiny query on an idle pool: shard_workers = %d, parallel_queries = %d; want 1 and 0",
			snap.Totals.ShardWorkers, snap.Totals.ParallelQueries)
	}
	if snap.Pool.InFlight != 0 {
		t.Fatalf("pool did not drain: %d in flight", snap.Pool.InFlight)
	}
}

// TestShardedQueryUsesBudget: a query whose work is over the threshold,
// on an idle pool of 8 with a cap of 3, runs on its own slot plus the two
// it borrowed.
func TestShardedQueryUsesBudget(t *testing.T) {
	w := fanOutWorkload()
	_, ts := newPoolServer(t, w, 8, 3)
	snap := searchOnce(t, ts, w, fanOutQueryLen, fanOutTauRatio)
	if snap.Totals.Candidates < 2000 {
		t.Fatalf("query yields %d candidates: too few to be sure of a fan-out", snap.Totals.Candidates)
	}
	if snap.Totals.ShardWorkers != 3 {
		t.Fatalf("shard workers = %d, want 3", snap.Totals.ShardWorkers)
	}
	if snap.Totals.ParallelQueries != 1 {
		t.Fatalf("parallel queries = %d, want 1", snap.Totals.ParallelQueries)
	}
}

// TestShardedQueryDegradesUnderLoad checks the shared-budget contract:
// with a single pool slot there are no extras to borrow, so even a query
// over the threshold runs the sequential path instead of oversubscribing.
func TestShardedQueryDegradesUnderLoad(t *testing.T) {
	w := fanOutWorkload()
	_, ts := newPoolServer(t, w, 1, 4)
	snap := searchOnce(t, ts, w, fanOutQueryLen, fanOutTauRatio)
	if snap.Totals.ShardWorkers != 1 {
		t.Fatalf("shard workers = %d, want 1 (pool has a single slot)", snap.Totals.ShardWorkers)
	}
	if snap.Totals.ParallelQueries != 0 {
		t.Fatalf("parallel queries = %d, want 0", snap.Totals.ParallelQueries)
	}
	if snap.Pool.InFlight != 0 {
		t.Fatalf("pool did not drain: %d in flight", snap.Pool.InFlight)
	}
}

// TestShardedServerResultsMatchSequential compares the HTTP answer of a
// server that fans out against a sequential one.
func TestShardedServerResultsMatchSequential(t *testing.T) {
	w := fanOutWorkload()
	parSrv, par := newPoolServer(t, w, 8, 4)
	_, seq := newPoolServer(t, w, 8, 1)
	for seed := int64(1); seed <= 3; seed++ {
		q := sampleQuery(t, w.Data, fanOutQueryLen, seed)
		body := map[string]any{"q": q, "tau_ratio": fanOutTauRatio}
		_, gotP := post(t, par.URL+"/v1/search", body)
		_, gotS := post(t, seq.URL+"/v1/search", body)
		if string(gotP["matches"]) != string(gotS["matches"]) || string(gotP["count"]) != string(gotS["count"]) {
			t.Fatalf("seed %d: parallel answer %s (count %s) != sequential %s (count %s)",
				seed, gotP["matches"], gotP["count"], gotS["matches"], gotS["count"])
		}
	}
	if n := parSrv.metrics.parallelQueries.Value(); n != 3 {
		t.Fatalf("%d of 3 queries fanned out on the parallel server", n)
	}
}
