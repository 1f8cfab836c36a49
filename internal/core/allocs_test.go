package core_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/testutil"
	"subtraj/internal/verify"
)

// steadyAllocs reports what one steady-state call of f allocates: after
// warm calls to fill the pools, the minimum over 5 batches of 10 calls,
// with the collector off throughout. Both guard against events that are
// not f's doing: a collection empties the sync.Pools, and when the test
// goroutine changes P between a verifier's Put and the next Get the
// pool's per-P slot misses — either way the next call recompiles its
// cost rows. A per-query regression shows in every batch, a pool miss
// in one.
func steadyAllocs(warm int, f func()) (allocs, bytes float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < warm; i++ {
		f()
	}
	const batches, runs = 5, 10
	allocs, bytes = math.Inf(1), math.Inf(1)
	var m0, m1 runtime.MemStats
	for b := 0; b < batches; b++ {
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		allocs = min(allocs, float64(m1.Mallocs-m0.Mallocs)/runs)
		bytes = min(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/runs)
	}
	return allocs, bytes
}

// searchAllocBudget is the allocation-regression guard for the pooled
// query path (allocs per sequential Search, steady state). The banded
// pipeline with grouped match accumulation measures 35 allocs and 2.6 KB
// per op on Lev (plan construction and the returned result slice
// dominate; compiled cost rows, column and match buffers are all pooled);
// the budget leaves headroom for benign churn while still catching a
// per-candidate or per-column allocation regression, which shows up in
// the thousands.
const searchAllocBudget = 90

func TestPooledSearchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts change under -race")
	}
	env := testutil.NewEnv(41, 60, 24)
	m := env.Models()[0] // Lev: no spatial/network substrate allocations
	eng := core.NewEngine(m.DS, m.Costs)
	q := env.Query(m, 8)
	tau := oracleTaus(m.Costs, m.DS, q)[1]
	search := func() {
		if _, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Five calls warm the pools (verifier, cost rows, candidate buffers).
	if allocs, _ := steadyAllocs(5, search); allocs > searchAllocBudget {
		t.Fatalf("sequential pooled search allocates %.1f allocs/op, budget %d", allocs, searchAllocBudget)
	}
}

// Budgets of the wide-τ guard: steady-state allocations and bytes per
// sequential EDR search at τ_ratio 0.7, where one query enumerates
// thousands of matches — by words, 5.9 k word columns (242 k cells as
// booked), and on the paper's candidate walk 850 k DP cells. Each measures
// 24 allocs and 27.2 KB (plan, candidates, results): the plan's pooled
// mask table, the verifier's position and mask buffers, its two columns,
// compiled rows and match buffers serve every trajectory and candidate; a
// buffer reallocated per trajectory or candidate shows as megabytes. (At
// 0.3, the ratio the budgets were set at, the trajectory-level pre-filter
// now leaves a twentieth of the cells.)
const (
	wideSearchAllocBudget = 120
	wideSearchBytesBudget = 256 << 10
)

func TestPooledWideSearchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts change under -race")
	}
	env := testutil.NewEnv(42, 1500, 60)
	m := env.Models()[1] // EDR
	eng := core.NewEngine(m.DS, m.Costs)
	q := env.Query(m, 40)
	tau := 0.7 * float64(len(q)) // EDR: c(q) = 1 per symbol
	for _, opts := range []verify.Options{{}, {CandidateWalk: true}} {
		var cells int64
		search := func() {
			_, st, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: 1, Verify: opts})
			if err != nil {
				t.Fatal(err)
			}
			cells = st.Verify.CellsComputed
		}
		allocs, bytes := steadyAllocs(3, search)
		if cells < 200_000 {
			t.Fatalf("%+v: query computes only %d DP cells: not a wide-τ query", opts, cells)
		}
		t.Logf("%+v: %d cells: %.0f allocs/op, %.0f B/op", opts, cells, allocs, bytes)
		if allocs > wideSearchAllocBudget || bytes > wideSearchBytesBudget {
			t.Fatalf("%+v: wide-τ pooled search allocates %.0f allocs/op and %.0f B/op, budget %d and %d",
				opts, allocs, bytes, wideSearchAllocBudget, wideSearchBytesBudget)
		}
	}
}

// Budgets of the top-k guard: steady-state allocations and bytes per EDR
// top-k query (k = 10, |Q| = 30) with warm pools. The best-first driver
// allocates the plan, the result table and, when fanned out, the workers'
// goroutines — its queue scratch and its verifiers, which hold only
// compiled cost rows and two columns, are pooled — and measures 30
// allocs and 5.1 KB sequentially, 34–35 and 5.2–5.5 KB on two workers; each
// further worker adds about four allocations. One allocation per scanned
// trajectory (about 30 here) crosses the bytes budget. The τ-growth driver
// it replaced took 364 allocs and 39 MB for the same query.
const (
	topKAllocBudget = 150
	topKBytesBudget = 16 << 10
)

func TestPooledTopKAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts change under -race")
	}
	env := testutil.NewEnv(43, 1500, 60)
	m := env.Models()[1] // EDR
	eng := core.NewEngine(m.DS, m.Costs)
	q := env.Query(m, 30)
	for _, par := range []int{1, 0} {
		search := func() {
			if res, _, err := eng.SearchTopKStats(q, 10, core.TopKOptions{Parallelism: par}); err != nil || len(res) != 10 {
				t.Fatalf("par=%d: %d results, %v", par, len(res), err)
			}
		}
		// Fanned out, which pooled verifier meets which piece of the
		// queue varies from run to run, so every verifier's compiled rows
		// take a dozen runs to have met every symbol of its pieces.
		allocs, bytes := steadyAllocs(15, search)
		t.Logf("par=%d: %.0f allocs/op, %.0f B/op", par, allocs, bytes)
		if allocs > topKAllocBudget || bytes > topKBytesBudget {
			t.Fatalf("par=%d: pooled top-k allocates %.0f allocs/op and %.0f B/op, budget %d and %d",
				par, allocs, bytes, topKAllocBudget, topKBytesBudget)
		}
	}
}
