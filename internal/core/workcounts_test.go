package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/workload"
)

// TestVerifyWorkCountsGolden pins how much work verification does, not
// only what it returns: the exact candidate, visited-column, computed-column
// and computed-cell totals of 16 fixed queries on workload.Tiny(42) under
// EDR, sequential, at the paper's default τ_ratio 0.1 and at 0.3, and the
// candidates the trajectory-level pre-filter dropped before them. The
// counts are deterministic, so unlike a timing they can gate on any
// runner. Every equivalence suite compares answers and would stay green
// if a change quietly walked both sides of every candidate again (the
// two-full-walks Algorithm 4 read 1,346 columns at 0.1 and 4,346 at 0.3
// over the unpruned 185 and 444 candidates), or let the pre-filter through
// candidates it drops; this test would not. Every visited column is
// computed — no column is cached across candidates — so StepDP calls equal
// visited columns. The walk rows run the paper's candidate walk
// (verify.Options.CandidateWalk); the word rows run what the engine runs
// for EDR by default, the word enumeration, whose every column books
// |Q| + 1 cells and which rejects no candidate one-sided. Both return the
// same matches. A change that moves a count on
// purpose updates the table and says why in CHANGES.md.
func TestVerifyWorkCountsGolden(t *testing.T) {
	env := testutil.NewEnv(42, 60, 25) // workload.Tiny(42) as generated
	m := env.Models()[1]
	if m.Name != "EDR" {
		t.Fatalf("model order changed: got %s", m.Name)
	}
	queries, err := workload.SampleQueries(m.DS, 12, 16, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(m.DS, m.Costs)
	walk := verify.Options{CandidateWalk: true}
	for _, want := range []struct {
		ratio float64
		opts  verify.Options
		verify.Stats
		pruned int
	}{
		{0.1, walk, verify.Stats{Candidates: 82, ColumnsVisited: 780, StepDPCalls: 780, OneSided: 35, CellsComputed: 2921, Matches: 109}, 103},
		{0.3, walk, verify.Stats{Candidates: 183, ColumnsVisited: 2160, StepDPCalls: 2160, OneSided: 67, CellsComputed: 11428, Matches: 534}, 261},
		{0.1, verify.Options{}, verify.Stats{Candidates: 82, ColumnsVisited: 1432, StepDPCalls: 1432, CellsComputed: 18616, Matches: 109}, 103},
		{0.3, verify.Options{}, verify.Stats{Candidates: 183, ColumnsVisited: 3090, StepDPCalls: 3090, CellsComputed: 40170, Matches: 534}, 261},
	} {
		var got verify.Stats
		pruned := 0
		for _, q := range queries {
			tau := want.ratio * core.SumFilterCost(m.Costs, q)
			_, st, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: 1, Verify: want.opts})
			if err != nil {
				t.Fatal(err)
			}
			got.Add(st.Verify)
			pruned += st.CandidatesPruned
		}
		if pruned != want.pruned {
			t.Errorf("τ_ratio %v %+v: the pre-filter dropped %d candidates, want %d", want.ratio, want.opts, pruned, want.pruned)
		}
		// The denominators follow from the pinned counts.
		got.ColumnsAvailable, got.CellsAvailable = 0, 0
		if got != want.Stats {
			t.Errorf("τ_ratio %v %+v: work counts\n got %+v\nwant %+v", want.ratio, want.opts, got, want.Stats)
		}
	}
}

// TestWordGate pins which verification a threshold search runs: the word
// enumeration exactly under the default options, a unit-cost model and
// |Q| ≤ 64 (verify.WordScan), the candidate walk otherwise — at |Q| = 65,
// under a float model, and under any ablation. The two return the same
// matches; their work counts tell them apart: a query on the walk counts
// what verify.Options{CandidateWalk: true} counts, and one on the words
// books |Q| + 1 cells per column and rejects no candidate one-sided.
func TestWordGate(t *testing.T) {
	env := testutil.NewEnv(44, 30, 90)
	models := env.Models()
	for _, m := range models[:3] { // Lev, EDR, ERP
		for _, n := range []int{64, 65} {
			q := env.Query(m, n)
			if len(q) != n {
				t.Fatalf("no path of %d symbols to sample a query from", n)
			}
			tau := 0.1 * core.SumFilterCost(m.Costs, q)
			eng := core.NewEngine(m.DS, m.Costs)
			search := func(opts verify.Options) ([]traj.Match, verify.Stats) {
				res, st, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: 1, Verify: opts})
				if err != nil {
					t.Fatal(err)
				}
				return res, st.Verify
			}
			walkRes, walk := search(verify.Options{CandidateWalk: true})
			res, st := search(verify.Options{})
			if !slices.Equal(res, walkRes) {
				t.Fatalf("%s |Q|=%d: the default verification and the walk differ", m.Name, n)
			}
			if walk.Candidates == 0 {
				t.Fatalf("%s |Q|=%d: no candidate to verify", m.Name, n)
			}
			words := verify.WordScan(m.Costs, n)
			if words != (m.Name != "ERP" && n <= 64) {
				t.Fatalf("%s |Q|=%d: WordScan = %v", m.Name, n, words)
			}
			if got := st != walk; got != words {
				t.Errorf("%s |Q|=%d: default counts %+v, walk counts %+v: took the words = %v, want %v", m.Name, n, st, walk, got, words)
			}
			if words && (st.OneSided != 0 || st.CellsComputed != int64(n+1)*st.ColumnsVisited) {
				t.Errorf("%s |Q|=%d: %+v is not the word enumeration's count", m.Name, n, st)
			}
			_, ablated := search(verify.Options{DisableEarlyTermination: true})
			if _, want := search(verify.Options{CandidateWalk: true, DisableEarlyTermination: true}); ablated != want {
				t.Errorf("%s |Q|=%d: DisableEarlyTermination alone does not take the walk", m.Name, n)
			}
		}
	}
}
