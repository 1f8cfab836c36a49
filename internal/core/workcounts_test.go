package core_test

import (
	"math/rand"
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/testutil"
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
// two-full-walks Algorithm 4 reads 1,346 / 846 / 3,070 columns, StepDP
// calls and cells at 0.1, and 4,346 / 2,914 / 14,523 at 0.3, over the
// unpruned 185 and 444 candidates), or let the pre-filter through
// candidates it drops; this test would not. A change that moves a count on
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
	for _, want := range []struct {
		ratio float64
		verify.Stats
		pruned int
	}{
		{0.1, verify.Stats{Candidates: 61, ColumnsVisited: 729, StepDPCalls: 494, OneSided: 14, CellsComputed: 1829, Matches: 109}, 124},
		{0.3, verify.Stats{Candidates: 120, ColumnsVisited: 1824, StepDPCalls: 1244, OneSided: 12, CellsComputed: 6417, Matches: 534}, 324},
	} {
		var got verify.Stats
		pruned := 0
		for _, q := range queries {
			tau := want.ratio * core.SumFilterCost(m.Costs, q)
			_, st, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			got.Add(st.Verify)
			pruned += st.CandidatesPruned
		}
		if pruned != want.pruned {
			t.Errorf("τ_ratio %v: the pre-filter dropped %d candidates, want %d", want.ratio, pruned, want.pruned)
		}
		// Denominators and the node total follow from the pinned counts.
		got.ColumnsAvailable, got.CellsAvailable, got.TrieNodes = 0, 0, 0
		if got != want.Stats {
			t.Errorf("τ_ratio %v: work counts\n got %+v\nwant %+v", want.ratio, got, want.Stats)
		}
	}
}
