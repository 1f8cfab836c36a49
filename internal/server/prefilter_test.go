package server

import (
	"encoding/json"
	"testing"

	"subtraj/internal/obs"
	"subtraj/internal/testutil"
)

// TestPreFilterStatsGolden pins what the trajectory-level pre-filter
// reports, on the golden grid under Lev at τ = 2, everywhere a query's
// candidate count is reported: the /v1/search stats, the verify span's
// attributes and the /v1/stats totals. The query runs along column 3 of
// the grid, rows 1–5, which the U-shaped path drives northwards from row 5
// to row 2 and the straight path crosses at row 1. Q′ is the two ends of
// the query, each on one path, and the plan adds the next two rows in from
// row 5 (northwards) or row 1 (southwards). Either way the straight path
// covers one of the four positions and is dropped before any DP, and the U
// covers three, so its coverage bound, c(Q⁺) − 3 = 1, stays below τ and
// it keeps its candidate. Queried northwards it matches; queried
// southwards it drives those three rows in the opposite order, and
// verification finds no match. Coverage ignores order, so only the
// verifier can tell the two apart.
func TestPreFilterStatsGolden(t *testing.T) {
	_, ts := newGoldenServer(t)
	v := testutil.GoldenVertex
	north := []any{v(5, 3), v(4, 3), v(3, 3), v(2, 3), v(1, 3)}
	south := []any{v(1, 3), v(2, 3), v(3, 3), v(4, 3), v(5, 3)}

	type stats struct {
		SubseqLen          int `json:"subseq_len"`
		Candidates         int `json:"candidates"`
		PlusLen            int `json:"plus_len"`
		PrunedTrajectories int `json:"pruned_trajectories"`
		PrunedCandidates   int `json:"pruned_candidates"`
	}
	for _, c := range []struct {
		q     []any
		count string
		want  stats
	}{
		{north, "1", stats{SubseqLen: 2, Candidates: 1, PlusLen: 4, PrunedTrajectories: 1, PrunedCandidates: 1}},
		{south, "0", stats{SubseqLen: 2, Candidates: 1, PlusLen: 4, PrunedTrajectories: 1, PrunedCandidates: 1}},
	} {
		resp, out := post(t, ts.URL+"/v1/search?debug=trace", map[string]any{"q": c.q, "tau": 2})
		if resp.StatusCode != 200 {
			t.Fatalf("q %v: status %d", c.q, resp.StatusCode)
		}
		var got stats
		if err := json.Unmarshal(out["stats"], &got); err != nil {
			t.Fatal(err)
		}
		if got != c.want || string(out["count"]) != c.count {
			t.Fatalf("q %v: stats %+v, count %s; want %+v, count %s", c.q, got, out["count"], c.want, c.count)
		}
		var tree obs.SpanJSON
		if err := json.Unmarshal(out["trace"], &tree); err != nil {
			t.Fatal(err)
		}
		verify := findChild(findChild(&tree, "engine"), "verify")
		if verify == nil {
			t.Fatalf("q %v: no verify span", c.q)
		}
		for attr, want := range map[string]int{"candidates": c.want.Candidates, "pruned_trajectories": c.want.PrunedTrajectories, "pruned_candidates": c.want.PrunedCandidates} {
			if got, _ := verify.Attrs[attr].(float64); got != float64(want) {
				t.Errorf("q %v: verify span %s = %v, want %d", c.q, attr, verify.Attrs[attr], want)
			}
		}
	}

	var snap StatsSnapshot
	getJSON(t, ts.URL+"/v1/stats", &snap)
	if tot := snap.Totals; tot.Candidates != 2 || tot.PrunedTrajectories != 2 || tot.PrunedCandidates != 2 {
		t.Fatalf("/v1/stats totals: %d candidates, %d trajectories and %d candidates pruned; want 2, 2, 2",
			tot.Candidates, tot.PrunedTrajectories, tot.PrunedCandidates)
	}
}
