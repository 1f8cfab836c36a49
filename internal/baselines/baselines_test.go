package baselines_test

import (
	"testing"

	"subtraj/internal/baselines"
	"subtraj/internal/index"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
)

func feasibleTau(m testutil.Model, q []traj.Symbol, ratio float64) float64 {
	var c float64
	for _, sym := range q {
		c += m.Costs.FilterCost(sym)
	}
	return ratio * c
}

func TestDISONPrefixIsMinimal(t *testing.T) {
	env := testutil.NewEnv(41, 20, 15)
	m := env.Models()[0] // Lev: c(q) = 1
	inv := index.Build(m.DS)
	q := env.Query(m, 10)
	tau := 3.0
	items := baselines.DISONStrategy(m.Costs, inv, q, tau)
	if len(items) != 3 {
		t.Fatalf("prefix length %d, want 3 (unit costs, τ=3)", len(items))
	}
	for i, it := range items {
		if int(it.Pos) != i || it.Sym != q[i] {
			t.Fatalf("prefix item %d: %+v", i, it)
		}
	}
}

func TestTorchUsesAllSymbols(t *testing.T) {
	env := testutil.NewEnv(42, 20, 15)
	m := env.Models()[0]
	inv := index.Build(m.DS)
	q := env.Query(m, 10)
	items := baselines.TorchStrategy(m.Costs, inv, q, 2)
	if len(items) != len(q) {
		t.Fatalf("Torch chose %d items, want %d", len(items), len(q))
	}
}

func TestCandidateCountOrdering(t *testing.T) {
	// The headline of Figure 11: |C(OSF)| ≤ |C(DISON)| ≤ |C(Torch)| on
	// average. OSF optimises the choice, DISON takes an arbitrary valid
	// prefix, Torch scans everything, so on any single query OSF must
	// not exceed Torch, and Torch dominates DISON.
	env := testutil.NewEnv(43, 60, 25)
	for _, m := range env.Models() {
		inv := index.Build(m.DS)
		q := env.Query(m, 10)
		tau := feasibleTau(m, q, 0.3)
		vo := verify.Options{}
		dison := baselines.DISON(m.Costs, m.DS, inv, q, tau, vo)
		torch := baselines.Torch(m.Costs, m.DS, inv, q, tau, vo)
		if dison.Candidates > torch.Candidates {
			t.Fatalf("%s: DISON candidates %d > Torch %d", m.Name, dison.Candidates, torch.Candidates)
		}
	}
}

func TestPlainSWEmptyDataset(t *testing.T) {
	env := testutil.NewEnv(44, 10, 12)
	m := env.Models()[0]
	empty := traj.NewDataset(traj.VertexRep)
	res := baselines.PlainSW(m.Costs, empty, env.Query(m, 5), 2)
	if len(res.Matches) != 0 {
		t.Fatal("matches in empty dataset")
	}
}

func TestQGramIndexEntries(t *testing.T) {
	env := testutil.NewEnv(45, 20, 15)
	m := env.Models()[0]
	gi := baselines.NewQGramIndex(m.Costs, m.DS, 3)
	want := 0
	for id := range m.DS.Trajs {
		n := len(m.DS.Trajs[id].Path)
		if n >= 3 {
			want += n - 2
		}
	}
	if gi.Entries != want {
		t.Fatalf("entries %d, want %d", gi.Entries, want)
	}
}

func TestQGramVacuousBoundStillExact(t *testing.T) {
	// With a very loose τ the count bound collapses (≤ 0); the search
	// must fall back to scanning everything and stay exact.
	env := testutil.NewEnv(46, 15, 12)
	m := env.Models()[0] // Lev
	gi := baselines.NewQGramIndex(m.Costs, m.DS, 3)
	q := env.Query(m, 6)
	tau := float64(len(q)) * 0.9 // need = |Q|-q+1-τq < 0
	want := baselines.PlainSW(m.Costs, m.DS, q, tau)
	got := gi.Search(q, tau)
	if got.Candidates != m.DS.Len() {
		t.Fatalf("vacuous bound should scan all %d trajectories, scanned %d", m.DS.Len(), got.Candidates)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("results differ: %d vs %d", len(got.Matches), len(want.Matches))
	}
}

func TestDITAEnumerationCount(t *testing.T) {
	env := testutil.NewEnv(47, 6, 8)
	m := env.Models()[1] // EDR
	inv := index.Build(m.DS)
	d := baselines.NewDITA(m.Costs, m.DS, 4,
		baselines.FrequencyScore(func(s traj.Symbol) int { return inv.Freq(s) }))
	want := 0
	for id := range m.DS.Trajs {
		n := len(m.DS.Trajs[id].Path)
		want += n * (n + 1) / 2
	}
	if d.Subtrajectories != want {
		t.Fatalf("enumerated %d subtrajectories, want %d", d.Subtrajectories, want)
	}
	if d.Nodes() == 0 {
		t.Fatal("empty pivot trie")
	}
}

func TestERPIndexEnumerationCount(t *testing.T) {
	env := testutil.NewEnv(48, 6, 8)
	var m testutil.Model
	for _, mm := range env.Models() {
		if mm.Name == "ERP" {
			m = mm
		}
	}
	e := baselines.NewERPIndex(m.Costs, m.DS, env.G.Coords(), env.G.Barycenter())
	want := 0
	for id := range m.DS.Trajs {
		n := len(m.DS.Trajs[id].Path)
		want += n * (n + 1) / 2
	}
	if e.Subtrajectories != want {
		t.Fatalf("enumerated %d, want %d", e.Subtrajectories, want)
	}
}
