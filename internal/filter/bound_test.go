package filter_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"subtraj/internal/filter"
	"subtraj/internal/index"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// TestExtendedBoundsAdmissible checks the pre-filter's two bounds over
// extended plans — Q⁺ = Q′ plus δ ∈ {1, 3, all} further positions —
// against brute force: for every trajectory, coverage ≤ chain ≤ the
// smallest WED of any of its subtrajectories, under all six cost models,
// random weighted tables, and lattice tables on halves (every sum exact)
// and tenths (sums that are equal in the reals round apart in floats).
// On the lattices c(Q⁺) − chain often equals that smallest WED in the
// reals; there the float bound can only stay at or below the float WED
// through filter.BoundSlack, and the test counts those ties.
func TestExtendedBoundsAdmissible(t *testing.T) {
	type world struct {
		name  string
		costs wed.FilterCosts
		ds    *traj.Dataset
		q     []traj.Symbol
	}
	var worlds []world
	env := testutil.NewEnv(46, 40, 24)
	for _, m := range env.Models() {
		worlds = append(worlds, world{m.Name, m.Costs, m.DS, env.Query(m, 10)}, world{m.Name + "/random-q", m.Costs, m.DS, env.RandomString(m, 10)})
	}
	rng := rand.New(rand.NewSource(47))
	randomQuery := func(alpha int) []traj.Symbol {
		q := make([]traj.Symbol, 4+rng.Intn(8))
		for j := range q {
			q[j] = traj.Symbol(rng.Intn(alpha))
		}
		return q
	}
	for i := 0; i < 30; i++ {
		name, rc := "table", testutil.NewRandomCosts(rng, 5, 1.5)
		switch i % 3 {
		case 1:
			name, rc = "halves", testutil.RandTableCosts(rng, 5)
		case 2:
			name = "tenths"
			for a := range rc.Tab {
				rc.ID[a] = math.Ceil(rc.ID[a]*10) / 10
				for b := range rc.Tab[a] {
					rc.Tab[a][b] = math.Round(rc.Tab[a][b]*10) / 10
				}
			}
		}
		worlds = append(worlds, world{name, rc, testutil.RandomDataset(rng, 5, 30, 20), randomQuery(5)})
	}
	// Q⁺ of two and three words per trajectory in Cover.
	for _, n := range []int{100, 140} {
		q := make([]traj.Symbol, n)
		for j := range q {
			q[j] = traj.Symbol(rng.Intn(5))
		}
		worlds = append(worlds, world{"long", testutil.NewRandomCosts(rng, 5, 1.5), testutil.RandomDataset(rng, 5, 30, 20), q})
	}

	var extended, ties int
	for _, w := range worlds {
		inv := index.Build(w.ds)
		best := make([]float64, w.ds.Len())
		for id := range best {
			best[id] = math.Inf(1)
			for _, m := range wed.AllMatches(w.costs, w.q, w.ds.Path(int32(id)), math.Inf(1)) {
				best[id] = min(best[id], m.WED)
			}
		}
		var cq float64
		for _, sym := range w.q {
			cq += w.costs.FilterCost(sym)
		}
		for _, ratio := range []float64{0.2, 0.6} {
			for _, delta := range []int{1, 3, len(w.q)} {
				plan, err := filter.BuildPlanDelta(w.costs, inv, w.q, ratio*cq, delta)
				if err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				if len(plan.Extra) == 0 {
					continue // Q′ is all of Q's positions that cost anything
				}
				extended++
				coverage, chain := plan.Bounds(inv)
				for id := range best {
					cov, touched := coverage[int32(id)]
					if !touched {
						cov = filter.LowerBound(plan.CPlus, 0)
					}
					ch, chained := chain[int32(id)]
					if !chained {
						ch = cov
					}
					if cov > ch || ch > best[id] {
						t.Fatalf("%s ratio %v δ %d trajectory %d: coverage %v, chain %v, best WED %v",
							w.name, ratio, len(plan.Extra), id, cov, ch, best[id])
					}
					if chained && math.Abs(ch+filter.BoundSlack*plan.CPlus-best[id]) <= 1e-9*plan.CPlus {
						ties++
					}
				}
			}
		}
	}
	t.Logf("%d extended plans, %d trajectories whose chain bound is tight", extended, ties)
	if extended < 100 || ties == 0 {
		t.Fatalf("%d extended plans, %d tight chain bounds: the property was not exercised", extended, ties)
	}
}

// TestCoverReuse runs one Cover, as a pooled scratch keeps it, through
// scans of one, two and three words per trajectory — first three words
// over 1,001 trajectories (3,003 words), then two, whose first posting is
// trajectory 1,501's at its last position (words 3,002 and 3,003) — and
// checks each scan's touched list and every covered weight and count
// against a reference.
func TestCoverReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var cov filter.Cover
	for _, scan := range []struct {
		items, n, maxID int
		first           int32 // the scan's first posting, at its last position
	}{
		{130, 1001, 1000, 1000},
		{100, 1001, 1600, 1501},
		{64, 0, 2000, 1999},
		{200, 10, 40, 40},
		{1, 5, 3000, 2},
		{63, 0, 100, 100},
		{127, 2000, 2500, 2400},
	} {
		cov.Start(scan.items, scan.n)
		w := make([]float64, scan.items)
		for i := range w {
			w[i] = rng.Float64()
		}
		covered := map[int32][]bool{}
		var order []int32 // the trajectories in the order the scan meets them
		add := func(i int, list []index.Posting) {
			for _, p := range list {
				if covered[p.ID] == nil {
					covered[p.ID] = make([]bool, scan.items)
					order = append(order, p.ID)
				}
				covered[p.ID][i] = true
			}
			cov.Add(list)
		}
		last := scan.items - 1
		cov.Item(last, w[last])
		add(last, []index.Posting{{ID: scan.first}})
		for _, i := range rng.Perm(scan.items) { // scan items run in any order
			cov.Item(i, w[i])
			for l := rng.Intn(3); l > 0; l-- {
				list := make([]index.Posting, rng.Intn(20))
				for j := range list {
					list[j] = index.Posting{ID: int32(rng.Intn(scan.maxID + 1))}
				}
				add(i, list)
			}
		}
		if !slices.Equal(cov.Touched, order) {
			t.Fatalf("%d items: touched %v, want %v", scan.items, cov.Touched, order)
		}
		for _, id := range order {
			var want float64
			count := 0
			for i, ok := range covered[id] {
				if ok {
					want += w[i]
					count++
				}
			}
			if got := cov.Weight(id); got != want {
				t.Fatalf("%d items: trajectory %d covers weight %v, want %v", scan.items, id, got, want)
			}
			if got := cov.Count(id); got != count {
				t.Fatalf("%d items: trajectory %d covers %d positions, want %d", scan.items, id, got, count)
			}
		}
	}
}
