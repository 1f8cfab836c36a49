package filter_test

import (
	"math"
	"math/rand"
	"testing"

	"subtraj/internal/filter"
	"subtraj/internal/index"
	"subtraj/internal/shortestpath"
	"subtraj/internal/spatial"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// TestPlanMasksMatchSub checks the plan's match masks over the whole
// alphabet: under Lev, EDR and NetEDR at |Q| ∈ {1, 2, 63, 64}, for drawn
// paths and random strings as queries, every vertex b of a 72 × 72 grid —
// in some B(q) or in none — must get the mask {i : sub(b, qᵢ) = 0} by
// brute force, and the run must meet presence-filter collisions (a miss
// the filter passes) and probe chains (a symbol past its home slot).
// Plans under ERP, NetERP and SURS, and plans of 65 symbols, carry no
// masks.
func TestPlanMasksMatchSub(t *testing.T) {
	cfg := workload.Tiny(60)
	cfg.GridRows, cfg.GridCols, cfg.NumTrajectories, cfg.TargetLen = 72, 72, 30, 90
	w := workload.Generate(cfg)
	und := shortestpath.Undirected(w.Graph)
	env := &testutil.Env{V: w.Data, Rng: rand.New(rand.NewSource(61))}
	alphabet := make([]traj.Symbol, w.Graph.NumVertices())
	for b := range alphabet {
		alphabet[b] = traj.Symbol(b)
	}
	got := make([]uint64, len(alphabet))
	var collisions, chained, checked int
	for _, m := range []testutil.Model{
		{Name: "Lev", Costs: wed.NewLev(), DS: w.Data},
		{Name: "EDR", Costs: wed.NewEDR(w.Graph.Coords(), spatial.Build(w.Graph.Coords()), 60), DS: w.Data},
		{Name: "NetEDR", Costs: wed.NewNetEDR(und, &ssspDist{adj: und}, w.Graph.MedianEdgeWeight()), DS: w.Data},
	} {
		inv := index.Build(m.DS)
		for _, n := range []int{1, 2, 63, 64, 65} {
			for _, q := range [][]traj.Symbol{env.Query(m, n), env.RandomString(m, n)} {
				plan, err := filter.BuildPlan(m.Costs, inv, q, 0.3*sumFilterCost(m, q))
				if err != nil {
					t.Fatalf("%s |Q| = %d: %v", m.Name, n, err)
				}
				masks := plan.Masks()
				if (masks != nil) != (n <= 64) {
					t.Fatalf("%s |Q| = %d: masks %v", m.Name, n, masks)
				}
				if masks == nil {
					continue
				}
				masks.Fill(got, alphabet)
				for b, mask := range got {
					var want uint64
					for i, qi := range q {
						if m.Costs.Sub(traj.Symbol(b), qi) == 0 {
							want |= 1 << i
						}
					}
					if mask != want {
						t.Fatalf("%s |Q| = %d, symbol %d: mask %#x, want %#x", m.Name, n, b, mask, want)
					}
				}
				c, h := plan.MaskProbes(alphabet)
				collisions, chained, checked = collisions+c, chained+h, checked+1
			}
		}
	}
	t.Logf("%d tables over %d symbols: %d presence-filter collisions, %d symbols on probe chains", checked, len(alphabet), collisions, chained)
	if collisions == 0 || chained == 0 {
		t.Fatalf("%d collisions, %d chained symbols: the table's miss and probe paths were not exercised", collisions, chained)
	}

	small := testutil.NewEnv(62, 20, 15)
	for _, m := range small.Models() {
		inv := index.Build(m.DS)
		q := small.RandomString(m, 10)
		plan, err := filter.BuildPlan(m.Costs, inv, q, 0.3*sumFilterCost(m, q))
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if _, unit := m.Costs.(wed.Unit); (plan.Masks() != nil) != unit {
			t.Fatalf("%s |Q| = 10: masks %v", m.Name, plan.Masks())
		}
	}
}

// ssspDist is exact network distance by one full Dijkstra per target,
// kept: the brute force asks for every vertex against a few query symbols.
type ssspDist struct {
	adj  *shortestpath.Adjacency
	from map[int32][]float64
}

func (d *ssspDist) Query(a, b int32) float64 {
	if d.from == nil {
		d.from = map[int32][]float64{}
	}
	dist, ok := d.from[b]
	if !ok {
		dist = make([]float64, d.adj.NumVertices())
		for v := range dist {
			dist[v] = math.Inf(1)
		}
		shortestpath.Bounded(d.adj, b, math.Inf(1), func(v int32, x float64) { dist[v] = x })
		d.from[b] = dist
	}
	return dist[a]
}
