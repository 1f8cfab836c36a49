package core_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"subtraj/internal/core"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// oracleWorld is one generated input of the search oracle: a dataset with
// timestamps, a cost model, a query, a threshold and a departure window.
type oracleWorld struct {
	name    string
	costs   wed.FilterCosts
	ds      *traj.Dataset
	q       []traj.Symbol
	tau     float64
	lo, hi  float64
	lattice bool // costs on the ½-lattice: every sum is exact, so WEDs compare bit for bit
}

// newOracleWorld draws a world. Half are a small random road network
// (testutil.NewEnv over a drawn seed and size) under one of the six paper
// models, the threshold placed between two distinct WEDs so rounding cannot
// decide membership; half are random strings under a RandTableCosts
// lattice table, the threshold itself a lattice point, so WEDs, bound sums
// and τ tie exactly. It returns false when the draw has no feasible τ.
func newOracleWorld(rng *rand.Rand) (oracleWorld, bool) {
	var w oracleWorld
	if rng.Intn(2) == 0 {
		env := testutil.NewEnv(rng.Int63(), 4+rng.Intn(30), 6+rng.Intn(20))
		models := env.Models()
		m := models[rng.Intn(len(models))]
		w.name, w.costs, w.ds = m.Name, m.Costs, m.DS
		w.q = env.Query(m, 2+rng.Intn(9))
	} else {
		const alpha = 5
		w.name, w.lattice = "lattice", true
		w.costs = testutil.RandTableCosts(rng, alpha)
		w.ds = testutil.RandomDataset(rng, alpha, 1+rng.Intn(30), 20)
		for id := range w.ds.Trajs {
			t := &w.ds.Trajs[id]
			t.Times = make([]float64, len(t.Path))
			at := rng.Float64() * 1000
			for i := range t.Times {
				t.Times[i] = at
				at += 1 + rng.Float64()*30
			}
		}
		w.q = make([]traj.Symbol, 1+rng.Intn(8))
		for i := range w.q {
			w.q[i] = traj.Symbol(rng.Intn(alpha))
		}
	}
	maxTau := min(wed.SumIns(w.costs, w.q), core.SumFilterCost(w.costs, w.q))
	if maxTau <= 0 {
		return w, false
	}
	if w.lattice {
		w.tau = float64(1+rng.Intn(int(2*maxTau))) / 2
	} else {
		var weds []float64
		for id := range w.ds.Trajs {
			for _, m := range wed.AllMatches(w.costs, w.q, w.ds.Path(int32(id)), maxTau) {
				weds = append(weds, m.WED)
			}
		}
		w.tau = testutil.PickTau(weds, rng.Float64(), maxTau)
	}
	if dep, ok := w.ds.Get(int32(rng.Intn(w.ds.Len()))).Departure(); ok {
		w.lo = dep - rng.Float64()*600
		w.hi = w.lo + rng.Float64()*1200
	}
	return w, true
}

// oracleMatches is Definition 3 by brute force: every subtrajectory of
// every trajectory (departing inside [lo, hi] when window is set) whose
// WED is below τ, by the full-matrix DP, in (ID, S, T) order.
func oracleMatches(w *oracleWorld, window bool) []traj.Match {
	var out []traj.Match
	for id := range w.ds.Trajs {
		if window {
			dep, ok := w.ds.Get(int32(id)).Departure()
			if !ok || dep < w.lo || dep > w.hi {
				continue
			}
		}
		for _, m := range wed.AllMatches(w.costs, w.q, w.ds.Path(int32(id)), w.tau) {
			out = append(out, traj.Match{ID: int32(id), S: int32(m.S), T: int32(m.T), WED: m.WED})
		}
	}
	slices.SortFunc(out, func(a, b traj.Match) int {
		if a.ID != b.ID {
			return int(a.ID - b.ID)
		}
		if a.S != b.S {
			return int(a.S - b.S)
		}
		return int(a.T - b.T)
	})
	return out
}

// TestSearchMatchesOracleQuick is the threshold search's generative
// oracle: over drawn networks, datasets, cost models, queries and
// thresholds, SearchQuery returns exactly the brute-force match set on
// every configuration — pointer and compact base, empty and non-empty
// delta, Parallelism 1 and a forced fan-out, plain and departure-window
// queries — and every configuration returns the same bits. It knows
// nothing of the filter, the bounds or the verifier it is testing.
func TestSearchMatchesOracleQuick(t *testing.T) {
	core.ForceFanOut(t)
	var ran, matched, lattice, windowed int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, ok := newOracleWorld(rng)
		if !ok {
			return true
		}
		ran++
		if w.lattice {
			lattice++
		}
		for _, window := range []bool{false, true} {
			want := oracleMatches(&w, window)
			if len(want) > 0 {
				matched++
				if window {
					windowed++
				}
			}
			var first []traj.Match
			for _, ne := range fanOutEngines(w.ds, w.costs) {
				for _, par := range []int{1, 3} {
					qr := core.Query{Q: w.q, Tau: w.tau, Parallelism: par}
					if window {
						qr.Temporal.Mode = core.TemporalDeparture
						qr.Temporal.Lo, qr.Temporal.Hi = w.lo, w.hi
					}
					got, _, err := ne.eng.SearchQuery(qr)
					if err != nil {
						t.Errorf("seed %d %s/%s par=%d window=%v: %v", seed, w.name, ne.name, par, window, err)
						return false
					}
					if first == nil {
						first = got
						if !sameOracleMatches(got, want, w.lattice) {
							t.Errorf("seed %d %s/%s par=%d window=%v τ=%v q=%v: %d matches, oracle %d\n got %v\nwant %v",
								seed, w.name, ne.name, par, window, w.tau, w.q, len(got), len(want), got, want)
							return false
						}
					} else if !slices.Equal(got, first) {
						t.Errorf("seed %d %s/%s par=%d window=%v: differs from the first configuration's bits", seed, w.name, ne.name, par, window)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(101))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d worlds (%d lattice), %d queries with matches (%d windowed)", ran, lattice, matched, windowed)
	if ran < 200 || lattice == 0 || lattice == ran || windowed == 0 {
		t.Fatalf("too few worlds of some kind: %d ran, %d lattice, %d windowed with matches", ran, lattice, windowed)
	}
}

// sameOracleMatches compares by (ID, S, T) and WED — bit for bit on the
// lattice, to 1e-9 relative where the two DPs add real costs in different
// orders.
func sameOracleMatches(got, want []traj.Match, exact bool) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key() != w.Key() {
			return false
		}
		if exact && g.WED != w.WED || math.Abs(g.WED-w.WED) > 1e-9*(1+math.Abs(w.WED)) {
			return false
		}
	}
	return true
}
