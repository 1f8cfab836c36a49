package core_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"subtraj/internal/baselines"
	"subtraj/internal/core"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// oracleTopK computes the reference top-k: exhaustive per-trajectory best
// matches inside the engine's searchable radius, sorted like SearchTopK.
func oracleTopK(costs wed.FilterCosts, ds *traj.Dataset, q []traj.Symbol, k int) []traj.Match {
	ceiling := core.SumFilterCost(costs, q)
	if s := wed.SumIns(costs, q); s < ceiling {
		ceiling = s
	}
	ceiling *= 1 - 1e-12
	all := baselines.PlainSW(costs, ds, q, ceiling).Matches
	best := map[int32]traj.Match{}
	for _, m := range all {
		b, ok := best[m.ID]
		if !ok || m.WED < b.WED ||
			(m.WED == b.WED && (m.T-m.S < b.T-b.S ||
				(m.T-m.S == b.T-b.S && (m.S < b.S || (m.S == b.S && m.T < b.T))))) {
			best[m.ID] = m
		}
	}
	flat := make([]traj.Match, 0, len(best))
	for _, m := range best {
		flat = append(flat, m)
	}
	// Same ordering as SearchTopK.
	for i := 0; i < len(flat); i++ {
		for j := i + 1; j < len(flat); j++ {
			if topKLess(flat[j], flat[i]) {
				flat[i], flat[j] = flat[j], flat[i]
			}
		}
	}
	if len(flat) > k {
		flat = flat[:k]
	}
	return flat
}

func topKLess(a, b traj.Match) bool {
	if a.WED != b.WED {
		return a.WED < b.WED
	}
	la, lb := a.T-a.S, b.T-b.S
	if la != lb {
		return la < lb
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.S != b.S {
		return a.S < b.S
	}
	return a.T < b.T
}

func TestSearchTopKMatchesOracle(t *testing.T) {
	env := testutil.NewEnv(31, 35, 22)
	for _, m := range env.Models() {
		eng := core.NewEngine(m.DS, m.Costs)
		q := env.Query(m, 8)
		for _, k := range []int{1, 3, 10, 1000} {
			got, err := eng.SearchTopK(q, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", m.Name, k, err)
			}
			want := oracleTopK(m.Costs, m.DS, q, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: got %d results, want %d", m.Name, k, len(got), len(want))
			}
			for i := range got {
				// WED values must agree; exact (ID,S,T) may differ only
				// under exact WED ties, which the shared ordering rules
				// out.
				if math.Abs(got[i].WED-want[i].WED) > 1e-9*(1+want[i].WED) {
					t.Fatalf("%s k=%d rank %d: wed %v != %v", m.Name, k, i, got[i].WED, want[i].WED)
				}
				if got[i].Key() != want[i].Key() {
					t.Fatalf("%s k=%d rank %d: %+v != %+v", m.Name, k, i, got[i], want[i])
				}
			}
			// One result per trajectory.
			seen := map[int32]bool{}
			for _, r := range got {
				if seen[r.ID] {
					t.Fatalf("%s: duplicate trajectory %d in top-k", m.Name, r.ID)
				}
				seen[r.ID] = true
			}
		}
	}
}

// checkTopKAgainstRestart demands, at Parallelism 1 and 4, the restart
// oracle's answer bit for bit — same (ID, S, T) order, same WED bits, same
// effective τ — and queue counters that add up. Callers zero the fan-out
// threshold, so Parallelism 4 deals the queue to four workers.
func checkTopKAgainstRestart(t *testing.T, label string, eng *core.Engine, q []traj.Symbol, k int) *core.QueryStats {
	t.Helper()
	want, wantTau, err := eng.SearchTopKRestart(q, k)
	if err != nil {
		t.Fatalf("%s k=%d restart oracle: %v", label, k, err)
	}
	var st *core.QueryStats
	for _, par := range []int{1, 4} {
		var got []traj.Match
		got, st, err = eng.SearchTopKStats(q, k, core.TopKOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("%s k=%d par=%d: %v", label, k, par, err)
		}
		assertIdenticalResults(t, label+"/topk", got, want)
		if st.EffectiveTau != wantTau {
			t.Fatalf("%s k=%d par=%d: effective τ %v, oracle %v", label, k, par, st.EffectiveTau, wantTau)
		}
		if st.Rounds != 1 || st.TrajQueued < st.TrajVerified || st.TrajVerified < len(got) {
			t.Fatalf("%s k=%d par=%d: rounds %d, queued %d, verified %d, %d results",
				label, k, par, st.Rounds, st.TrajQueued, st.TrajVerified, len(got))
		}
		if want := min(par, k); st.Workers != want { // never more workers than results
			t.Fatalf("%s k=%d par=%d: Workers = %d, want %d", label, k, par, st.Workers, want)
		}
	}
	return st
}

// TestTopKEquivalence is the best-first driver's acceptance test: for
// every cost model and several k (including k = dataset size and k far
// beyond the searchable radius, where fewer than k trajectories lie inside
// the ceiling) it returns the restart oracle's answer bit for bit.
func TestTopKEquivalence(t *testing.T) {
	core.ForceFanOut(t)
	env := testutil.NewEnv(41, 40, 24)
	for _, m := range env.Models() {
		eng := core.NewEngine(m.DS, m.Costs)
		q := env.Query(m, 8)
		for _, k := range []int{1, 2, 5, 10, 40, 1000} {
			checkTopKAgainstRestart(t, m.Name, eng, q, k)
		}
		if got, _ := eng.SearchTopK(q, 1000); len(got) >= m.DS.Len() {
			t.Fatalf("%s: all %d trajectories inside the ceiling; k=1000 does not exercise an unfilled table", m.Name, len(got))
		}
	}
}

// TestTopKEquivalenceTies covers what the queue makes interesting. Every
// trajectory gets a twin further up the ID range — in the delta, on the
// engines that have one — so each WED is tied to the last bit — under ERP
// and NetERP with non-integer costs — and every k cuts or borders a tie;
// the query's source has many copies, so k = 1 must pick the smallest ID
// among many zero-bound ties; and a reversed copy of the source covers
// every query position while chaining at most one. Run on every backend,
// with the queue dealt to four workers.
func TestTopKEquivalenceTies(t *testing.T) {
	core.ForceFanOut(t)
	env := testutil.NewEnv(43, 30, 24)
	for _, m := range env.Models() {
		ds := traj.NewDataset(m.DS.Rep)
		for id := range m.DS.Trajs {
			ds.Add(traj.Trajectory{Path: m.DS.Path(int32(id))})
		}
		src := int32(-1)
		var q []traj.Symbol
		for id := range ds.Trajs {
			if p := ds.Path(int32(id)); len(p) >= 12 {
				src, q = int32(id), p[2:10]
				break
			}
		}
		if src < 0 {
			t.Fatalf("%s: no trajectory of 12 symbols", m.Name)
		}
		rev := slices.Clone(ds.Path(src))
		slices.Reverse(rev)
		revID := ds.Add(traj.Trajectory{Path: rev})
		for id := 0; id < m.DS.Len(); id++ {
			ds.Add(traj.Trajectory{Path: m.DS.Path(int32(id))})
		}
		for i := 0; i < 9; i++ {
			ds.Add(traj.Trajectory{Path: ds.Path(src)})
		}
		engines := fanOutEngines(t, ds, m.Costs)
		for _, ne := range engines {
			for _, k := range []int{1, 2, 3, 10, 11, 12, 15, 30, 1000} {
				st := checkTopKAgainstRestart(t, m.Name+"/"+ne.name+"/ties", ne.eng, q, k)
				if k == 1000 && st.Requeues == 0 {
					t.Fatalf("%s/%s: no trajectory was ever re-queued", m.Name, ne.name)
				}
			}
		}
		eng := engines[0].eng
		got, err := eng.SearchTopK(q, 1)
		if err != nil || len(got) != 1 || got[0].ID != src || got[0].WED != 0 {
			t.Fatalf("%s k=1: %+v, %v; want trajectory %d at WED 0", m.Name, got, err, src)
		}
		if m.DS.Rep == traj.VertexRep {
			cov, chain, _, err := eng.TopKBounds(q, 0.99*core.SumFilterCost(m.Costs, q))
			if err != nil {
				t.Fatal(err)
			}
			if cov[revID] != 0 || chain[revID] <= cov[revID] {
				t.Fatalf("%s: reversed source has coverage bound %v, chain bound %v", m.Name, cov[revID], chain[revID])
			}
		}
	}
}

// TestTopKBoundsAdmissible checks the two bounds the queue is keyed by
// against brute force: for every trajectory, coverage ≤ chain ≤ the
// smallest WED of any of its subtrajectories — under all six cost models
// and random weighted tables, for τ-subsequences that are all of Q and
// ones that are a strict subset.
func TestTopKBoundsAdmissible(t *testing.T) {
	type world struct {
		name  string
		costs wed.FilterCosts
		ds    *traj.Dataset
		q     []traj.Symbol
	}
	var worlds []world
	env := testutil.NewEnv(44, 40, 24)
	for _, m := range env.Models() {
		worlds = append(worlds, world{m.Name, m.Costs, m.DS, env.Query(m, 8)}, world{m.Name + "/random-q", m.Costs, m.DS, env.RandomString(m, 8)})
	}
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 12; i++ {
		rc := testutil.NewRandomCosts(rng, 5, 1.5)
		if i%2 == 1 { // quantised costs provoke exact ties, and zero costs
			for a := range rc.Tab {
				rc.ID[a] = math.Ceil(rc.ID[a]*2) / 2
				for b := range rc.Tab[a] {
					rc.Tab[a][b] = math.Round(rc.Tab[a][b]*2) / 2
				}
			}
		}
		ds := testutil.RandomDataset(rng, 5, 30, 20)
		q := make([]traj.Symbol, 4+rng.Intn(6))
		for j := range q {
			q[j] = traj.Symbol(rng.Intn(5))
		}
		worlds = append(worlds, world{"table", rc, ds, q})
	}
	var sawFull, sawSubset bool
	for _, w := range worlds {
		eng := core.NewEngine(w.ds, w.costs)
		best := make([]float64, w.ds.Len())
		for id := range best {
			best[id] = math.Inf(1)
			for _, m := range wed.AllMatches(w.costs, w.q, w.ds.Path(int32(id)), math.Inf(1)) {
				best[id] = min(best[id], m.WED)
			}
		}
		cq := core.SumFilterCost(w.costs, w.q)
		for _, ratio := range []float64{0.2, 0.6, 1} {
			if cq == 0 {
				continue
			}
			cov, chain, full, err := eng.TopKBounds(w.q, ratio*cq)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			sawFull = sawFull || full
			sawSubset = sawSubset || !full
			for id := range best {
				if cov[id] > chain[id] || chain[id] > best[id] {
					t.Fatalf("%s ratio %v trajectory %d (Q′ all of Q: %v): coverage %v, chain %v, best WED %v",
						w.name, ratio, id, full, cov[id], chain[id], best[id])
				}
			}
		}
	}
	if !sawFull || !sawSubset {
		t.Fatalf("plans covering all of Q seen: %v; strict subsets seen: %v", sawFull, sawSubset)
	}
}

// TestTopKDuplicateHeavy pits the driver against a duplicate-heavy
// alphabet (3 symbols, repeated constantly) where candidate lists are
// huge, per-trajectory match sets are dense, and WED ties are common —
// the adversarial case for the tightening logic.
func TestTopKDuplicateHeavy(t *testing.T) {
	core.ForceFanOut(t)
	rng := rand.New(rand.NewSource(5))
	ds := traj.NewDataset(traj.VertexRep)
	for i := 0; i < 30; i++ {
		p := make([]traj.Symbol, 10+rng.Intn(20))
		for j := range p {
			p[j] = traj.Symbol(rng.Intn(3))
		}
		ds.Add(traj.Trajectory{Path: p})
	}
	costs := wed.NewLev()
	eng := core.NewEngine(ds, costs)
	q := []traj.Symbol{0, 1, 0, 0, 2, 1, 0, 1}
	for _, k := range []int{1, 3, 10, 30} {
		checkTopKAgainstRestart(t, "dup", eng, q, k)
		want := oracleTopK(costs, ds, q, k)
		got, err := eng.SearchTopK(q, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results, oracle found %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Key() != want[i].Key() || math.Abs(got[i].WED-want[i].WED) > 1e-9 {
				t.Fatalf("k=%d rank %d: %+v, oracle %+v", k, i, got[i], want[i])
			}
		}
	}
}

func TestSearchTopKEdgeCases(t *testing.T) {
	env := testutil.NewEnv(32, 10, 12)
	m := env.Models()[0]
	eng := core.NewEngine(m.DS, m.Costs)
	q := env.Query(m, 5)
	if res, err := eng.SearchTopK(q, 0); err != nil || res != nil {
		t.Fatalf("k=0: %v, %v", res, err)
	}
	if _, err := eng.SearchTopK(nil, 3); err == nil {
		t.Fatal("empty query accepted")
	}
	// k=1 must return the globally best match, which for a sampled
	// query is an exact occurrence.
	res, err := eng.SearchTopK(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].WED != 0 {
		t.Fatalf("k=1: %+v", res)
	}
}
