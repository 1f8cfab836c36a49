package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// TestSearchTopKMatchesOracle pins SearchTopK to the brute force on every
// cost model: the same (ID, S, T) in the same order, the same WED bits.
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
			want, _ := eng.SearchTopKBruteForce(q, k)
			assertIdenticalResults(t, fmt.Sprintf("%s k=%d", m.Name, k), got, want)
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

// roundingModels are the cost models whose costs are not integers: the
// threshold search sums a match as sub + E^b + E^f and wed.AllMatches left
// to right, so the two WEDs of one span may differ in the last bit.
var roundingModels = map[string]bool{"ERP": true, "NetERP": true, "SURS": true}

// sameWED compares a WED with the restart oracle's: bit for bit, or to
// 1e-9 relative under a rounding model.
func sameWED(model string, got, want float64) bool {
	if roundingModels[model] {
		return math.Abs(got-want) <= 1e-9*math.Abs(want)
	}
	return got == want
}

// checkTopKAgainstRestart demands, at Parallelism 1 and 4, the brute
// force's answer bit for bit — same (ID, S, T) order, same WED bits, same
// effective τ — the restart oracle's (ID, S, T) order with its WEDs as
// sameWED allows, and queue counters that add up. Callers zero the fan-out
// threshold, so Parallelism 4 deals the queue to four workers.
func checkTopKAgainstRestart(t *testing.T, label string, eng *core.Engine, q []traj.Symbol, k int) *core.QueryStats {
	t.Helper()
	want, wantTau := eng.SearchTopKBruteForce(q, k)
	restart, restartTau, err := eng.SearchTopKRestart(q, k)
	if err != nil {
		t.Fatalf("%s k=%d restart oracle: %v", label, k, err)
	}
	model := eng.Costs().Name()
	if len(restart) != len(want) || !sameWED(model, wantTau, restartTau) {
		t.Fatalf("%s k=%d: restart oracle %v (τ %v), brute force %v (τ %v)", label, k, restart, restartTau, want, wantTau)
	}
	for i := range want {
		if restart[i].Key() != want[i].Key() || !sameWED(model, want[i].WED, restart[i].WED) {
			t.Fatalf("%s k=%d rank %d: restart oracle %+v, brute force %+v", label, k, i, restart[i], want[i])
		}
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
// the ceiling) it returns the brute force's answer bit for bit, and the
// restart oracle's (see checkTopKAgainstRestart).
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
// every query position while chaining at most one, so it is re-queued on
// its chain bound. Run on every backend, with the queue dealt to four
// workers.
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
// the adversarial case for the threshold and the span recovery.
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
	}
}

// TestSearchTopKHugeK checks that a k beyond any dataset, which a library
// caller may pass where the server caps k at MaxK, answers exactly as
// k = ds.Len(): every trajectory inside the feasibility ceiling, the same
// matches and the same EffectiveTau, at every parallelism. math.MaxInt/2
// is the k whose 3k wraps negative; math.MaxInt's wraps back to positive.
func TestSearchTopKHugeK(t *testing.T) {
	env := testutil.NewEnv(38, 40, 20)
	for _, m := range env.Models() {
		eng := core.NewEngine(m.DS, m.Costs)
		q := env.Query(m, 8)
		for _, par := range []int{1, 4} {
			opts := core.TopKOptions{Parallelism: par}
			want, wantSt, err := eng.SearchTopKStats(q, m.DS.Len(), opts)
			if err != nil {
				t.Fatalf("%s k=%d: %v", m.Name, m.DS.Len(), err)
			}
			if len(want) == m.DS.Len() {
				t.Fatalf("%s: every trajectory answers, so EffectiveTau differs between k = ds.Len() and a larger k by definition", m.Name)
			}
			for _, k := range []int{math.MaxInt / 2, math.MaxInt} {
				got, st, err := eng.SearchTopKStats(q, k, opts)
				if err != nil {
					t.Fatalf("%s k=%d: %v", m.Name, k, err)
				}
				assertIdenticalResults(t, fmt.Sprintf("%s par=%d k=%d", m.Name, par, k), got, want)
				if math.Float64bits(st.EffectiveTau) != math.Float64bits(wantSt.EffectiveTau) {
					t.Fatalf("%s par=%d: EffectiveTau %v at k=%d, %v at k=%d", m.Name, par, st.EffectiveTau, k, wantSt.EffectiveTau, m.DS.Len())
				}
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
