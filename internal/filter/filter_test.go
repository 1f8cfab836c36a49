package filter_test

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"subtraj/internal/filter"
	"subtraj/internal/index"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
)

// bruteMinCand solves MinCand exactly by enumerating all 2^n subsets.
func bruteMinCand(nq, c []float64, tau float64) (bestObj float64, feasible bool) {
	n := len(nq)
	bestObj = math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		var obj, cs float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				obj += nq[i]
				cs += c[i]
			}
		}
		if cs >= tau && obj < bestObj {
			bestObj = obj
			feasible = true
		}
	}
	return bestObj, feasible
}

func TestMinCandPaperExample6(t *testing.T) {
	// Example 6: Q = ABCD, c = [1,2,3,4], N = [5,2,9,8], τ = 4 →
	// greedy picks {B, D} with objective 10 (optimal is {D} with 8).
	chosen := filter.MinCand([]float64{5, 2, 9, 8}, []float64{1, 2, 3, 4}, 4)
	if len(chosen) != 2 || chosen[0] != 1 || chosen[1] != 3 {
		t.Fatalf("expected positions [1 3] (B, D), got %v", chosen)
	}
}

func TestMinCandSatisfiesConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		nq := make([]float64, n)
		c := make([]float64, n)
		var total float64
		for i := range nq {
			nq[i] = float64(rng.Intn(100))
			c[i] = rng.Float64() * 5
			total += c[i]
		}
		tau := rng.Float64() * total // feasible by construction
		chosen := filter.MinCand(nq, c, tau)
		var cs float64
		seen := map[int]bool{}
		for _, i := range chosen {
			if seen[i] {
				t.Fatalf("duplicate position %d", i)
			}
			seen[i] = true
			cs += c[i]
		}
		if cs < tau {
			t.Fatalf("constraint violated: c(Q')=%v < τ=%v", cs, tau)
		}
	}
}

func TestMinCandTwoApproximation(t *testing.T) {
	// Proposition 3: the greedy objective is ≤ 2× the optimum.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		nq := make([]float64, n)
		c := make([]float64, n)
		var total float64
		for i := range nq {
			nq[i] = float64(rng.Intn(50)) + 1
			c[i] = rng.Float64()*4 + 0.01
			total += c[i]
		}
		tau := rng.Float64() * total
		opt, feasible := bruteMinCand(nq, c, tau)
		if !feasible {
			continue
		}
		chosen := filter.MinCand(nq, c, tau)
		var obj float64
		for _, i := range chosen {
			obj += nq[i]
		}
		if obj > 2*opt+1e-9 {
			t.Fatalf("approximation ratio violated: greedy %v > 2×opt %v (nq=%v c=%v tau=%v)",
				obj, 2*opt, nq, c, tau)
		}
	}
}

func TestMinCandOptimalForConstantCosts(t *testing.T) {
	// Proposition 4: with constant c(q), the greedy is optimal (it picks
	// the smallest-frequency items).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		nq := make([]float64, n)
		c := make([]float64, n)
		cv := rng.Float64()*3 + 0.5
		for i := range nq {
			nq[i] = float64(rng.Intn(50)) + 1
			c[i] = cv
		}
		tau := rng.Float64() * cv * float64(n)
		opt, feasible := bruteMinCand(nq, c, tau)
		if !feasible {
			continue
		}
		chosen := filter.MinCand(nq, c, tau)
		var obj float64
		for _, i := range chosen {
			obj += nq[i]
		}
		if math.Abs(obj-opt) > 1e-9 {
			t.Fatalf("constant-cost optimality violated: greedy %v != opt %v (nq=%v tau=%v)", obj, opt, nq, tau)
		}
	}
}

func TestMinCandZeroCostItemsNeverChosen(t *testing.T) {
	chosen := filter.MinCand([]float64{1, 100, 1}, []float64{0, 5, 0}, 3)
	for _, i := range chosen {
		if i != 1 {
			t.Fatalf("zero-cost item %d chosen", i)
		}
	}
}

func TestBuildPlanInfeasible(t *testing.T) {
	env := testutil.NewEnv(4, 10, 10)
	m := env.Models()[0] // Lev: c(q) = 1
	inv := index.Build(m.DS)
	q := env.Query(m, 5)
	_, err := filter.BuildPlan(m.Costs, inv, q, float64(len(q))+1)
	if err == nil {
		t.Fatal("expected infeasibility error")
	}
	ie, ok := err.(filter.ErrInfeasible)
	if !ok {
		t.Fatalf("wrong error type: %T", err)
	}
	if ie.Error() == "" || ie.CQ != float64(len(q)) {
		t.Fatalf("error detail wrong: %+v", ie)
	}
}

func TestBuildPlanPredictsCandidates(t *testing.T) {
	// The MinCand objective must equal the generated candidate count
	// (the Remark under Definition 5: the objective IS the candidate
	// size) — for the paper's filter, an unextended plan. The plan
	// BuildPlan extends for the pre-filter emits an order-preserving subset
	// of those candidates, and counts the rest as pruned.
	env := testutil.NewEnv(5, 25, 18)
	extended := 0
	for _, m := range env.Models() {
		inv := index.Build(m.DS)
		q := env.Query(m, 8)
		tau := 0.3 * sumFilterCost(m, q)
		plan, err := filter.BuildPlan(m.Costs, inv, q, tau)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		paper := (&filter.Plan{Subseq: plan.Subseq, Neighbors: plan.Neighbors}).Candidates(inv, nil)
		if len(paper) != plan.PredictedCandidates {
			t.Fatalf("%s: predicted %d candidates, generated %d", m.Name, plan.PredictedCandidates, len(paper))
		}
		if plan.CSum < tau {
			t.Fatalf("%s: c(Q') = %v < τ = %v", m.Name, plan.CSum, tau)
		}
		cands := plan.Candidates(inv, nil)
		if len(plan.Extra) > 0 {
			extended++
		}
		if len(cands) > plan.PredictedCandidates || len(cands)+plan.PrunedCandidates != plan.PredictedCandidates {
			t.Fatalf("%s: %d candidates and %d pruned of %d predicted", m.Name, len(cands), plan.PrunedCandidates, plan.PredictedCandidates)
		}
		rest := paper
		for _, c := range cands {
			i := slices.Index(rest, c)
			if i < 0 {
				t.Fatalf("%s: candidate %+v is not in the paper's set, or out of its order", m.Name, c)
			}
			rest = rest[i+1:]
		}
		// Every candidate must actually reference a matching symbol in
		// its trajectory.
		for _, c := range paper {
			p := m.DS.Path(c.ID)
			if int(c.Pos) >= len(p) {
				t.Fatalf("%s: candidate position out of range", m.Name)
			}
			sym := p[c.Pos]
			inB := false
			for _, b := range m.Costs.Neighbors(q[c.IQ], nil) {
				if b == sym {
					inB = true
					break
				}
			}
			if !inB {
				t.Fatalf("%s: candidate symbol %d not in B(Q[%d])", m.Name, sym, c.IQ)
			}
		}
	}
	if extended == 0 {
		t.Fatal("no plan was extended")
	}
}

func sumFilterCost(m testutil.Model, q []traj.Symbol) float64 {
	var s float64
	for _, sym := range q {
		s += m.Costs.FilterCost(sym)
	}
	return s
}

// TestPlanPositionsAscending pins the shape of a BuildPlan plan: Q′ in
// ascending query positions; Q′ and Extra one list of scan items with
// their neighbourhoods; Extra and CPlus final as BuildPlan returns them,
// untouched by Candidates; and every Candidates call over one source
// emitting the same candidates.
func TestPlanPositionsAscending(t *testing.T) {
	env := testutil.NewEnv(6, 20, 15)
	m := env.Models()[1]
	inv := index.Build(m.DS)
	q := env.Query(m, 10)
	plan, err := filter.BuildPlan(m.Costs, inv, q, 0.5*sumFilterCost(m, q))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(plan.Subseq); i++ {
		if plan.Subseq[i].Pos <= plan.Subseq[i-1].Pos {
			t.Fatalf("subsequence positions not ascending: %v", plan.Subseq)
		}
	}
	items := plan.ScanItems()
	if len(plan.Extra) == 0 || &items[len(plan.Subseq)] != &plan.Extra[0] || len(plan.Neighbors) != len(items) {
		t.Fatalf("Q′ (%d items) and Extra (%d) are not one scan list of %d items with %d neighbourhoods",
			len(plan.Subseq), len(plan.Extra), len(items), len(plan.Neighbors))
	}
	cPlus := plan.CSum
	for k, it := range items {
		if q[it.Pos] != it.Sym {
			t.Fatalf("item symbol mismatch at pos %d", it.Pos)
		}
		if want := m.Costs.Neighbors(it.Sym, nil); !slices.Equal(plan.Neighbors[k], want) {
			t.Fatalf("scan item %d: neighbourhood %v, want %v", k, plan.Neighbors[k], want)
		}
		if k >= len(plan.Subseq) {
			cPlus += m.Costs.FilterCost(it.Sym)
		}
	}
	if plan.CPlus != cPlus {
		t.Fatalf("CPlus = %v after BuildPlan, want c(Q⁺) = %v", plan.CPlus, cPlus)
	}
	extra := slices.Clone(plan.Extra)
	first := plan.Candidates(inv, nil)
	if !slices.Equal(plan.Extra, extra) || plan.CPlus != cPlus {
		t.Fatalf("Candidates changed the plan: Extra %v → %v, CPlus %v → %v", extra, plan.Extra, cPlus, plan.CPlus)
	}
	if again := plan.Candidates(inv, nil); !slices.Equal(again, first) {
		t.Fatalf("a second Candidates call emitted %d candidates, the first %d", len(again), len(first))
	}
}

// TestGroupByTrajectoryIsTheStableSort pins the counting passes to the
// stable comparison sort they replaced: random candidate streams whose IDs
// need one, two and three 11-bit digit passes (a delta trajectory's ID lies
// beyond any base size, so nothing may assume a bound), with heavy ID
// repetition so stability is observable through (Pos, IQ), plus the empty
// and single-ID streams that take no pass at all.
func TestGroupByTrajectoryIsTheStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, maxID := range []int32{0, 1, 1<<11 - 1, 1 << 11, 1<<22 - 1, 1 << 22, math.MaxInt32} {
		for _, n := range []int{0, 1, 2, 100, 5000} {
			distinct := 1 + rng.Intn(n/3+1)
			ids := make([]int32, distinct)
			for i := range ids {
				ids[i] = int32(rng.Int63n(int64(maxID) + 1))
			}
			ids[0] = maxID
			got := make([]filter.Candidate, n)
			for i := range got {
				got[i] = filter.Candidate{ID: ids[rng.Intn(distinct)], Pos: int32(i), IQ: int32(rng.Intn(60))}
			}
			want := slices.Clone(got)
			slices.SortStableFunc(want, func(a, b filter.Candidate) int { return cmp.Compare(a.ID, b.ID) })
			filter.GroupByTrajectory(got)
			if !slices.Equal(got, want) {
				t.Fatalf("maxID=%d n=%d: grouping differs from the stable sort", maxID, n)
			}
		}
	}
}
