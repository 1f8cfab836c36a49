package core

import (
	"sort"

	"subtraj/internal/filter"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// This file keeps the two oracles of the top-k tests. The brute force is
// the definition: each trajectory's best wed.AllMatches match below the
// ceiling, the k best of those. The τ-growth restart loop the best-first
// driver replaced is the other: every round is an independent full
// SearchQuery, nothing is carried over and nothing is tightened, so it is
// correct by the threshold search's own correctness — but its WEDs are the
// threshold search's sums, which on real-valued costs may differ from
// wed.AllMatches's in the last bit.

// The restart loop's schedule: τ starts at ceiling/topKStartDiv and grows
// by topKGrowth.
const (
	topKStartDiv = 64
	topKGrowth   = 4
)

// SearchTopKBruteForce answers the top-k protocol by Definition 3 alone:
// wed.AllMatches over every trajectory at the ceiling, each trajectory's
// best by traj.Better, the k best of those. It returns them and the
// effective τ (SearchTopKStats's EffectiveTau).
func (e *Engine) SearchTopKBruteForce(q []traj.Symbol, k int) ([]traj.Match, float64) {
	ceiling := e.topKCeiling(q)
	var all []traj.Match
	for id := range e.ds.Trajs {
		for _, m := range wed.AllMatches(e.costs, q, e.ds.Path(int32(id)), ceiling) {
			all = append(all, traj.Match{ID: int32(id), S: int32(m.S), T: int32(m.T), WED: m.WED})
		}
	}
	best := bestPerTrajectoryOrdered(all)
	if len(best) >= k {
		return best[:k], best[k-1].WED
	}
	return best, ceiling
}

// SearchTopKRestart answers the top-k protocol by re-running the whole
// filter-and-verify pipeline at τ = ceiling/topKStartDiv, growing by
// topKGrowth until k trajectories match or the ceiling is reached. It
// returns the matches and the effective τ (SearchTopKStats's
// EffectiveTau).
func (e *Engine) SearchTopKRestart(q []traj.Symbol, k int) ([]traj.Match, float64, error) {
	ceiling := e.topKCeiling(q)
	for tau := ceiling / topKStartDiv; ; tau = min(tau*topKGrowth, ceiling) {
		res, _, err := e.SearchQuery(Query{Q: q, Tau: tau, Parallelism: 1})
		if err != nil {
			return nil, 0, err
		}
		best := bestPerTrajectoryOrdered(res)
		if len(best) >= k {
			return best[:k], best[k-1].WED, nil
		}
		if tau >= ceiling {
			return best, tau, nil
		}
	}
}

// bestPerTrajectoryOrdered reduces matches to one per trajectory, ordered
// by traj.Better.
func bestPerTrajectoryOrdered(ms []traj.Match) []traj.Match {
	best := make(map[int32]traj.Match)
	for _, m := range ms {
		if b, ok := best[m.ID]; !ok || traj.Better(m, b) {
			best[m.ID] = m
		}
	}
	out := make([]traj.Match, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return traj.Better(out[i], out[j]) })
	return out
}

// TopKBounds returns, for every trajectory, the two bounds the top-k
// driver queues it under for the τ-subsequence BuildPlan chooses at tau:
// the coverage bound from the postings scan and the chain bound from the
// path scan, plus whether that subsequence is all of Q.
func (e *Engine) TopKBounds(q []traj.Symbol, tau float64) (coverage, chain []float64, full bool, err error) {
	plan, err := filter.BuildPlan(e.costs, e.idx, q, tau)
	if err != nil {
		return nil, nil, false, err
	}
	sc := new(topkScratch)
	sc.scan(e, plan, plan.CSum*2)
	tq := &sc.deal(1)[0]
	coverage = make([]float64, e.ds.Len())
	chain = make([]float64, e.ds.Len())
	for id := range coverage {
		coverage[id] = sc.bound(0) // untouched: nothing covered
		w, _ := tq.chainOf(sc, e.ds.Path(int32(id)))
		chain[id] = sc.bound(w)
	}
	for _, en := range sc.heap {
		coverage[en.id] = en.key
	}
	return coverage, chain, len(plan.Subseq) == len(q), nil
}
