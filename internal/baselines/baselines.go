// Package baselines implements every competitor of §6.1 and Appendix C,
// adapted to subtrajectory search exactly as the paper describes:
//
//   - Plain-SW: index-free Smith–Waterman scan of the whole database,
//   - DISON: prefix τ-subsequence filtering (Yuan & Li's candidate
//     generation recast as an unoptimised Q' choice),
//   - Torch: postings scan over every query symbol,
//   - q-gram: count filtering on q-gram inverted indexes (EDR/Lev),
//   - DITA: offline subtrajectory enumeration with pivot tries,
//   - ERP-index: offline subtrajectory enumeration with a kd-tree over
//     reference-translated coordinate sums.
//
// All baselines are exact: they return the same result set as the OSF-BT
// engine (enforced by integration tests), differing only in filtering
// power and speed.
package baselines

import (
	"subtraj/internal/filter"
	"subtraj/internal/index"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/wed"
)

// Result bundles a baseline's answer with its candidate count, the metric
// compared in Figure 11.
type Result struct {
	Matches    []traj.Match
	Candidates int
	// VerifyStats carries the verification counters when applicable.
	VerifyStats verify.Stats
}

// PlainSW scans every trajectory with the threshold-aware full DP
// (Appendix A adapted to emit all matches). No index is used.
func PlainSW(costs wed.Costs, ds *traj.Dataset, q []traj.Symbol, tau float64) Result {
	var out []traj.Match
	for id := range ds.Trajs {
		p := ds.Trajs[id].Path
		for _, m := range wed.AllMatches(costs, q, p, tau) {
			out = append(out, traj.Match{ID: int32(id), S: int32(m.S), T: int32(m.T), WED: m.WED})
		}
	}
	return Result{Matches: out, Candidates: ds.Len()}
}

// Strategy selects a τ-subsequence Q' for the filter-and-verify baselines.
// It returns the chosen (symbol, position) items. Implementations must
// guarantee Σ c(q) ≥ tau over the choice (or choose all of Q).
type Strategy func(costs wed.FilterCosts, inv *index.Compact, q []traj.Symbol, tau float64) []filter.Item

// DISONStrategy is the paper's DISON adaptation: the shortest prefix whose
// accumulated filtering cost reaches τ.
func DISONStrategy(costs wed.FilterCosts, _ *index.Compact, q []traj.Symbol, tau float64) []filter.Item {
	var items []filter.Item
	var c float64
	for i, sym := range q {
		items = append(items, filter.Item{Sym: sym, Pos: int32(i)})
		c += costs.FilterCost(sym)
		if c >= tau {
			break
		}
	}
	return items
}

// TorchStrategy is the paper's Torch adaptation: scan the postings of
// every query symbol (and its neighbours).
func TorchStrategy(_ wed.FilterCosts, _ *index.Compact, q []traj.Symbol, _ float64) []filter.Item {
	items := make([]filter.Item, len(q))
	for i, sym := range q {
		items[i] = filter.Item{Sym: sym, Pos: int32(i)}
	}
	return items
}

// SearchWithStrategy runs filter-and-verify with an arbitrary Q' strategy
// and verification options — the shared body of DISON-{SW,BT} and
// Torch-{SW,BT}.
func SearchWithStrategy(costs wed.FilterCosts, ds *traj.Dataset, inv *index.Compact,
	q []traj.Symbol, tau float64, strat Strategy, vopts verify.Options) Result {

	items := strat(costs, inv, q, tau)
	plan := &filter.Plan{Subseq: items}
	for _, it := range items {
		plan.Neighbors = append(plan.Neighbors, costs.Neighbors(it.Sym, nil))
		plan.CSum += costs.FilterCost(it.Sym)
	}
	cands := plan.Candidates(inv, nil)
	ver := verify.New(costs, ds, q, tau, vopts)
	for _, c := range cands {
		ver.Verify(c)
	}
	return Result{Matches: ver.Results(), Candidates: len(cands), VerifyStats: ver.Stats}
}

// DISON runs the DISON adaptation.
func DISON(costs wed.FilterCosts, ds *traj.Dataset, inv *index.Compact, q []traj.Symbol, tau float64, vopts verify.Options) Result {
	return SearchWithStrategy(costs, ds, inv, q, tau, DISONStrategy, vopts)
}

// Torch runs the Torch adaptation.
func Torch(costs wed.FilterCosts, ds *traj.Dataset, inv *index.Compact, q []traj.Symbol, tau float64, vopts verify.Options) Result {
	return SearchWithStrategy(costs, ds, inv, q, tau, TorchStrategy, vopts)
}
