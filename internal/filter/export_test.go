package filter

import (
	"math"

	"subtraj/internal/index"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// BuildPlanDelta is BuildPlan extended by the last delta positions of q
// outside Q′ that cost anything (as many as there are), whatever postings
// they bring. They are taken last first, so the scan items run against
// query order as extend's cheapest-first order may.
func BuildPlanDelta(costs wed.FilterCosts, freqs Freqs, q []traj.Symbol, tau float64, delta int) (*Plan, error) {
	p, err := BuildPlan(costs, freqs, q, tau)
	if err != nil {
		return nil, err
	}
	in := p.in
	p.in = planInputs{}
	var extra []int
	for i := len(q) - 1; i >= 0 && len(extra) < delta; i-- {
		if !in.inQ[i] && in.c[i] > 0 {
			extra = append(extra, i)
		}
	}
	p.setExtra(in, extra)
	return p, nil
}

// Bounds runs the pre-filter's bound over src with nothing dropped and
// returns the coverage bound over Q⁺ of every trajectory a Q⁺ posting
// touches, and the chain bound of every one with a Q′ posting.
func (p *Plan) Bounds(src index.PostingSource) (coverage, chain map[int32]float64) {
	sc := new(pruneScratch)
	sc.scan(p, src.Postings, math.Inf(1), nil)
	coverage, chain = make(map[int32]float64), make(map[int32]float64)
	for _, id := range sc.cover.Touched {
		coverage[id] = LowerBound(p.CPlus, sc.cover.Weight(id))
		if s := sc.slot[id]; s >= 0 {
			chain[id] = LowerBound(p.CPlus, sc.chained[s])
		}
	}
	return coverage, chain
}
