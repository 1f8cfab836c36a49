package filter

import (
	"math"
	"slices"

	"subtraj/internal/index"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// Cover is the coverage scan, for TestCoverReuse.
type Cover = cover

// BuildPlanDelta is BuildPlan extended by the last delta positions of q
// outside Q′ that cost anything (as many as there are), whatever postings
// they bring. They are taken last first, so the scan items run against
// query order as cheapestFirst's order may.
func BuildPlanDelta(costs wed.FilterCosts, freqs Freqs, q []traj.Symbol, tau float64, delta int) (*Plan, error) {
	return buildPlan(costs, freqs, q, tau, func(order []int, _, _ []float64, _ int) int {
		slices.Reverse(order)
		return min(delta, len(order))
	})
}

// Bounds runs the pre-filter's coverage scan over src and returns the
// coverage bound over Q⁺ of every trajectory a Q⁺ posting touches.
func (p *Plan) Bounds(src index.PostingSource) map[int32]float64 {
	bounds, _ := p.bounds(src, len(p.Neighbors), p.CPlus, math.Inf(1), nil)
	coverage := make(map[int32]float64, len(bounds))
	for _, b := range bounds {
		coverage[b.ID] = b.Key
	}
	return coverage
}

// ScanItems returns the plan's scan items, Q′ then Q⁺ \ Q′: the one list
// Subseq and Extra are views of.
func (p *Plan) ScanItems() []Item { return p.Subseq[:len(p.Subseq)+len(p.Extra)] }

// MaskProbes counts, over syms, the symbols the mask table's presence
// filter passes although the table holds no key for them, and the held
// symbols that sit past their home slot, at the end of a probe chain.
func (p *Plan) MaskProbes(syms []traj.Symbol) (collisions, chained int) {
	st := p.masks
	for _, b := range syms {
		word, bit := presence(b)
		s := st.slot(b)
		switch {
		case s.key == 0 && st.present[word]&bit != 0:
			collisions++
		case s.key != 0 && s != &st.slots[symHash(b)>>st.shift]:
			chained++
		}
	}
	return collisions, chained
}
