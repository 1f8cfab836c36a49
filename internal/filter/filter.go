// Package filter implements the subsequence-filtering principle of §3: the
// per-symbol filtering costs c(q), the substitution neighbourhoods B(q),
// the MinCand candidate-minimisation problem (Definition 5) solved by the
// primal–dual greedy 2-approximation of Algorithm 1, and candidate
// generation from the inverted index (the loop of Algorithm 2).
package filter

import (
	"fmt"
	"math"
	"sync"

	"subtraj/internal/index"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/wed"
)

// Item is one chosen element of the τ-subsequence Q': the symbol and its
// position iq in Q (0-based; the paper's iq is 1-based).
type Item struct {
	Sym traj.Symbol
	Pos int32
}

// Candidate is what the filter hands the verifier.
type Candidate = verify.Candidate

// Plan is the query-time filtering state: the chosen τ-subsequence and the
// precomputed neighbourhoods/statistics, reusable for candidate generation
// and reporting.
type Plan struct {
	// Subseq is the chosen τ-subsequence Q' in query order.
	Subseq []Item
	// Neighbors[i] is B(Subseq[i].Sym).
	Neighbors [][]traj.Symbol
	// CSum is c(Q') = Σ c(q) over the subsequence; CQ is c(Q), the sum
	// over all of Q — the scale τ is a fraction of.
	CSum, CQ float64
	// PredictedCandidates is the MinCand objective value: Σ_{q∈Q'}
	// Σ_{b∈B(q)} n(b).
	PredictedCandidates int
}

// ErrInfeasible is returned when no subsequence of Q can reach the
// threshold: c(Q) < τ. The paper requires Σ ins(q) ≥ τ for a meaningful
// query; with a suitable η this guarantees feasibility (see §3.1, "Setting
// η to τ/|Q| guarantees that a τ-subsequence can be found").
type ErrInfeasible struct {
	CQ, Tau float64
}

func (e ErrInfeasible) Error() string {
	return fmt.Sprintf("filter: no τ-subsequence exists: c(Q) = %g < τ = %g (increase η or lower τ)", e.CQ, e.Tau)
}

// Freqs supplies the dataset-wide occurrence counts n(q) the MinCand
// objective optimises. Every index.Backend provides it; an index.Epoch
// reports base plus delta counts, so the chosen plan does not depend on
// how much of the dataset has been folded.
type Freqs interface {
	Freq(q traj.Symbol) int
}

// BuildPlan chooses a τ-subsequence of q minimising the candidate count
// via Algorithm 1 and precomputes the neighbourhoods. costs provides c(q)
// and B(q); freqs provides the frequencies n(b).
func BuildPlan(costs wed.FilterCosts, freqs Freqs, q []traj.Symbol, tau float64) (*Plan, error) {
	n := len(q)
	c := make([]float64, n)
	neighbors := make([][]traj.Symbol, n)
	nq := make([]float64, n) // N_q: candidate volume of choosing position i
	var cTotal float64
	for i, sym := range q {
		c[i] = costs.FilterCost(sym)
		neighbors[i] = costs.Neighbors(sym, nil)
		var vol int
		for _, b := range neighbors[i] {
			vol += freqs.Freq(b)
		}
		nq[i] = float64(vol)
		cTotal += c[i]
	}
	if cTotal < tau {
		return nil, ErrInfeasible{CQ: cTotal, Tau: tau}
	}
	chosen := MinCand(nq, c, tau)
	plan := &Plan{CQ: cTotal}
	for _, i := range chosen {
		plan.Subseq = append(plan.Subseq, Item{Sym: q[i], Pos: int32(i)})
		plan.Neighbors = append(plan.Neighbors, neighbors[i])
		plan.CSum += c[i]
		plan.PredictedCandidates += int(nq[i])
	}
	return plan, nil
}

// MinCand is the primal–dual greedy of Algorithm 1 for the minimum
// candidate problem: select positions S ⊆ [n] minimising Σ N_i subject to
// Σ c_i ≥ tau. It returns the chosen positions in ascending order. The
// approximation ratio is 2 (Proposition 3); when all c_i are equal the
// result is optimal (Proposition 4). The caller guarantees Σ c_i ≥ tau.
func MinCand(nq, c []float64, tau float64) []int {
	n := len(nq)
	w := make([]float64, n) // w_q duals
	inQ := make([]bool, n)  // chosen flags
	var chosen []int
	cSum := 0.0
	for cSum < tau {
		// Residual demand.
		res := tau - cSum
		// Pick q* = argmin v_q = (N_q - w_q) / min(c_q, residual).
		best := -1
		bestV := math.Inf(1)
		for i := 0; i < n; i++ {
			if inQ[i] {
				continue
			}
			den := c[i]
			if res < den {
				den = res
			}
			if den <= 0 {
				// c_i = 0 contributes nothing toward the constraint;
				// never select it.
				continue
			}
			v := (nq[i] - w[i]) / den
			if v < bestV {
				bestV, best = v, i
			}
		}
		if best < 0 {
			// All remaining items have zero filtering cost; the caller's
			// feasibility check makes this unreachable, but guard anyway.
			break
		}
		// Raise duals: w_q += min(c_q, residual) · v_{q*}.
		for i := 0; i < n; i++ {
			if inQ[i] {
				continue
			}
			den := c[i]
			if res < den {
				den = res
			}
			w[i] += den * bestV
		}
		inQ[best] = true
		chosen = append(chosen, best)
		cSum += c[best]
	}
	// Ascending positions (the greedy may pick out of order).
	sortInts(chosen)
	return chosen
}

func sortInts(xs []int) {
	// Insertion sort: |Q'| is tiny (a few items).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Candidates generates the candidate set of Algorithm 2 (lines 3–6):
// every posting of every neighbour of every chosen item. The result may
// reference the same (id, pos) under different iq — those are distinct
// candidates by construction (see the Remark under Definition 5). src is
// one posting source of an index view — a base, or the delta beside it;
// the candidate set over a view's sources is exactly the set of a flat
// index over the same trajectories.
func (p *Plan) Candidates(src index.PostingSource, dst []Candidate) []Candidate {
	for i, it := range p.Subseq {
		for _, b := range p.Neighbors[i] {
			for _, pos := range src.Postings(b) {
				dst = append(dst, Candidate{ID: pos.ID, Pos: pos.Pos, IQ: it.Pos})
			}
		}
	}
	return dst
}

// CandidatesInWindow is Candidates restricted to trajectories whose
// [departure, arrival] interval overlaps [lo, hi] (the TF pre-filter of
// §4.3 and Figure 12).
func (p *Plan) CandidatesInWindow(src index.PostingSource, lo, hi float64, dst []Candidate) []Candidate {
	for i, it := range p.Subseq {
		for _, b := range p.Neighbors[i] {
			for _, pos := range src.Postings(b) {
				if !src.IntervalOverlaps(pos.ID, lo, hi) {
					continue
				}
				dst = append(dst, Candidate{ID: pos.ID, Pos: pos.Pos, IQ: it.Pos})
			}
		}
	}
	return dst
}

// CandidatesByDeparture generates candidates only from trajectories whose
// departure time lies in [lo, hi], using binary search on the
// departure-sorted postings (§4.3's sorted-postings optimisation). The
// caller must have built the temporal order (index.BuildTemporal).
func (p *Plan) CandidatesByDeparture(src index.PostingSource, lo, hi float64, dst []Candidate) []Candidate {
	for i, it := range p.Subseq {
		for _, b := range p.Neighbors[i] {
			for _, pos := range src.PostingsInWindow(b, lo, hi) {
				dst = append(dst, Candidate{ID: pos.ID, Pos: pos.Pos, IQ: it.Pos})
			}
		}
	}
	return dst
}

// groupScratch is what one GroupByTrajectory call needs besides its
// input: the buffer the passes ping-pong with, and a digit histogram.
type groupScratch struct {
	buf   []Candidate
	count [1 << groupDigitBits]int32
}

const (
	// groupDigitBits is the radix of GroupByTrajectory: 2,048 buckets keep
	// the histogram (8 KiB) in L1 and cover the trajectory IDs of a
	// four-million-trajectory dataset in two passes.
	groupDigitBits = 11
	// maxGroupScratch caps the buffer a pooled groupScratch keeps, in
	// candidates (12 MiB): a query far outside the steady state (a wide τ
	// over a hot neighbourhood) gives its buffer back to the GC instead of
	// pinning it in the pool.
	maxGroupScratch = 1 << 20
)

var groupScratches = sync.Pool{New: func() any { return new(groupScratch) }}

// GroupByTrajectory reorders candidates by trajectory ID, keeping the
// order of candidates that share an ID, so a verifier visits each
// trajectory's candidates consecutively (one Path lookup per trajectory,
// one match-accumulation flush per trajectory). The per-trajectory
// candidate order — and therefore every verification result — is
// unchanged, and the output, sorted by trajectory ID, is what the
// engine's fan-out cuts into contiguous ID ranges. It is a
// least-significant-digit counting sort on the ID (non-negative: an index
// into the dataset), ⌈bits(max ID)/11⌉ stable passes between cands and a
// pooled buffer — linear, where a comparison-based stable sort spent a
// seventh of a default query rotating blocks.
func GroupByTrajectory(cands []Candidate) {
	var maxID int32
	for _, c := range cands {
		maxID = max(maxID, c.ID)
	}
	sc := groupScratches.Get().(*groupScratch)
	defer func() {
		if cap(sc.buf) > maxGroupScratch {
			sc.buf = nil
		}
		groupScratches.Put(sc)
	}()
	if cap(sc.buf) < len(cands) {
		sc.buf = make([]Candidate, len(cands))
	}
	const mask = 1<<groupDigitBits - 1
	src, dst := cands, sc.buf[:len(cands)]
	inBuf := false // whether src, the latest pass's output, is sc.buf
	count := &sc.count
	for shift := 0; maxID>>shift != 0; shift += groupDigitBits {
		clear(count[:])
		for _, c := range src {
			count[c.ID>>shift&mask]++
		}
		var sum int32
		for d, n := range count {
			count[d], sum = sum, sum+n
		}
		for _, c := range src {
			d := c.ID >> shift & mask
			dst[count[d]] = c
			count[d]++
		}
		src, dst, inBuf = dst, src, !inBuf
	}
	if inBuf {
		copy(cands, src)
	}
}
