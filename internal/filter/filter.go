// Package filter implements the subsequence-filtering principle of §3: the
// per-symbol filtering costs c(q), the substitution neighbourhoods B(q),
// the MinCand candidate-minimisation problem (Definition 5) solved by the
// primal–dual greedy 2-approximation of Algorithm 1, and candidate
// generation from the inverted index (the loop of Algorithm 2). It owns
// everything derived from the query alone: BuildPlan computes c(q) and
// B(q) once per position and from them Q′, its extension Q⁺ and the
// query's match masks for the word scans; and one coverage scan over a
// plan's postings serves both the threshold search's trajectory-level
// pre-filter and the top-k driver's queue keys.
package filter

import (
	"fmt"
	"math"
	"slices"
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

// Plan is what the filter knows about one query, all of it derived from
// the query alone and built whole by BuildPlan: the chosen τ-subsequence
// Q′, its extension Q⁺ for the trajectory-level pre-filter, B(q) and c(q)
// of their positions, and the query's match masks. Candidate generation
// and the coverage scans only read it (they add to its Pruned counters);
// Release hands its masks back.
type Plan struct {
	// Subseq is the chosen τ-subsequence Q' in query order, and Extra is
	// Q⁺ \ Q′: the positions BuildPlan adds for the pre-filter (DESIGN.md
	// §1.4), cheapest n(q)/c(q) first. They are one list of scan items —
	// Extra is its tail, past Subseq's length — so nothing may append to
	// Subseq. A plan without Extra — one built by hand, or one the
	// extension left alone — generates the paper's candidate set.
	Subseq, Extra []Item
	// Neighbors[k] is B of scan item k: Subseq's items, then Extra's.
	Neighbors [][]traj.Symbol
	// CSum is c(Q') = Σ c(q) over the subsequence; CPlus is c(Q⁺); CQ is
	// c(Q), the sum over all of Q — the scale τ is a fraction of.
	CSum, CPlus, CQ float64
	// Tau is the threshold the plan was built for.
	Tau float64
	// PredictedCandidates is the MinCand objective value: Σ_{q∈Q'}
	// Σ_{b∈B(q)} n(b).
	PredictedCandidates int
	// PrunedTrajectories and PrunedCandidates accumulate, over the
	// Candidates* calls made with the plan, the trajectories the
	// pre-filter dropped and the Q′ candidates they would have brought.
	// Those calls therefore write the plan: make them from one goroutine.
	PrunedTrajectories, PrunedCandidates int

	// w[k] is c of scan item k. On an extended plan heaviest[c] is the
	// most weight c of Q⁺'s positions can cover: the c largest weights
	// summed.
	w, heaviest []float64
	// masks is the query's symbol table, when verify.WordScan holds.
	masks *symTable
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
// via Algorithm 1, extends it to the Q⁺ the pre-filter bounds
// trajectories over (cheapestFirst), and, when verify.WordScan holds,
// builds the query's match masks — all from one pass of c(q) and B(q)
// over the query. costs provides c(q), B(q) and sub; freqs provides the
// frequencies n(b). The masks come from a pool: Release gives them back.
func BuildPlan(costs wed.FilterCosts, freqs Freqs, q []traj.Symbol, tau float64) (*Plan, error) {
	return buildPlan(costs, freqs, q, tau, cheapestFirst)
}

// extendFunc picks Q⁺ \ Q′ out of the positions outside Q′ that cost
// anything (order, ascending), given every position's c(q) and postings
// N_q and the plan's predicted candidate count: it reorders order in place
// so that its first δ positions are Q⁺ \ Q′ in scan order, and returns δ.
type extendFunc func(order []int, c, nq []float64, predicted int) int

func buildPlan(costs wed.FilterCosts, freqs Freqs, q []traj.Symbol, tau float64, extend extendFunc) (*Plan, error) {
	n := len(q)
	c := make([]float64, 2*n)
	nq := c[n:] // N_q: candidate volume of choosing position i
	c = c[:n]
	// B(q[i]) is flat[ends[i]:ends[i+1]]: one buffer for the whole query.
	ends := make([]int32, n+1)
	flat := make([]traj.Symbol, 0, 4*n)
	var cTotal float64
	for i, sym := range q {
		c[i] = costs.FilterCost(sym)
		flat = costs.Neighbors(sym, flat)
		ends[i+1] = int32(len(flat))
		var vol int
		for _, b := range flat[ends[i]:] {
			vol += freqs.Freq(b)
		}
		nq[i] = float64(vol)
		cTotal += c[i]
	}
	if cTotal < tau {
		return nil, ErrInfeasible{CQ: cTotal, Tau: tau}
	}
	chosen := MinCand(nq, c, tau)
	plan := &Plan{CQ: cTotal, Tau: tau}
	inQ := make([]bool, n)
	for _, i := range chosen {
		plan.CSum += c[i]
		plan.PredictedCandidates += int(nq[i])
		inQ[i] = true
	}
	// The scan items' positions: Q′, then Q⁺ \ Q′.
	pos := append(make([]int, 0, n), chosen...)
	for i := range q {
		if !inQ[i] && c[i] > 0 {
			pos = append(pos, i)
		}
	}
	pos = pos[:len(chosen)+extend(pos[len(chosen):], c, nq, plan.PredictedCandidates)]
	m := len(pos)
	items := make([]Item, m)
	plan.Subseq, plan.Extra = items[:len(chosen)], items[len(chosen):]
	plan.Neighbors = make([][]traj.Symbol, m)
	plan.w = make([]float64, m)
	plan.CPlus = plan.CSum
	for k, i := range pos {
		items[k] = Item{Sym: q[i], Pos: int32(i)}
		plan.Neighbors[k] = flat[ends[i]:ends[i+1]:ends[i+1]]
		plan.w[k] = c[i]
		if k >= len(chosen) {
			plan.CPlus += c[i]
		}
	}
	if len(plan.Extra) > 0 {
		h := make([]float64, m+1)
		copy(h[1:], plan.w)
		slices.Sort(h[1:])
		slices.Reverse(h[1:])
		for k := 1; k <= m; k++ {
			h[k] += h[k-1]
		}
		plan.heaviest = h
	}
	if verify.WordScan(costs, n) {
		plan.masks = newSymTable(costs, q, flat, ends)
	}
	return plan, nil
}

// cheapestFirst is BuildPlan's extension: positions outside Q′ with c(q) >
// 0, the fewest postings per unit of bound first (a position whose
// neighbourhood occurs nowhere is free and raises every trajectory's bound
// by c(q)). δ follows from the plan itself: positions are added while
// their postings total at most twice the predicted candidates, the
// candidates at stake — bounding with a posting costs tens of
// nanoseconds, verifying a candidate most of a microsecond, and the
// bound's own cost stops falling there (DESIGN.md §1.4 has the measured
// curve). A plan with no candidates is not extended: there is nothing to
// drop.
func cheapestFirst(order []int, c, nq []float64, predicted int) int {
	if predicted == 0 {
		return 0
	}
	// A selection sort of the prefix δ reaches: a dozen picks out of fifty.
	n, postings := 0, 0
	for ; n < len(order); n++ {
		best := n
		for j := n + 1; j < len(order); j++ {
			a, b := order[j], order[best]
			if x, y := nq[a]*c[b], nq[b]*c[a]; x < y || x == y && a < b {
				best = j
			}
		}
		i := order[best]
		if postings+int(nq[i]) > 2*predicted {
			break
		}
		order[n], order[best] = i, order[n]
		postings += int(nq[i])
	}
	return n
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
	slices.Sort(chosen)
	return chosen
}

// Candidates generates the candidate set of Algorithm 2 (lines 3–6):
// every posting of every neighbour of every chosen item. The result may
// reference the same (id, pos) under different iq — those are distinct
// candidates by construction (see the Remark under Definition 5). src is
// one posting source of an index view — the arena, or the delta beside
// it; the candidate set over a view's sources is exactly the set of one
// arena over the same trajectories.
//
// On an extended plan it emits only the candidates of trajectories the
// pre-filter keeps: it reads the Q⁺ postings of src, drops every
// trajectory whose coverage bound over Q⁺ reaches τ (bound.go), and emits
// the rest in the order above. Q′ is still a τ-subsequence and the bound
// is admissible, so no match is lost. The plan is not changed but for its
// Pruned counters: every call over the same source emits the same
// candidates.
func (p *Plan) Candidates(src index.PostingSource, dst []Candidate) []Candidate {
	return p.candidates(src.AppendPostings, dst)
}

// CandidatesInWindow is Candidates restricted to trajectories whose
// [departure, arrival] interval overlaps [lo, hi] (the TF pre-filter of
// §4.3 and Figure 12).
func (p *Plan) CandidatesInWindow(src index.PostingSource, lo, hi float64, dst []Candidate) []Candidate {
	return p.candidates(func(buf []index.Posting, b traj.Symbol) []index.Posting {
		from := len(buf)
		buf = src.AppendPostings(buf, b)
		kept := buf[:from]
		for _, ps := range buf[from:] {
			if src.IntervalOverlaps(ps.ID, lo, hi) {
				kept = append(kept, ps)
			}
		}
		return kept
	}, dst)
}

// CandidatesByDeparture generates candidates only from trajectories whose
// departure time lies in [lo, hi], using binary search on the
// departure-ordered postings (§4.3's sorted-postings optimisation).
func (p *Plan) CandidatesByDeparture(src index.PostingSource, lo, hi float64, dst []Candidate) []Candidate {
	return p.candidates(func(buf []index.Posting, b traj.Symbol) []index.Posting {
		return src.AppendPostingsInWindow(buf, b, lo, hi)
	}, dst)
}

// appendFunc appends to buf what a source holds of symbol b under the
// call's window.
type appendFunc func(buf []index.Posting, b traj.Symbol) []index.Posting

// candidates is the body of the three. Both window forms keep or drop
// whole trajectories, so the bound sees every posting of every trajectory
// it can emit.
func (p *Plan) candidates(read appendFunc, dst []Candidate) []Candidate {
	sc := getPruneScratch()
	defer putPruneScratch(sc)
	if len(p.Extra) > 0 {
		return p.prune(sc, read, dst)
	}
	for i, it := range p.Subseq {
		for _, b := range p.Neighbors[i] {
			sc.read = read(sc.read[:0], b)
			for _, pos := range sc.read {
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
