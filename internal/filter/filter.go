// Package filter implements the subsequence-filtering principle of §3: the
// per-symbol filtering costs c(q), the substitution neighbourhoods B(q),
// the MinCand candidate-minimisation problem (Definition 5) solved by the
// primal–dual greedy 2-approximation of Algorithm 1, and candidate
// generation from the inverted index (the loop of Algorithm 2).
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

// Plan is the query-time filtering state: the chosen τ-subsequence and the
// precomputed neighbourhoods/statistics, reusable for candidate generation
// and reporting.
type Plan struct {
	// Subseq is the chosen τ-subsequence Q' in query order.
	Subseq []Item
	// Neighbors[i] is B(Subseq[i].Sym).
	Neighbors [][]traj.Symbol
	// Extra is Q⁺ \ Q′: the positions the first Candidates* call on a
	// BuildPlan plan adds for the trajectory-level pre-filter (DESIGN.md
	// §1.4), cheapest n(q)/c(q) first, and ExtraNeighbors[i] is
	// B(Extra[i].Sym). A plan without them — one built by hand, or one
	// only top-k reads — generates the paper's candidate set.
	Extra          []Item
	ExtraNeighbors [][]traj.Symbol
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

	ext extension
	// in is BuildPlan's per-position work, kept until the first
	// Candidates* call extends the plan with it (extend).
	in planInputs
}

// planInputs is what BuildPlan computed for every position of the query:
// its symbol, c(q), the postings N_q of B(q), B(q), and whether Q′ holds it.
type planInputs struct {
	q         []traj.Symbol
	c, nq     []float64
	neighbors [][]traj.Symbol
	inQ       []bool
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
// and B(q); freqs provides the frequencies n(b). The plan keeps q: the
// first Candidates* call extends Q′ to the Q⁺ the pre-filter bounds
// trajectories over (see extend).
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
	plan := &Plan{CQ: cTotal, Tau: tau}
	inQ := make([]bool, n)
	for _, i := range chosen {
		plan.Subseq = append(plan.Subseq, Item{Sym: q[i], Pos: int32(i)})
		plan.Neighbors = append(plan.Neighbors, neighbors[i])
		plan.CSum += c[i]
		plan.PredictedCandidates += int(nq[i])
		inQ[i] = true
	}
	plan.CPlus = plan.CSum
	plan.in = planInputs{q: q, c: c, nq: nq, neighbors: neighbors, inQ: inQ}
	return plan, nil
}

// Positions returns what BuildPlan computed for every position i of the
// query q: c[i] = c(q[i]) and neighbors[i] = B(q[i]), from the same calls
// Subseq, Neighbors and CSum were built from. The first Candidates* call
// consumes them (extend); all three are nil after it.
func (p *Plan) Positions() (q []traj.Symbol, c []float64, neighbors [][]traj.Symbol) {
	return p.in.q, p.in.c, p.in.neighbors
}

// extend adds Q⁺ \ Q′ — positions outside Q′ with c(q) > 0, the fewest
// postings per unit of bound first (a position whose neighbourhood occurs
// nowhere is free and raises every trajectory's bound by c(q)). δ follows
// from the plan itself: positions are added while their postings total at
// most twice PredictedCandidates, the candidates at stake — bounding with
// a posting costs tens of nanoseconds, verifying a candidate most of a
// microsecond, and the bound's own cost stops falling there (DESIGN.md
// §1.4 has the measured curve). A plan with no candidates is not
// extended: there is nothing to drop. The first Candidates* call runs it,
// so a plan nobody generates candidates from never pays for it.
func (p *Plan) extend() {
	in := p.in
	p.in = planInputs{}
	if p.PredictedCandidates == 0 {
		return
	}
	order := make([]int, 0, len(in.q)-len(p.Subseq))
	for i := range in.q {
		if !in.inQ[i] && in.c[i] > 0 {
			order = append(order, i)
		}
	}
	// A selection sort of the prefix δ reaches: a dozen picks out of fifty.
	n, postings := 0, 0
	for ; n < len(order); n++ {
		best := n
		for j := n + 1; j < len(order); j++ {
			a, b := order[j], order[best]
			if x, y := in.nq[a]*in.c[b], in.nq[b]*in.c[a]; x < y || x == y && a < b {
				best = j
			}
		}
		i := order[best]
		if postings+int(in.nq[i]) > 2*p.PredictedCandidates {
			break
		}
		order[n], order[best] = i, order[n]
		postings += int(in.nq[i])
	}
	p.setExtra(in, order[:n])
}

// setExtra makes the query positions extra, in that order, Q⁺ \ Q′, and
// builds the tables the pre-filter reads.
func (p *Plan) setExtra(in planInputs, extra []int) {
	if len(extra) == 0 {
		return
	}
	// Scan items are Q′ in Subseq order, then Extra.
	n, m := len(extra), len(p.Subseq)+len(extra)
	x := &p.ext
	buf := make([]float64, 2*m+1)
	x.w, x.heaviest = buf[:0:m], buf[m:]
	for _, it := range p.Subseq {
		x.w = append(x.w, in.c[it.Pos])
	}
	p.Extra, p.ExtraNeighbors = make([]Item, n), make([][]traj.Symbol, n)
	for j, i := range extra {
		p.Extra[j], p.ExtraNeighbors[j] = Item{Sym: in.q[i], Pos: int32(i)}, in.neighbors[i]
		p.CPlus += in.c[i]
		x.w = append(x.w, in.c[i])
	}
	h := x.heaviest[1:]
	copy(h, x.w)
	slices.Sort(h)
	slices.Reverse(h)
	for i := 1; i <= m; i++ {
		x.heaviest[i] += x.heaviest[i-1]
	}
}

// scanNeighbors returns B of scan item k: Q′'s items, then Extra.
func (p *Plan) scanNeighbors(k int) []traj.Symbol {
	if k < len(p.Neighbors) {
		return p.Neighbors[k]
	}
	return p.ExtraNeighbors[k-len(p.Neighbors)]
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
// one posting source of an index view — the arena, or the delta beside
// it; the candidate set over a view's sources is exactly the set of one
// arena over the same trajectories.
//
// The first call on a BuildPlan plan extends it (extend). On an extended
// plan it emits only the candidates of trajectories the pre-filter keeps:
// it reads the Q⁺ postings of src, drops every trajectory whose coverage
// bound over Q⁺ reaches τ (bound.go), and emits the rest in the order
// above. Q′ is still a τ-subsequence and the bound is admissible, so no
// match is lost.
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
	if p.in.q != nil {
		p.extend()
	}
	sc := pruneScratches.Get().(*pruneScratch)
	defer func() {
		if cap(sc.read) > maxGroupScratch {
			sc.read = nil // as GroupByTrajectory's buffer
		}
		pruneScratches.Put(sc)
	}()
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
