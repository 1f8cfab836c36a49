// Package wed implements the weighted edit distance (WED) class of §2.2:
// edit distance with user-defined insertion/deletion/substitution costs,
// the six cost instances evaluated in the paper (Lev, EDR, ERP, NetEDR,
// NetERP, SURS), the dynamic-programming kernels, and the Smith–Waterman
// substring scan (Appendix A, Algorithm 7).
//
// A cost model must satisfy the paper's assumptions (Proposition 1):
//
//	sub(a,b) ≥ 0,  sub(a,b) = sub(b,a),  sub(a,a) = 0,  ins(a) = del(a).
//
// Models additionally expose the filtering machinery of §3.1: the
// substitution neighbourhood B(q) (Definition 4) and the per-symbol
// filtering cost c(q) (Eq. 7). Both depend on the neighbourhood threshold
// η, fixed at model construction per Appendix D.
package wed

import "math"

// Symbol is a trajectory element (vertex or edge ID), mirroring
// traj.Symbol without importing it (both alias int32).
type Symbol = int32

// Costs defines the three WED edit-operation costs.
type Costs interface {
	// Name identifies the cost model ("EDR", "NetERP", ...).
	Name() string
	// Sub returns sub(a, b), the cost of substituting a with b.
	Sub(a, b Symbol) float64
	// Ins returns ins(a) = sub(ε, a).
	Ins(a Symbol) float64
	// Del returns del(a) = sub(a, ε). Symmetry forces Del = Ins.
	Del(a Symbol) float64
}

// FilterCosts extends Costs with the subsequence-filtering machinery.
type FilterCosts interface {
	Costs
	// Neighbors appends the substitution neighbourhood B(q) = {b ∈ Σ :
	// sub(q, b) ≤ η} to dst and returns the extended slice. The result
	// always contains q itself (sub(q,q) = 0 ≤ η).
	Neighbors(q Symbol, dst []Symbol) []Symbol
	// FilterCost returns c(q) = min over q' ∈ Σ⁺ \ B(q) of sub(q, q'):
	// the cheapest way to delete q or substitute it outside its
	// neighbourhood (Eq. 7).
	FilterCost(q Symbol) float64
}

// Unit is a unit-cost model (§2.2: Lev, EDR and NetEDR): every
// substitution costs 0 or 1, and every insertion and deletion costs 1. A
// WED under it is a small integer, held exactly in a float64, so its
// alignments can be scored in machine words (verify's word scan). The
// method is unexported: only this package's models can declare it.
type Unit interface {
	Costs
	unitCost()
}

// SumIns returns wed(ε, Q) = Σ ins(Qj), the cost of building Q from the
// empty string.
func SumIns(c Costs, q []Symbol) float64 {
	var s float64
	for _, x := range q {
		s += c.Ins(x)
	}
	return s
}

// SumDel returns wed(P, ε) = Σ del(Pi).
func SumDel(c Costs, p []Symbol) float64 {
	var s float64
	for _, x := range p {
		s += c.Del(x)
	}
	return s
}

// Dist computes wed(P, Q) by dynamic programming in O(|P|·|Q|) time and
// O(|Q|) space.
func Dist(c Costs, p, q []Symbol) float64 {
	// prev[j] = wed(P[:i], Q[:j]) for the previous row i.
	prev := make([]float64, len(q)+1)
	cur := make([]float64, len(q)+1)
	prev[0] = 0
	for j, qs := range q {
		prev[j+1] = prev[j] + c.Ins(qs)
	}
	for _, ps := range p {
		cur[0] = prev[0] + c.Del(ps)
		for j, qs := range q {
			v := prev[j] + c.Sub(ps, qs) // substitution
			if d := prev[j+1] + c.Del(ps); d < v {
				v = d // delete P_i
			}
			if d := cur[j] + c.Ins(qs); d < v {
				v = d // insert Q_j
			}
			cur[j+1] = v
		}
		prev, cur = cur, prev
	}
	return prev[len(q)]
}

// DistMatrix computes the full (|P|+1)×(|Q|+1) DP matrix, used by tests
// and by the exhaustive oracle.
func DistMatrix(c Costs, p, q []Symbol) [][]float64 {
	m := make([][]float64, len(p)+1)
	for i := range m {
		m[i] = make([]float64, len(q)+1)
	}
	for j, qs := range q {
		m[0][j+1] = m[0][j] + c.Ins(qs)
	}
	for i, ps := range p {
		m[i+1][0] = m[i][0] + c.Del(ps)
		for j, qs := range q {
			v := m[i][j] + c.Sub(ps, qs)
			if d := m[i][j+1] + c.Del(ps); d < v {
				v = d
			}
			if d := m[i+1][j] + c.Ins(qs); d < v {
				v = d
			}
			m[i+1][j+1] = v
		}
	}
	return m
}

// StepDP advances one DP column (Algorithm 6): given the column A for some
// prefix P' of the data string against query Qd, it returns the column for
// P'·p. dst is reused when it has capacity. A has length |Qd|+1; A[j] =
// wed(P', Qd[:j]).
func StepDP(c Costs, qd []Symbol, p Symbol, a, dst []float64) []float64 {
	if cap(dst) < len(qd)+1 {
		dst = make([]float64, len(qd)+1)
	} else {
		dst = dst[:len(qd)+1]
	}
	dst[0] = a[0] + c.Del(p)
	for j, qs := range qd {
		v := a[j] + c.Sub(p, qs)
		if d := a[j+1] + c.Del(p); d < v {
			v = d
		}
		if d := dst[j] + c.Ins(qs); d < v {
			v = d
		}
		dst[j+1] = v
	}
	return dst
}

// Min returns the minimum of a DP column — the early-termination lower
// bound LB of Eq. 11.
func Min(col []float64) float64 {
	m := col[0]
	for _, v := range col[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// StepDPBanded is the τ-banded variant of StepDP: it advances one DP
// column computing only the cells that can still matter under a threshold
// τ. The parent column is given as its band a = cells [alo, ahi); every
// cell outside the band is guaranteed ≥ τ and treated as +Inf. The child
// column is written into dst (which must have length ≥ |Qd|+1) at absolute
// cell indices, and the returned [lo, hi) is the child's band: the
// smallest interval containing every child cell whose value is < τ (cells
// of dst outside [lo, hi) are meaningless).
//
// Soundness rests on every edit cost being ≥ 0 (the WED assumptions of
// Proposition 1): a contribution through a source cell ≥ τ is itself ≥ τ,
// so it can never be the minimiser of a cell that ends up < τ. Cells
// below alo inherit ≥ τ from the parent band by induction; cells above
// ahi are reachable only through the child's own insertion chain, which
// the extension loop follows until it crosses τ. Cells < τ therefore get
// the exact full-width StepDP value, bit for bit; cells in [lo, hi) that
// are ≥ τ may be overestimates, which is harmless because (being ≥ τ)
// they can never reach a result or flip a τ′ ≤ τ comparison.
//
// cells reports how many recurrence evaluations were performed — the
// numerator of the band-pruning ratio next to the full width |Qd|+1
// (Stats.CellsComputed / Stats.CellsAvailable in the verify package).
//
// Passing tau = +Inf disables banding: the result is the full column,
// identical to StepDP.
func StepDPBanded(c Costs, qd []Symbol, p Symbol, a []float64, alo, ahi int, tau float64, dst []float64) (lo, hi, cells int) {
	if alo >= ahi {
		return 0, 0, 0 // empty parent band: every child cell is ≥ τ too
	}
	n := len(qd)
	del := c.Del(p)
	inf := math.Inf(1)
	// Parent-sourced region: cell j draws on parent[j] (del) and
	// parent[j-1] (sub), so it spans [alo, min(ahi, n)] — the band grows
	// by at most one over the parent here.
	top := ahi
	if top > n {
		top = n
	}
	prev := inf // child[alo-1], out of band by induction
	for j := alo; j <= top; j++ {
		v := inf
		if j < ahi {
			v = a[j-alo] + del
		}
		if j > alo { // parent[j-1] is in [alo, ahi); qd[j-1] exists
			if d := a[j-1-alo] + c.Sub(p, qd[j-1]); d < v {
				v = d
			}
			if d := prev + c.Ins(qd[j-1]); d < v {
				v = d
			}
		}
		dst[j] = v
		prev = v
		cells++
	}
	end := top + 1
	// Insertion-chain extension: above the parent band the only sub-τ
	// source is child[j-1] + ins(Qd_j), monotone nondecreasing, so stop
	// at the first cell ≥ τ.
	for j := top + 1; j <= n; j++ {
		v := prev + c.Ins(qd[j-1])
		cells++
		if v >= tau {
			break
		}
		dst[j] = v
		prev = v
		end = j + 1
	}
	// Prune the band back to the first/last cell < τ.
	lo, hi = alo, end
	for lo < hi && dst[lo] >= tau {
		lo++
	}
	for hi > lo && dst[hi-1] >= tau {
		hi--
	}
	if lo == hi {
		return 0, 0, cells // normalise the empty band
	}
	return lo, hi, cells
}

// StepDPRows is StepDPBanded with the cost model compiled away: the same
// recurrence, operand order, band logic and cells accounting, reading
// sub[j] = sub(p, Qd[j]), ins[j] = ins(Qd[j]) and del = del(p) from rows
// computed once instead of through a Costs call per cell. len(sub) is
// |Qd|; ins must be at least that long.
//
// Unlike StepDPBanded, dst is indexed relative to the parent band's lower
// edge: child cell j is written to dst[j-alo], so dst needs only
// |Qd|+1-alo cells — the widest band a child of this parent can have.
// The returned [lo, hi) is absolute, as in StepDPBanded; the band
// therefore lives in dst[lo-alo : hi-alo], where the verifier's next step
// reads it as its parent.
func StepDPRows(sub, ins []float64, del float64, a []float64, alo, ahi int, tau float64, dst []float64) (lo, hi, cells int) {
	if alo >= ahi {
		return 0, 0, 0 // empty parent band: every child cell is ≥ τ too
	}
	n := len(sub)
	w := ahi - alo
	a = a[:w]
	dst = dst[:n+1-alo]
	// sub and ins shifted so that index k-1 serves child cell alo+k.
	sub, ins = sub[alo:], ins[alo:n]
	// Cell alo has only the deletion source: child[alo-1] and
	// parent[alo-1] are out of band by induction.
	prev := a[0] + del
	dst[0] = prev
	// Cells alo+1 .. ahi-1 draw on all three sources.
	for k := 1; k < w; k++ {
		v := a[k] + del
		if d := a[k-1] + sub[k-1]; d < v {
			v = d
		}
		if d := prev + ins[k-1]; d < v {
			v = d
		}
		dst[k] = v
		prev = v
	}
	cells = w
	end := w
	if ahi <= n {
		// Cell ahi: parent[ahi] is out of band, leaving sub and ins.
		v := a[w-1] + sub[w-1]
		if d := prev + ins[w-1]; d < v {
			v = d
		}
		dst[w] = v
		prev = v
		cells++
		end++
	}
	// Insertion-chain extension, as in StepDPBanded.
	for k := end; k <= n-alo; k++ {
		v := prev + ins[k-1]
		cells++
		if v >= tau {
			break
		}
		dst[k] = v
		prev = v
		end = k + 1
	}
	// Prune the band back to the first/last cell < τ.
	lo, hi = 0, end
	for lo < hi && dst[lo] >= tau {
		lo++
	}
	for hi > lo && dst[hi-1] >= tau {
		hi--
	}
	if lo == hi {
		return 0, 0, cells // normalise the empty band
	}
	return alo + lo, alo + hi, cells
}
