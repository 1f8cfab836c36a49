package verify

import (
	"math"

	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// This file is the top-k driver's verification: a trajectory's exact best
// match from one Smith–Waterman scan (Appendix A, Algorithm 7) over the
// compiled cost rows, instead of a bidirectional walk per candidate. At
// the top-k ceiling every position of a trajectory near the query is a
// candidate and the band prunes little, so one |P|·|Q| scan does less
// work than the walks it replaces and needs no trie.
//
// The scan's column at end t holds, per query prefix, the minimum over
// every start s of wed.AllMatches's DP value for P[s..t], bit for bit:
// float addition is monotone, so the minimum over starts commutes with
// each step's additions. It gives the best WED w* and every end that
// reaches it, but not the span traj.Better prefers: once two sums round
// alike, the start that reaches a cell need not be a start of its
// minimiser. A second pass recovers it per end: a reverse scan proposes
// the starts whose reversed-order WED lies within spanSlack of w*, and a
// forward DP confirms each in wed.AllMatches's own bits.

// spanSlack is the relative distance from w* within which the reverse
// scan proposes a start. The two summation orders of one alignment differ
// by at most (|P|+|Q|)·2⁻⁵³ relative, far below it.
const spanSlack = 1e-9

// Best returns trajectory id's best match below the threshold — the
// traj.Better minimum (WED, then shortest span, then smallest S) over
// every subtrajectory whose wed.AllMatches WED is < below, with that WED's
// bits — and whether one exists. A threshold above wed(ε, Q) counts as
// wed(ε, Q): no match beyond it is told from the empty one. Every column
// computed is counted in Stats. The verifier must not be in ModeSW, whose
// rows are never compiled.
func (v *Verifier) Best(id int32, below float64) (traj.Match, bool) {
	p := v.ds.Path(id)
	n := len(v.q)
	v.Stats.ColumnsAvailable += int64(len(p))
	ins := v.rows.ins[:n]
	cut := below
	if empty := wed.SumIns(v.costs, v.q); empty < cut {
		cut = empty
	}
	if cut <= 0 {
		return traj.Match{}, false
	}
	if cap(v.scan) < 2*(n+1) {
		v.scan = make([]float64, 2*(n+1))
	}
	a, b := v.scan[:n+1], v.scan[n+1:2*(n+1)]
	ahi := insColumn(ins, cut, a) // the empty substring's column
	best := math.Inf(1)
	v.ends = v.ends[:0]
	for t, sym := range p {
		row := v.rows.row(v.costs, v.q, sym)
		hi := v.swStep(row.sub[:n], ins, row.del, a, ahi, cut, b)
		if hi == n+1 { // cell n is < cut
			if w := b[n]; w < best {
				best, v.ends = w, v.ends[:0]
				// An end above w* needs no exact cells.
				cut = math.Nextafter(w, math.Inf(1))
			}
			v.ends = append(v.ends, int32(t))
		}
		a, b, ahi = b, a, hi
	}
	if len(v.ends) == 0 {
		return traj.Match{}, false
	}

	// The shortest span among the ends at w*: per end the largest start
	// that confirms, searched only where it can beat the span so far. Ends
	// ascend, so a tie in span keeps the smaller S already found.
	propose := math.Nextafter(best+best*spanSlack, math.Inf(1))
	exact := math.Nextafter(best, math.Inf(1))
	bestS, bestT := -1, -1
	for _, t := range v.ends {
		lo := 0
		if bestT >= 0 {
			lo = int(t) - (bestT - bestS) + 1
		}
		if lo > int(t) {
			continue
		}
		v.starts = v.tails(p, int(t), lo, -1, propose, v.starts[:0])
		for _, s := range v.starts {
			// No span is below w*, so below nextafter(w*) is w*'s bits.
			v.hits = v.tails(p, int(s), int(t), +1, exact, v.hits[:0])
			if k := len(v.hits); k > 0 && v.hits[k-1] == t {
				bestS, bestT = int(s), int(t)
				break
			}
		}
	}
	if bestT < 0 {
		panic("verify: no start confirms the Smith–Waterman minimum")
	}
	return traj.Match{ID: id, S: int32(bestS), T: int32(bestT), WED: best}, true
}

// insColumn writes the insertion prefix sums wed(ε, Qd[:j]), summed left
// to right as wed.AllMatches sums them, into dst while they stay below cut
// and returns the band's end: the sums never decrease, so the cells < cut
// are [0, hi).
func insColumn(ins []float64, cut float64, dst []float64) (hi int) {
	sum := 0.0
	for j := 0; j <= len(ins) && sum < cut; j++ {
		dst[j] = sum
		hi = j + 1
		if j < len(ins) {
			sum += ins[j]
		}
	}
	return hi
}

// swStep advances a Smith–Waterman column by one data symbol: cells
// [0, ahi) of a are the parent's band, every cell above it is ≥ cut. Cell
// 0 is 0 — a match may start after this symbol for free, Algorithm 7's
// boundary — and every other cell takes the cheapest of substitution,
// deletion of the data symbol and insertion of the query symbol, with
// wed.StepDP's sums. It writes the child into dst and returns its band's
// end: every cell < cut lies below it and holds its exact value.
func (v *Verifier) swStep(sub, ins []float64, del float64, a []float64, ahi int, cut float64, dst []float64) (hi int) {
	n := len(sub)
	dst[0] = 0
	prev := 0.0
	top := min(ahi, n)
	for i := 1; i <= top; i++ {
		x := a[i-1] + sub[i-1]
		if i < ahi {
			if d := a[i] + del; d < x {
				x = d
			}
		}
		if d := prev + ins[i-1]; d < x {
			x = d
		}
		dst[i] = x
		prev = x
	}
	hi = top + 1
	cells := hi
	// Above the parent's band only the insertion chain can stay below cut.
	for i := hi; i <= n; i++ {
		x := prev + ins[i-1]
		cells++
		if x >= cut {
			break
		}
		dst[i] = x
		prev = x
		hi = i + 1
	}
	for hi > 1 && dst[hi-1] >= cut {
		hi--
	}
	v.count(cells, n)
	return hi
}

// count books one computed column of cells cells over a query side of n.
func (v *Verifier) count(cells, n int) {
	v.Stats.StepDPCalls++
	v.Stats.ColumnsVisited++
	v.Stats.CellsComputed += int64(cells)
	v.Stats.CellsAvailable += int64(n + 1)
}

// tails runs the column DP of Q over p[from], p[from+dir], …, p[to] from
// the insertion column, banded at cut — of reversed Q when dir < 0, which
// makes it the DP of reversed P[to..from] — and appends every position
// whose column's last cell, the WED of the span from `from` to there, is
// below cut. Forwards, that cell is wed.AllMatches's value bit for bit. It
// stops where the band empties: column minima never decrease.
func (v *Verifier) tails(p []traj.Symbol, from, to, dir int, cut float64, dst []int32) []int32 {
	n := len(v.q)
	half := 0 // the row pair's half: Q, or reversed Q
	if dir < 0 {
		half = n
	}
	ins := v.rows.ins[half : half+n]
	a, b := v.scan[:n+1], v.scan[n+1:2*(n+1)]
	alo, ahi := 0, insColumn(ins, cut, a)
	par := a[:ahi]
	for j := from; j != to+dir; j += dir {
		row := v.rows.row(v.costs, v.q, p[j])
		l, h, cells := wed.StepDPRows(row.sub[half:half+n], ins, row.del, par, alo, ahi, cut, b)
		v.count(cells, n)
		if l == h {
			break
		}
		if h == n+1 {
			dst = append(dst, int32(j))
		}
		par, alo, ahi = b[l-alo:h-alo], l, h
		a, b = b, a
	}
	return dst
}
