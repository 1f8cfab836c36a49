package verify

import (
	"math"
	"math/bits"
	"slices"

	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// This file holds the whole-trajectory scans. The first is the top-k
// driver's verification: a trajectory's exact best
// match from one Smith–Waterman scan (Appendix A, Algorithm 7) over the
// compiled cost rows, instead of a bidirectional walk per candidate. At
// the top-k ceiling every position of a trajectory near the query is a
// candidate and the band prunes little, so one |P|·|Q| scan does less
// work than the walks it replaces.
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
//
// A unit-cost model (wed.Unit) with |Q| ≤ 64 takes the word scan instead
// (bestWord): Myers' bit-vector edit distance (J. ACM 1999), one column of
// the same recurrence per machine word, over the caller's match masks. The
// threshold search's word enumeration (Enumerate) is the same two scans
// without the stop at the best: every match, over windows of the path.

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
//
// eq, if not nil, holds the match mask of every position t of the path:
// bit i of eq[t] is set iff sub(P[t], Q[i]) = 0. With it, a query
// WordScan accepts takes the word scan, which reads no compiled row; any
// other ignores eq and runs the float scan. Both return the same match,
// bit for bit.
func (v *Verifier) Best(id int32, below float64, eq []uint64) (traj.Match, bool) {
	if eq != nil && WordScan(v.costs, len(v.q)) {
		return v.bestWord(id, below, eq)
	}
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
	a, b := v.columns()
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
	a, b := v.columns()
	alo, ahi := 0, insColumn(v.rows.ins[half:half+n], cut, a)
	par := a[:ahi]
	for j := from; j != to+dir; j += dir {
		l, h := v.step(p[j], half, n, par, alo, ahi, cut, b)
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

// wordBits is the longest query the word scan takes: one bit per position.
const wordBits = 64

// WordScan reports whether Best, given match masks, scans a query of n
// symbols under costs a machine word per column: a unit-cost model
// (wed.Unit) and 1 ≤ n ≤ 64.
func WordScan(costs wed.Costs, n int) bool {
	_, unit := costs.(wed.Unit)
	return unit && n >= 1 && n <= wordBits
}

// bestWord is Best for a unit-cost model and |Q| ≤ 64. Every WED is then
// an integer below 65, so the scores below are wed.AllMatches's sums
// exactly, and float64(score) is its bits.
//
// The forward scan is Myers' semi-global search: row 0 of every column is
// 0, so a match may start anywhere, and the bottom cell — tracked as a
// score — is the best WED of a subtrajectory ending at t. It gives w* and
// every end that reaches it. Per end, spanStart runs the same recurrence
// over reversed Q, anchored at the end, down to the first start that
// reaches w*: the end's shortest span. The reversed-order WED of a span
// equals its forward WED exactly, so no forward DP confirms it. A span
// longer than |Q| + w* deletes more than w* symbols: the scan stops there,
// or where the span stops beating the best so far. Ends ascend, so a tie
// in span keeps the smaller S.
func (v *Verifier) bestWord(id int32, below float64, eq []uint64) (traj.Match, bool) {
	p := v.ds.Path(id)
	n := len(v.q)
	v.Stats.ColumnsAvailable += int64(len(p))
	cut := min(below, float64(n)) // wed(ε, Q) = |Q|
	if cut <= 0 {
		return traj.Match{}, false
	}
	top := uint64(1) << (n - 1)
	// An integer score is < cut iff it is < lim; once an end reaches w*,
	// lim is w* + 1 and only ends at w* stay below it.
	lim := int(math.Ceil(cut))
	v.ends = v.ends[:0]
	pv, mv, score := ^uint64(0), uint64(0), n // the empty substring's column
	for t := range p {
		pv, mv, score = myersStep(eq[t], pv, mv, score, top, 0)
		if score < lim {
			if score < lim-1 {
				lim, v.ends = score+1, v.ends[:0]
			}
			v.ends = append(v.ends, int32(t))
		}
		v.count(n+1, n)
	}
	if len(v.ends) == 0 {
		return traj.Match{}, false
	}
	best := lim - 1
	bestS, bestT := -1, -1
	for _, t := range v.ends {
		span := n + best // the longest span that can cost ≤ w*
		if bestT >= 0 {
			span = min(span, bestT-bestS) // strictly shorter than the best
		}
		if s := v.spanStart(eq, int(t), span, best); s >= 0 {
			bestS, bestT = s, int(t)
		}
	}
	if bestT < 0 {
		panic("verify: no start reaches the word scan's minimum")
	}
	return traj.Match{ID: id, S: int32(bestS), T: int32(bestT), WED: float64(best)}, true
}

// spanStart returns the largest start s of a span P[s..t] of at most span
// symbols whose WED is w, or −1 if there is none. It scans down from t over
// reversed Q, anchored at t: row 0 grows by one per column, the cost of
// deleting the span so far, so each column's bottom cell is the WED of
// exactly the span down to it. Unanchored, a start would also count that
// reaches w over a shorter span ending before t.
func (v *Verifier) spanStart(eq []uint64, t, span, w int) int {
	n := len(v.q)
	top := uint64(1) << (n - 1)
	pv, mv, score := ^uint64(0), uint64(0), n
	for s := t; s >= 0 && t-s < span; s-- {
		// The reversed mask: bit i of Q is bit n−1−i of reversed Q.
		pv, mv, score = myersStep(bits.Reverse64(eq[s])>>(wordBits-n), pv, mv, score, top, 1)
		v.count(n+1, n)
		if score == w {
			return s
		}
	}
	return -1
}

// Masks supplies the word scans' match masks.
type Masks interface {
	// Fill sets dst[i] to the match mask of path[i], bit k set iff
	// sub(path[i], Q[k]) = 0, for every i < len(path).
	Fill(dst []uint64, path []traj.Symbol)
}

// Enumerate verifies one trajectory's candidates, group — all of one ID,
// in any order — under a query WordScan accepts and a threshold τ: it
// reports every match the trajectory holds inside the windows of group's
// candidates, each (s, t) once and with its exact WED, in (S, T) order.
// Like Verify, it counts the candidates, and the callers of both feed
// whole trajectory groups. The verifier must not be in ModeSW.
//
// Every WED is an integer, so WED < τ iff WED < ⌈τ⌉: a match costs at most
// ⌈τ⌉ − 1, so it spans at most L = |Q| + ⌈τ⌉ − 1 symbols. By subsequence
// filtering (§3), an optimal alignment of a match substitutes some
// P[j] ∈ B(Q[iq]) for a Q′ position iq, and (j, iq) is a candidate.
// The alignment's halves, P[s..j−1] against Q[:iq] and P[j+1..t] against
// Q[iq+1:], each cost at least their length difference, so the match lies
// in the candidate's window [j − iq − ⌈τ⌉ + 1, j + |Q| − 1 − iq + ⌈τ⌉ − 1].
// The windows of group, clipped to the path and merged where they overlap
// or abut, hold every match, each inside one of them. Over each such
// interval a forward Myers scan (row 0 free: a match may start anywhere
// in it) marks every end t some match reaches; from each end an anchored
// reverse scan (row 0 counts the deletions) reads the WED of every span
// P[s..t] down to max(interval start, t − L + 1) and emits those below
// ⌈τ⌉. The scores are wed.AllMatches's sums exactly, and float64(score)
// is its bits.
//
// Each word column is booked as a column of |Q| + 1 cells, forward and
// reverse alike; ColumnsAvailable gains |P| − 1 per candidate, as the walk
// books it.
func (v *Verifier) Enumerate(group []Candidate, masks Masks) {
	v.flush()
	id := group[0].ID
	p := v.ds.Path(id)
	n := len(v.q)
	v.Stats.Candidates += len(group)
	v.Stats.ColumnsAvailable += int64(len(group)) * int64(len(p)-1)
	lim := int(math.Ceil(v.tau)) // WED < τ iff WED < lim
	if lim <= 0 {
		return
	}
	// The windows as lo<<32 | hi, clipped, so that they sort by lo.
	v.wins = v.wins[:0]
	for _, c := range group {
		lo := max(0, int(c.Pos-c.IQ)-lim+1)
		hi := min(len(p)-1, int(c.Pos)+n-1-int(c.IQ)+lim-1)
		v.wins = append(v.wins, uint64(lo)<<32|uint64(hi))
	}
	slices.Sort(v.wins)
	a, b := -1, -1
	for _, win := range v.wins {
		lo, hi := int(win>>32), int(uint32(win))
		if a >= 0 && lo <= b+1 {
			b = max(b, hi)
			continue
		}
		if a >= 0 {
			v.window(id, p, a, b, lim, masks)
		}
		a, b = lo, hi
	}
	v.window(id, p, a, b, lim, masks)
	if len(v.chunk) == 0 {
		return
	}
	// The chunk is in (T, −S) order: one stable pass by S makes it (S, T).
	// Every S lies between the first interval's start and the last T.
	lo, hi := int32(v.wins[0]>>32), v.chunk[len(v.chunk)-1].T
	v.byT = slices.Grow(v.byT[:0], len(v.chunk))[:len(v.chunk)]
	v.counts = slices.Grow(v.counts[:0], int(hi-lo)+1)[:int(hi-lo)+1]
	scatter(v.byT, v.chunk, v.counts, lo, true)
	v.out = append(v.out, v.byT...)
	v.chunk = v.chunk[:0]
}

// window enumerates the matches inside p[a..b] into the chunk (see
// Enumerate), ends ascending and, per end, starts descending.
func (v *Verifier) window(id int32, p []traj.Symbol, a, b, lim int, masks Masks) {
	n := len(v.q)
	reach := n + lim - 1 // L, the longest span below lim
	w := b - a + 1
	v.eq = slices.Grow(v.eq[:0], 2*w)[:2*w]
	eq, rev := v.eq[:w], v.eq[w:]
	masks.Fill(eq, p[a:b+1])
	top := uint64(1) << (n - 1)
	cols := 0
	pv, mv, score := ^uint64(0), uint64(0), n // the empty substring's column
	// rev is filled on demand: up to reversed, from where a scan can
	// still reach.
	reversed := 0
	for t, m := range eq {
		pv, mv, score = myersStep(m, pv, mv, score, top, 0)
		cols++
		if score >= lim {
			continue // no span of the interval ending at t is a match
		}
		first := max(0, t-reach+1)
		for i := max(reversed, first); i <= t; i++ {
			// The reversed mask: bit i of Q is bit n−1−i of reversed Q.
			rev[i] = bits.Reverse64(eq[i]) >> (wordBits - n)
		}
		reversed = t + 1
		rpv, rmv, rscore := ^uint64(0), uint64(0), n
		for s := t; s >= first; s-- {
			rpv, rmv, rscore = myersStep(rev[s], rpv, rmv, rscore, top, 1)
			cols++
			if rscore < lim {
				v.chunk = append(v.chunk, traj.Match{ID: id, S: int32(a + s), T: int32(a + t), WED: float64(rscore)})
			}
		}
	}
	v.Stats.StepDPCalls += int64(cols)
	v.Stats.ColumnsVisited += int64(cols)
	v.Stats.CellsComputed += int64(cols) * int64(n+1)
	v.Stats.CellsAvailable += int64(cols) * int64(n+1)
}

// myersStep advances a column of unit-cost edit distances by one data
// symbol (Myers 1999, in Hyyrö's formulation). pv and mv hold the column's
// vertical deltas (+1 and −1 bits, cell i against cell i−1), score its
// bottom cell, top the bottom row's bit, and eq the rows whose query symbol
// the data symbol matches at cost 0. carry is row 0's horizontal delta: 0
// when a match may start at any column, 1 when row 0 counts deletions.
// Rows above the query's are garbage the low rows never read: additions
// and shifts carry upwards only.
func myersStep(eq, pv, mv uint64, score int, top, carry uint64) (uint64, uint64, int) {
	xv := eq | mv
	xh := ((eq & pv) + pv) ^ pv | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	if ph&top != 0 {
		score++
	} else if mh&top != 0 {
		score--
	}
	ph = ph<<1 | carry
	mh <<= 1
	return mh | ^(xv | ph), ph & xv, score
}
