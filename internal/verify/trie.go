package verify

import (
	"math"

	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// A trie caches DP columns for one direction of one τ-subsequence position
// (§5.2). Each node corresponds to a path prefix P^d[1..k]; its cached
// column holds wed(P^d[1..k], Q^d[1..j]) for j = 0..|Q^d|. Children are a
// first-child/next-sibling list — road-network branching is tiny
// ("typically, three"), so linear sibling scans beat maps.
//
// All the tries of a verifier share one node store (nodes, colMin, tail:
// parallel arrays indexed by node) and one slab arena of column cells
// (cols), so a trie itself is just a root index plus the part of the
// compiled cost rows its Q^d selects. A cache hit reads the sibling list,
// colMin and tail and never touches column memory; a miss runs
// wed.StepDPRows from the parent's band straight into the arena tail.
//
// Columns are stored τ-banded: only the cells of the active band
// [lo, hi) — the smallest interval containing every cell < τ — are
// materialised; everything outside is semantically +Inf. Cells < τ hold
// the exact full-width DP value (see wed.StepDPBanded), and a cell ≥ τ
// can never reach a result because every per-candidate τ′ is ≤ τ, so
// every quantity the verifier reads through tail/colMin is
// indistinguishable from a full-width trie's, while StepDP work and
// arena bytes shrink by the band ratio.
type trie struct {
	root int32
	// Q^d's costs are cells [row0, row0+n) of every compiled row pair
	// (costRows): n = |Q^d|.
	row0, n int32
}

type trieNode struct {
	sym traj.Symbol
	// The band's cells are cols.at(slab, off, hi-lo).
	slab, off int32
	// [lo, hi) is the band in column-index space (0..|Q^d|+1); lo == hi
	// encodes an all-≥-τ column with no stored cells.
	lo, hi      int32
	firstChild  int32 // node index, -1 if leaf
	nextSibling int32 // node index, -1 at end of sibling list
}

const nilNode = int32(-1)

// trieMark is a position in the node store and column arena to retire
// back to.
type trieMark struct {
	nodes int
	cols  arenaMark
}

// newTrie creates the root, whose column is wed(ε, Q^d[1..j]) — the
// insertion prefix sums, banded to the cells < τ. The sums are
// nondecreasing (ins ≥ 0), so the band is [0, hi) up to the first
// prefix ≥ τ.
func (v *Verifier) newTrie(row0, n int32) trie {
	ins := v.rows.ins[row0 : row0+n]
	buf, slab, off := v.cols.reserve(int(n) + 1)
	sum := 0.0
	hi := int32(0)
	for j := int32(0); j <= n && sum < v.tau; j++ {
		buf[j] = sum
		hi = j + 1
		if j < n {
			sum += ins[j]
		}
	}
	v.cols.commit(int(hi))
	nd := trieNode{sym: -1, slab: slab, off: off, hi: hi, firstChild: nilNode, nextSibling: nilNode}
	return trie{root: v.addNode(nd, n, buf[:hi]), row0: row0, n: n}
}

// addNode appends a node whose band cells are band, recording the column
// minimum — the early-termination lower bound LB of Eq. 11 — and the tail
// E^d_k = wed(P^d[1..k], Q^d), the band's last cell when it reaches cell
// n = |Q^d|. Both are +Inf where the band has no such cell: the true value
// is ≥ τ and can never join a result.
func (v *Verifier) addNode(nd trieNode, n int32, band []float64) int32 {
	mn, tail := math.Inf(1), math.Inf(1)
	if len(band) > 0 {
		mn = wed.Min(band)
		if nd.hi == n+1 {
			tail = band[len(band)-1]
		}
	}
	v.nodes = append(v.nodes, nd)
	v.colMin = append(v.colMin, mn)
	v.tail = append(v.tail, tail)
	return int32(len(v.nodes) - 1)
}

// child returns the child of node ni labelled sym, creating it (and
// computing its banded DP column, Algorithm 6) if absent. computed reports
// whether a StepDP call happened — a cache miss in the paper's CMR metric.
func (v *Verifier) child(t trie, ni int32, sym traj.Symbol) (ci int32, computed bool) {
	for c := v.nodes[ni].firstChild; c != nilNode; c = v.nodes[c].nextSibling {
		if v.nodes[c].sym == sym {
			return c, false
		}
	}
	// Cache miss: derive the child band from the parent's, in place at
	// the arena tail. The parent run stays valid: slabs never move.
	pn := v.nodes[ni]
	nd := trieNode{sym: sym, firstChild: nilNode, nextSibling: pn.firstChild}
	var band []float64
	if pn.lo < pn.hi {
		row := v.rows.row(v.costs, v.q, sym)
		dst, slab, off := v.cols.reserve(int(t.n + 1 - pn.lo))
		lo, hi, cells := wed.StepDPRows(row.sub[t.row0:t.row0+t.n], v.rows.ins[t.row0:t.row0+t.n], row.del,
			v.cols.at(pn.slab, pn.off, pn.hi-pn.lo), int(pn.lo), int(pn.hi), v.tau, dst)
		v.Stats.CellsComputed += int64(cells)
		if lo < hi {
			// Cells below lo stay behind as a gap; the band's lower edge
			// rises by at most a cell or so per column.
			v.cols.commit(hi - int(pn.lo))
			band = dst[lo-int(pn.lo) : hi-int(pn.lo)]
			nd.slab, nd.off, nd.lo, nd.hi = slab, off+int32(lo)-pn.lo, int32(lo), int32(hi)
		}
	}
	v.Stats.CellsAvailable += int64(t.n + 1)
	ci = v.addNode(nd, t.n, band)
	v.nodes[ni].firstChild = ci
	return ci, true
}

// markTries and retireTries bracket tries that live for one candidate
// (ModeLocal): everything created since the mark is freed, stack fashion.
func (v *Verifier) markTries() trieMark {
	return trieMark{nodes: len(v.nodes), cols: v.cols.mark()}
}

func (v *Verifier) retireTries(m trieMark) {
	v.nodes, v.colMin, v.tail = v.nodes[:m.nodes], v.colMin[:m.nodes], v.tail[:m.nodes]
	v.cols.release(m.cols)
}
