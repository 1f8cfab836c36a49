package filter

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"subtraj/internal/index"
)

// This file is the trajectory-level lower bound on WED, the one
// implementation behind both the threshold search's pre-filter (an
// extended plan's Candidates) and the top-k driver's queue keys
// (DESIGN.md §1.4 "Trajectory-level pre-filter", §1.5). For ANY set P of
// query positions — Q′, or Q⁺ ⊇ Q′ — every alignment of every
// subtrajectory pays at least c(q) at each position of P it does not
// substitute inside B(q), and the positions it does substitute there are
// matched to data positions in order: they form a chain of hits (pos, iq)
// strictly increasing in both coordinates. Hence
//
//	min WED ≥ c(P) − heaviest chain ≥ c(P) − covered weight,
//
// the chain and coverage bounds, both weighted by c(q).

// BoundSlack, relative to c(P), is taken off every bound summed from c(q)
// values: the sums round, and a rounded bound must not out-prune a
// trajectory whose WED ties it exactly (DESIGN.md §1.5 "Float slack").
const BoundSlack = 1e-9

// LowerBound turns a trajectory's covered or chained weight over positions
// of total weight cP into an admissible lower bound on its best WED.
func LowerBound(cP, weight float64) float64 {
	return max(0, cP-weight-BoundSlack*cP)
}

// Cover is the coverage scan: per trajectory, the summed weight of the
// positions some posting of it covers, each position counted once. It
// keeps one bit per (trajectory, position) — bit 0 of a trajectory's first
// word says the scan touched it, bit k+1 is position k — so a posting costs
// an OR and no branch; Weight sums a trajectory's bits on demand, and the
// next Start clears them.
type Cover struct {
	bits      []uint64 // words per trajectory, indexed id·words + word
	words     int
	w         []float64 // by position, this scan
	word, bit int       // the current position's bit: word index, then bit index
	// Touched lists the trajectories this scan touched, in the order it
	// met them.
	Touched []int32
}

// Start begins a scan over items positions; n, when known, is one past
// the largest trajectory ID it will meet (the arrays grow on demand
// otherwise).
func (c *Cover) Start(items, n int) {
	c.clearTouched()
	c.words = items/64 + 1
	c.w = slices.Grow(c.w[:0], items)[:items]
	c.grow(n)
}

func (c *Cover) grow(n int) {
	if n*c.words > len(c.bits) {
		c.bits = append(c.bits, make([]uint64, n*c.words-len(c.bits))...)
	}
}

func (c *Cover) clearTouched() {
	for _, id := range c.Touched {
		clear(c.bits[int(id)*c.words : int(id+1)*c.words])
	}
	c.Touched = c.Touched[:0]
}

// Item makes the postings added next count for position i, with weight w.
// Number the positions in query order: Weight sums in position order, as
// Chain sums along a chain, so a trajectory's coverage is never below its
// chain in floats either.
func (c *Cover) Item(i int, w float64) {
	c.w[i] = w
	c.word, c.bit = (i+1)/64, (i+1)%64
}

// Add counts one posting list for the current position.
func (c *Cover) Add(list []index.Posting) {
	if m := len(c.Touched) + len(list); m > cap(c.Touched) {
		c.Touched = slices.Grow(c.Touched, len(list))
	}
	touched, n := c.Touched[:cap(c.Touched)], len(c.Touched)
	set, words, word, bit := c.bits, c.words, c.word, uint64(1)<<c.bit
	for _, p := range list {
		// A pooled Cover keeps bits from scans with other words per
		// trajectory, so its length need not be a multiple of words.
		at := int(p.ID) * words
		if at+words > len(set) {
			c.grow(int(p.ID) + 1)
			set = c.bits
		}
		v := set[at]
		touched[n] = p.ID
		n += int(^v & 1) // its first posting in this scan
		if word == 0 {
			set[at] = v | 1 | bit
		} else {
			set[at] = v | 1
			set[at+word] |= bit
		}
	}
	c.Touched = touched[:n]
}

// Count returns how many positions cover a trajectory the scan touched.
func (c *Cover) Count(id int32) int {
	n := -1 // bit 0 marks the trajectory touched
	for _, v := range c.bits[int(id)*c.words : int(id+1)*c.words] {
		n += bits.OnesCount64(v)
	}
	return n
}

// Weight returns the covered weight of a trajectory the scan touched: its
// positions' weights summed in position order.
func (c *Cover) Weight(id int32) float64 {
	var sum float64
	for j, v := range c.bits[int(id)*c.words : int(id+1)*c.words] {
		if j == 0 {
			v &^= 1
		}
		for ; v != 0; v &= v - 1 {
			sum += c.w[j*64+bits.TrailingZeros64(v)-1]
		}
	}
	return sum
}

// Chain finds the heaviest chain of hits (pos, item) strictly increasing in
// both coordinates, items numbered in query order. Feed it one
// trajectory's hits in ascending position, the items of one position in
// descending order so that they cannot extend each other.
type Chain struct {
	w []float64 // by item
	// tree is a Fenwick tree of prefix maxima: tree[j] is the heaviest
	// chain ending at an item in [j − j&−j, j).
	tree  []float64
	heavy float64
}

// Reset starts a trajectory over items weighted w.
func (c *Chain) Reset(w []float64) {
	c.w, c.heavy = w, 0
	c.tree = slices.Grow(c.tree[:0], len(w)+1)[:len(w)+1]
	clear(c.tree)
}

// Add extends the chain by a hit on item i.
func (c *Chain) Add(i int) {
	var prev float64 // the heaviest chain ending before item i
	for j := i; j > 0; j &= j - 1 {
		prev = max(prev, c.tree[j])
	}
	v := c.w[i] + prev
	for j := i + 1; j < len(c.tree); j += j & -j {
		c.tree[j] = max(c.tree[j], v)
	}
	c.heavy = max(c.heavy, v)
}

// Weight returns the heaviest chain so far.
func (c *Chain) Weight() float64 { return c.heavy }

// extension is what extend adds to a plan for the pre-filter: Q⁺ as scan
// items — Q′ in Subseq order, then Extra — with their weights c(q) and
// their ranks in query order, plus the weights by rank the chain reads.
type extension struct {
	w      []float64 // by scan item
	rank   []int32   // by scan item
	chainW []float64 // by rank
	// heaviest[c] is the most weight c positions can cover: the c largest
	// weights summed.
	heaviest []float64
}

// minCount returns the fewest positions a trajectory must cover for its
// coverage bound to stay below tau. Fewer cannot, whatever the rounding of
// its own sum: heaviest is inflated by 1e-6 before the test. Counting a
// trajectory's bits before summing its weights spares most of them the sum
// (DESIGN.md §1.4 has the measurement).
func (x *extension) minCount(cPlus, tau float64) int {
	for c, h := range x.heaviest {
		if LowerBound(cPlus, h*(1+1e-6)) < tau {
			return c
		}
	}
	return len(x.heaviest)
}

// hitKey packs a posting of a coverage survivor for its chain: ascending
// keys are (position ascending, rank descending), the order Chain reads.
func hitKey(pos, rank int32) uint64 {
	return uint64(pos)<<32 | uint64(math.MaxUint32-uint32(rank))
}

func hitRank(key uint64) int { return int(math.MaxUint32 - uint32(key)) }

type slotHit struct {
	slot int32
	key  uint64
}

// pruneScratch is one Candidates call's working memory, pooled.
type pruneScratch struct {
	cover Cover
	chain Chain
	// slot[id] numbers the coverage survivors, -1 for the rest of the
	// trajectories the scan touched; it is read only for those.
	slot    []int32
	read    []index.Posting // what the call reads, decoded straight into it: on an extended plan, Q⁺'s postings in scan order
	readEnd []int32         // scan item k's postings end at read[readEnd[k]]
	found   []slotHit       // the survivors' postings, in scan order
	start   []int32         // survivor s's hits are hits[start[s]:start[s+1]]
	hits    []uint64        // hitKeys, grouped by survivor
	chained []float64       // by survivor: its heaviest chain
}

var pruneScratches = sync.Pool{New: func() any { return new(pruneScratch) }}

// scan is the pre-filter's bound over one posting source, in two passes
// over its Q⁺ postings. The first decodes them into sc.read, computes
// coverage, and gives a slot to every trajectory with a Q′ posting whose
// coverage bound is below tau. The second walks sc.read again and
// collects those trajectories' postings, appending the Q′ ones to
// dst as candidates in the order Candidates emits them (IQ holding the
// scan item), and sc.chained gets their heaviest chains. It returns how
// many trajectories have a Q′ posting, and how many Q′ postings src has.
func (sc *pruneScratch) scan(p *Plan, read appendFunc, tau float64, dst []Candidate) (out []Candidate, nQ, qPostings int) {
	x, cov := &p.ext, &sc.cover
	cov.Start(len(x.w), len(sc.slot))
	sc.read = sc.read[:0]
	sc.readEnd = slices.Grow(sc.readEnd[:0], len(x.w))[:len(x.w)]
	for k := range x.w {
		cov.Item(int(x.rank[k]), x.w[k])
		for _, b := range p.scanNeighbors(k) {
			from := len(sc.read)
			sc.read = read(sc.read, b)
			cov.Add(sc.read[from:])
		}
		sc.readEnd[k] = int32(len(sc.read))
		if k == len(p.Subseq)-1 {
			nQ, qPostings = len(cov.Touched), len(sc.read)
		}
	}
	if n := len(cov.bits) / cov.words; len(sc.slot) < n {
		sc.slot = append(sc.slot, make([]int32, n-len(sc.slot))...)
	}
	slot := sc.slot
	for _, id := range cov.Touched[nQ:] {
		slot[id] = -1 // no Q′ posting: nothing to emit
	}
	survivors, minCount := int32(0), x.minCount(p.CPlus, tau)
	for _, id := range cov.Touched[:nQ] {
		slot[id] = -1
		if cov.Count(id) >= minCount && LowerBound(p.CPlus, cov.Weight(id)) < tau {
			slot[id] = survivors
			survivors++
		}
	}

	found, lo := sc.found[:0], int32(0)
	for k, hi := range sc.readEnd {
		rank, inQ := x.rank[k], k < len(p.Subseq)
		for _, ps := range sc.read[lo:hi] {
			s := slot[ps.ID]
			if s < 0 {
				continue
			}
			found = append(found, slotHit{s, hitKey(ps.Pos, rank)})
			if inQ {
				dst = append(dst, Candidate{ID: ps.ID, Pos: ps.Pos, IQ: int32(k)})
			}
		}
		lo = hi
	}
	sc.found = found

	// Group the hits by survivor with a counting pass, then chain each
	// group in key order.
	sc.start = slices.Grow(sc.start[:0], int(survivors)+1)[:survivors+1]
	clear(sc.start)
	for _, h := range found {
		sc.start[h.slot+1]++
	}
	for s := int32(1); s <= survivors; s++ {
		sc.start[s] += sc.start[s-1]
	}
	sc.hits = slices.Grow(sc.hits[:0], len(found))[:len(found)]
	for _, h := range found {
		sc.hits[sc.start[h.slot]] = h.key
		sc.start[h.slot]++
	}
	sc.chained = slices.Grow(sc.chained[:0], int(survivors))[:survivors]
	lo = 0
	for s := range sc.chained {
		g := sc.hits[lo:sc.start[s]] // the fill pass moved start[s] to the group's end
		lo = sc.start[s]
		for i := 1; i < len(g); i++ { // insertion sort: a group holds a dozen hits
			h, j := g[i], i
			for ; j > 0 && g[j-1] > h; j-- {
				g[j] = g[j-1]
			}
			g[j] = h
		}
		sc.chain.Reset(x.chainW)
		for _, h := range g {
			sc.chain.Add(hitRank(h))
		}
		sc.chained[s] = sc.chain.Weight()
	}
	return dst, nQ, qPostings
}

// prune is Candidates over an extended plan: the Q′ candidates of the
// trajectories whose chain bound over Q⁺ stays below τ, in the order the
// paper's filter emits them, with what it dropped added to the plan.
func (p *Plan) prune(sc *pruneScratch, read appendFunc, dst []Candidate) []Candidate {
	from := len(dst)
	dst, nQ, qPostings := sc.scan(p, read, p.Tau, dst)
	kept := 0
	for _, id := range sc.cover.Touched[:nQ] {
		if s := sc.slot[id]; s >= 0 && LowerBound(p.CPlus, sc.chained[s]) < p.Tau {
			kept++
		} else {
			sc.slot[id] = -1
		}
	}
	out := dst[:from]
	for _, c := range dst[from:] {
		if sc.slot[c.ID] >= 0 {
			out = append(out, Candidate{ID: c.ID, Pos: c.Pos, IQ: p.Subseq[c.IQ].Pos})
		}
	}
	p.PrunedTrajectories += nQ - kept
	p.PrunedCandidates += qPostings - (len(out) - from)
	return out
}
