package filter

import (
	"math/bits"
	"slices"
	"sync"

	"subtraj/internal/index"
)

// This file is the trajectory-level lower bound on WED, the one
// implementation behind both the threshold search's pre-filter (an
// extended plan's Candidates, over Q⁺) and the top-k driver's queue keys
// (SubseqBounds, over Q′) — one coverage scan (DESIGN.md §1.4
// "Trajectory-level pre-filter", §1.5). For ANY set P of
// query positions — Q′, or Q⁺ ⊇ Q′ — every alignment of every
// subtrajectory pays at least c(q) at each position of P it does not
// substitute inside B(q), and it can substitute there only the positions
// some posting of the trajectory covers. Hence
//
//	min WED ≥ c(P) − covered weight,
//
// the coverage bound, weighted by c(q).

// BoundSlack, relative to c(P), is taken off every bound summed from c(q)
// values: the sums round, and a rounded bound must not out-prune a
// trajectory whose WED ties it exactly (DESIGN.md §1.5 "Float slack").
const BoundSlack = 1e-9

// LowerBound turns a trajectory's covered weight over positions of total
// weight cP into an admissible lower bound on its best WED.
func LowerBound(cP, weight float64) float64 {
	return max(0, cP-weight-BoundSlack*cP)
}

// Bound is a trajectory's coverage bound: Key is at most the WED of every
// subtrajectory of trajectory ID.
type Bound struct {
	Key float64
	ID  int32
}

// cover is the coverage scan: per trajectory, the summed weight of the
// positions some posting of it covers, each position counted once. It
// keeps one bit per (trajectory, position) — bit 0 of a trajectory's first
// word says the scan touched it, bit k+1 is position k — so a posting costs
// an OR and no branch; Weight sums a trajectory's bits on demand, and the
// next Start clears them.
type cover struct {
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
func (c *cover) Start(items, n int) {
	c.clearTouched()
	c.words = items/64 + 1
	c.w = slices.Grow(c.w[:0], items)[:items]
	c.grow(n)
}

func (c *cover) grow(n int) {
	if n*c.words > len(c.bits) {
		c.bits = append(c.bits, make([]uint64, n*c.words-len(c.bits))...)
	}
}

func (c *cover) clearTouched() {
	for _, id := range c.Touched {
		clear(c.bits[int(id)*c.words : int(id+1)*c.words])
	}
	c.Touched = c.Touched[:0]
}

// Item makes the postings added next count for position i, with weight w.
func (c *cover) Item(i int, w float64) {
	c.w[i] = w
	c.word, c.bit = (i+1)/64, (i+1)%64
}

// Add counts one posting list for the current position.
func (c *cover) Add(list []index.Posting) {
	if m := len(c.Touched) + len(list); m > cap(c.Touched) {
		c.Touched = slices.Grow(c.Touched, len(list))
	}
	touched, n := c.Touched[:cap(c.Touched)], len(c.Touched)
	set, words, word, bit := c.bits, c.words, c.word, uint64(1)<<c.bit
	for _, p := range list {
		// A pooled cover keeps bits from scans with other words per
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
func (c *cover) Count(id int32) int {
	n := -1 // bit 0 marks the trajectory touched
	for _, v := range c.bits[int(id)*c.words : int(id+1)*c.words] {
		n += bits.OnesCount64(v)
	}
	return n
}

// Weight returns the covered weight of a trajectory the scan touched: its
// positions' weights summed in position order.
func (c *cover) Weight(id int32) float64 {
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

// minCount returns the fewest positions a trajectory must cover for its
// coverage bound over Q⁺ to stay below τ. Fewer cannot, whatever the
// rounding of its own sum: heaviest is inflated by 1e-6 before the test.
// Counting a trajectory's bits before summing its weights spares most of
// them the sum (DESIGN.md §1.4 has the measurement).
func (p *Plan) minCount() int {
	for c, h := range p.heaviest {
		if LowerBound(p.CPlus, h*(1+1e-6)) < p.Tau {
			return c
		}
	}
	return len(p.heaviest)
}

// pruneScratch is one coverage scan's working memory, pooled.
type pruneScratch struct {
	cover cover
	// keep[id] says whether the pre-filter keeps a trajectory with a Q′
	// posting; it is written and read only for those.
	keep    []bool
	read    []index.Posting // what the scan reads, decoded straight into it: Q′'s postings in scan order
	readEnd []int32         // Q′ item k's postings end at read[readEnd[k]]
}

var pruneScratches = sync.Pool{New: func() any { return new(pruneScratch) }}

// getPruneScratch checks a scan's working memory out of the pool.
//
//subtrajlint:pool-get putPruneScratch
func getPruneScratch() *pruneScratch { return pruneScratches.Get().(*pruneScratch) }

// putPruneScratch returns it, dropping a read buffer grown past
// maxGroupScratch (as GroupByTrajectory's).
func putPruneScratch(sc *pruneScratch) {
	if cap(sc.read) > maxGroupScratch {
		sc.read = nil
	}
	pruneScratches.Put(sc)
}

// scan decodes the postings of the plan's first items scan items from one
// posting source and computes their coverage, Q′'s items first. Only Q′'s
// postings stay in sc.read: prune reads back no other, so an extension
// item's are dropped as soon as they are counted (at δ = 2, Q⁺ has about
// 2.85× Q′'s postings). It returns how many trajectories have a Q′
// posting — the first nQ of sc.cover.Touched.
func (sc *pruneScratch) scan(p *Plan, read appendFunc, items int) (nQ int) {
	cov := &sc.cover
	cov.Start(items, len(sc.keep))
	sc.read = sc.read[:0]
	sc.readEnd = slices.Grow(sc.readEnd[:0], items)[:items]
	for k := range items {
		cov.Item(k, p.w[k])
		for _, b := range p.Neighbors[k] {
			from := len(sc.read)
			sc.read = read(sc.read, b)
			cov.Add(sc.read[from:])
			if k >= len(p.Subseq) {
				sc.read = sc.read[:from]
			}
		}
		sc.readEnd[k] = int32(len(sc.read))
		if k == len(p.Subseq)-1 {
			nQ = len(cov.Touched)
		}
	}
	return nQ
}

// SubseqBounds is the top-k driver's queue scan: it reads Q′'s postings
// of src once and appends to dst every trajectory they touch whose
// coverage bound over Q′, LowerBound(CSum, covered weight), is below
// ceiling, in the order the scan meets it. It returns dst and the
// postings read. The plan must come from BuildPlan.
func (p *Plan) SubseqBounds(src index.PostingSource, ceiling float64, dst []Bound) ([]Bound, int) {
	return p.bounds(src, len(p.Subseq), p.CSum, ceiling, dst)
}

// bounds is SubseqBounds over the first items scan items, of weight cP.
func (p *Plan) bounds(src index.PostingSource, items int, cP, ceiling float64, dst []Bound) ([]Bound, int) {
	sc := getPruneScratch()
	defer putPruneScratch(sc)
	sc.scan(p, src.AppendPostings, items)
	for _, id := range sc.cover.Touched {
		if key := LowerBound(cP, sc.cover.Weight(id)); key < ceiling {
			dst = append(dst, Bound{Key: key, ID: id})
		}
	}
	return dst, len(sc.read)
}

// prune is Candidates over an extended plan: the Q′ candidates of the
// trajectories whose coverage bound over Q⁺ stays below τ, in the order
// the paper's filter emits them, with what it dropped added to the plan.
func (p *Plan) prune(sc *pruneScratch, read appendFunc, dst []Candidate) []Candidate {
	nQ := sc.scan(p, read, len(p.Neighbors))
	cov := &sc.cover
	if n := len(cov.bits) / cov.words; len(sc.keep) < n {
		sc.keep = append(sc.keep, make([]bool, n-len(sc.keep))...)
	}
	kept, minCount := 0, p.minCount()
	for _, id := range cov.Touched[:nQ] {
		ok := cov.Count(id) >= minCount && LowerBound(p.CPlus, cov.Weight(id)) < p.Tau
		sc.keep[id] = ok
		if ok {
			kept++
		}
	}
	from, lo := len(dst), int32(0)
	for k, it := range p.Subseq {
		hi := sc.readEnd[k]
		for _, ps := range sc.read[lo:hi] {
			if sc.keep[ps.ID] {
				dst = append(dst, Candidate{ID: ps.ID, Pos: ps.Pos, IQ: it.Pos})
			}
		}
		lo = hi
	}
	p.PrunedTrajectories += nQ - kept
	p.PrunedCandidates += int(lo) - (len(dst) - from)
	return dst
}
