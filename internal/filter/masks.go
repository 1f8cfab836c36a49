package filter

import (
	"math/bits"
	"slices"
	"sync"

	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/wed"
)

// symTable is what one query knows about a data symbol: its match mask,
// bit i set iff sub(b, Q[i]) = 0 (verify.Masks). It is an open-addressing
// hash table (linear probing, power-of-two size, at most half full) keyed
// by symbol + 1: key 0 marks an empty slot, which reads as a symbol that
// matches nowhere. A lookup happens once per path symbol the word scans
// read — hence not a Go map — and most of those symbols are in no B(q): a
// 4,096-bit presence filter answers such a miss without a probe. BuildPlan
// builds it into a pooled table, and Plan.Release hands it back; in
// between it is read-only, so verify workers share it.
type symTable struct {
	slots   []symSlot
	shift   uint // 32 − log2(len(slots))
	present [64]uint64
}

type symSlot struct {
	mask uint64
	key  uint32
}

// symHash spreads a symbol over 32 bits: the table's slot is its top
// log2(len(slots)) bits, the presence filter's bit its top 12.
func symHash(b traj.Symbol) uint32 { return uint32(b) * 0x9E3779B1 }

// presence returns b's word and bit in the presence filter.
func presence(b traj.Symbol) (word uint32, bit uint64) {
	h := symHash(b)
	return h >> 26, 1 << (h >> 20 & 63)
}

// symTables pools the mask tables, so that a query's steady state
// allocates none.
var symTables = sync.Pool{New: func() any { return new(symTable) }}

// newSymTable builds the match masks of query q from B(q[i]) =
// flat[ends[i]:ends[i+1]], keeping the members with sub = 0: B(q) holds
// every one of them (Definition 4), so a symbol outside the table matches
// nowhere. The word scans take |Q| ≤ 64 (verify.WordScan).
//
//subtrajlint:pool-transfer
func newSymTable(costs wed.Costs, q, flat []traj.Symbol, ends []int32) *symTable {
	size := 16
	for size < 2*len(flat) {
		size *= 2
	}
	st := symTables.Get().(*symTable)
	st.slots = slices.Grow(st.slots[:0], size)[:size]
	clear(st.slots)
	clear(st.present[:])
	st.shift = uint(32 - bits.TrailingZeros(uint(size)))
	for i, sym := range q {
		for _, b := range flat[ends[i]:ends[i+1]] {
			if costs.Sub(b, sym) != 0 {
				continue
			}
			word, bit := presence(b)
			st.present[word] |= bit
			s := st.slot(b)
			s.key = uint32(b) + 1
			s.mask |= 1 << i
		}
	}
	return st
}

// slot returns b's slot, or the empty slot where b belongs.
func (st *symTable) slot(b traj.Symbol) *symSlot {
	mask, key := uint32(len(st.slots)-1), uint32(b)+1
	for i := symHash(b) >> st.shift; ; i = (i + 1) & mask {
		if s := &st.slots[i]; s.key == key || s.key == 0 {
			return s
		}
	}
}

// Fill writes the match masks of path into dst (verify.Masks). It only
// reads the table, so concurrent workers share it.
func (st *symTable) Fill(dst []uint64, path []traj.Symbol) {
	for i, b := range path {
		dst[i] = 0
		if word, bit := presence(b); st.present[word]&bit != 0 {
			dst[i] = st.slot(b).mask
		}
	}
}

// Masks returns the query's match masks for the word scans, or nil when
// verify.WordScan does not hold for the plan's cost model and query
// length.
func (p *Plan) Masks() verify.Masks {
	if p.masks == nil {
		return nil
	}
	return p.masks
}

// Release hands the plan's mask table back to the pool for a later plan;
// Masks returns nil after it. Call it once nothing reads the masks: a
// verify.Masks the plan handed out must not be used after it. A plan
// never released leaves its table to the collector.
func (p *Plan) Release() {
	if p.masks != nil {
		symTables.Put(p.masks)
		p.masks = nil
	}
}
