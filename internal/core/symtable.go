package core

import (
	"math/bits"
	"slices"
	"sync"

	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// symTable is what one query knows about a data symbol: its match mask,
// bit i set iff sub(b, Q[i]) = 0, and, for top-k, its run inv[lo:hi] of
// subsequence items. It is an open-addressing hash table (linear probing,
// power-of-two size, at most half full) keyed by symbol + 1: key 0 marks
// an empty slot, which reads as a symbol in no run that matches nowhere.
// A lookup happens once per path symbol the word scans read and top-k
// chains — hence not a Go map — and most of those symbols are in no B(q):
// a 4,096-bit presence filter answers such a miss without a probe. Both
// drivers build it from filter.Plan.Positions(); once built it is
// read-only, so workers share it.
type symTable struct {
	slots   []symSlot
	shift   uint // 32 − log2(len(slots))
	present [64]uint64
}

type symSlot struct {
	mask   uint64
	key    uint32
	lo, hi int32
}

// symHash spreads a symbol over 32 bits: the table's slot is its top
// log2(len(slots)) bits, the presence filter's bit its top 12.
func symHash(b traj.Symbol) uint32 { return uint32(b) * 0x9E3779B1 }

// reset empties the table, sized for up to n symbols.
func (st *symTable) reset(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	st.slots = slices.Grow(st.slots[:0], size)[:size]
	clear(st.slots)
	clear(st.present[:])
	st.shift = uint(32 - bits.TrailingZeros(uint(size)))
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

// add returns b's slot, claiming it if b is new.
func (st *symTable) add(b traj.Symbol) *symSlot {
	h := symHash(b)
	st.present[h>>26] |= 1 << (h >> 20 & 63)
	s := st.slot(b)
	s.key = uint32(b) + 1
	return s
}

// has reports whether b may have been added: false means it was not.
func (st *symTable) has(b traj.Symbol) bool {
	h := symHash(b)
	return st.present[h>>26]&(1<<(h>>20&63)) != 0
}

// get returns b's entry: the zero entry if b was never added. It writes
// nothing, so concurrent readers share the table.
func (st *symTable) get(b traj.Symbol) symSlot {
	if !st.has(b) {
		return symSlot{}
	}
	return *st.slot(b)
}

// members returns Σ|B(q)| over neighbors, the most symbols a table built
// from them holds.
func members(neighbors [][]traj.Symbol) int {
	n := 0
	for _, nb := range neighbors {
		n += len(nb)
	}
	return n
}

// addMasks sets the match masks of the query q from neighbors[i] = B(q[i])
// — Plan.Positions() — keeping the members with sub = 0: B(q) holds every
// one of them (Definition 4), so a symbol outside the table matches
// nowhere. The word scans take |Q| ≤ 64 (verify.WordScan).
func (st *symTable) addMasks(costs wed.Costs, q []traj.Symbol, neighbors [][]traj.Symbol) {
	for i, nb := range neighbors {
		for _, b := range nb {
			if costs.Sub(b, q[i]) == 0 {
				st.add(b).mask |= 1 << i
			}
		}
	}
}

// Fill writes the match masks of path into dst (verify.Masks).
func (st *symTable) Fill(dst []uint64, path []traj.Symbol) {
	for i, b := range path {
		dst[i] = 0
		if st.has(b) {
			dst[i] = st.slot(b).mask
		}
	}
}

// symTables pools the threshold search's mask tables.
var symTables = sync.Pool{New: func() any { return new(symTable) }}
