package verify

import (
	"math/bits"
	"unsafe"

	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// costRows is the cost model compiled against one query, so that the DP
// kernel (wed.StepDPRows) reads costs by slice index instead of calling
// wed.Costs per cell. It holds floats only — no reference to the query or
// the cost model survives in it.
//
// Every row is stored as a pair, the values over Q followed by the same
// values over reversed Q, 2|Q| cells in all: the forward trie of position
// iq runs over Q[iq+1:] and the backward trie over reversed(Q[:iq]), and
// both are suffixes of one half of the pair (see trie), so one compiled
// row serves both directions and every τ-subsequence position.
type costRows struct {
	// ins is the pair of ins(Q[j]), filled once per query.
	ins []float64
	// slots is an open-addressing hash table (linear probing, power-of-two
	// size, at most half full) from data symbol to its substitution row,
	// compiled on the first StepDP that meets the symbol. A lookup happens
	// once per computed column, where a narrow band leaves only a handful
	// of cells to amortise it over — hence not a Go map. Route reuse keeps
	// the table to the few hundred symbols near the query; a slot belongs
	// to the current query iff its gen matches, so starting a query
	// clears nothing.
	slots []rowSlot
	shift uint // 32 − log2(len(slots))
	n     int  // slots of the current gen
	gen   uint32
	mem   arena
}

// symRow is one data symbol b compiled against the query: sub is the pair
// of sub(b, Q[j]), del is del(b).
type symRow struct {
	sub []float64
	del float64
}

type rowSlot struct {
	sym traj.Symbol
	gen uint32
	row symRow
}

const minRowSlots = 256

// reset compiles the per-query part (the insertion row) and forgets the
// previous query's symbol rows, keeping their storage.
func (r *costRows) reset(costs wed.Costs, q []traj.Symbol) {
	r.mem.reset()
	r.n = 0
	if r.gen++; r.gen == 0 || r.slots == nil {
		// First use, or the stamp wrapped and could match a stale slot.
		r.resize(max(len(r.slots), minRowSlots))
		r.gen = 1
	}
	r.ins = r.ins[:0]
	for _, qs := range q {
		r.ins = append(r.ins, costs.Ins(qs))
	}
	r.ins = appendReversed(r.ins)
}

// resize replaces the table with an empty one of n slots.
func (r *costRows) resize(n int) {
	r.slots = make([]rowSlot, n)
	r.shift = uint(32 - bits.TrailingZeros(uint(n)))
}

// slot returns the slot holding b, or the free slot where b belongs.
func (r *costRows) slot(b traj.Symbol) *rowSlot {
	mask := uint32(len(r.slots) - 1)
	for i := uint32(b) * 0x9E3779B1 >> r.shift; ; i = (i + 1) & mask {
		if s := &r.slots[i]; s.gen != r.gen || s.sym == b {
			return s
		}
	}
}

// row returns symbol b's compiled row, compiling it on first use.
func (r *costRows) row(costs wed.Costs, q []traj.Symbol, b traj.Symbol) symRow {
	s := r.slot(b)
	if s.gen == r.gen {
		return s.row
	}
	if 2*(r.n+1) > len(r.slots) {
		old := r.slots
		r.resize(2 * len(old))
		for i := range old {
			if old[i].gen == r.gen {
				*r.slot(old[i].sym) = old[i]
			}
		}
		s = r.slot(b)
	}
	buf, _, _ := r.mem.reserve(2 * len(q))
	r.mem.commit(2 * len(q))
	fwd := buf[:0]
	for _, qs := range q {
		fwd = append(fwd, costs.Sub(b, qs))
	}
	*s = rowSlot{sym: b, gen: r.gen, row: symRow{sub: appendReversed(fwd), del: costs.Del(b)}}
	r.n++
	return s.row
}

// appendReversed appends the reverse of s to s.
func appendReversed(s []float64) []float64 {
	for i := len(s) - 1; i >= 0; i-- {
		s = append(s, s[i])
	}
	return s
}

// bytes returns the footprint of the rows and their table.
func (r *costRows) bytes() int64 {
	return r.mem.bytes() + int64(cap(r.ins))*8 + int64(len(r.slots))*int64(unsafe.Sizeof(rowSlot{}))
}
