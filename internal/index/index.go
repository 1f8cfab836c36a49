// Package index implements the inverted index of §4.1 as one frozen
// arena: a postings list per symbol (vertex or edge ID) recording every
// (trajectory ID, position) occurrence, the same postings in departure
// order for the temporal binary search of §4.3, and the trajectory
// intervals the candidate-level temporal prune reads. Build lays the arena
// out once and queries read it as is, from the heap or from a mapped file
// (compact.go); trajectories that arrive later are indexed by a DeltaMap
// beside it (delta.go, epoch.go).
package index

import (
	"math"
	"runtime"
	"sync"

	"subtraj/internal/traj"
)

// Posting records one occurrence of a symbol: trajectory ID and 0-based
// position j with P^(id)[j] = symbol.
type Posting struct {
	ID  int32
	Pos int32
}

// Build indexes every trajectory of the dataset into a fresh arena, one
// worker per CPU.
func Build(ds *traj.Dataset) *Compact { return build(ds, runtime.GOMAXPROCS(0)) }

// forRanges cuts [0, n) into p ≥ 1 contiguous ranges and runs
// f(r, lo, hi) for each on its own goroutine, returning when all have.
func forRanges(n, p int, f func(r, lo, hi int)) {
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(r, r*n/p, (r+1)*n/p)
		}()
	}
	wg.Wait()
}

// build is Build over p contiguous ranges — of trajectory IDs, of
// departure ranks, of rows — in passes that are each linear:
//
//  1. scan every trajectory for its interval, the symbol range and the
//     dataset hash, and order the IDs by (departure, ID): the ranks;
//  2. count each range's postings per symbol, once over ID ranges and
//     once over rank ranges, into dense per-range arrays, and prefix-sum
//     them into offsets in one postings slab: range r's part of a
//     symbol's list follows range r−1's;
//  3. fill the slab with the (ID, position) lists, size them, and encode
//     each straight to its place in the arena; fill the slab again with
//     the (rank, position) lists, size and encode those — each list by
//     the worker that owns its row. The arena is allocated once, between
//     the two: the rank-ordered lists are bounded by their widest lanes
//     until they are sized.
//
// Workers never share a write and every list comes out in the same order
// whatever p is, so the arena is byte-identical for every p. Besides the
// arena the build holds only the slab, so a cold start faults in little
// more than the index itself. Build's output is the canonical layout, so
// it skips the loader's validation sweep; the tests hold it to
// LoadCompact instead.
func build(ds *traj.Dataset, p int) *Compact {
	n := ds.Len()
	p = max(1, min(p, n))
	deps, arrs := make([]float64, n), make([]float64, n)
	type scan struct {
		lo, hi traj.Symbol
		hash   uint64
		maxLen int
	}
	scans := make([]scan, p)
	forRanges(n, p, func(r, lo, hi int) {
		s := scan{lo: math.MaxInt32, hi: math.MinInt32}
		for id := lo; id < hi; id++ {
			t := &ds.Trajs[id]
			for _, sym := range t.Path {
				s.lo, s.hi = min(s.lo, sym), max(s.hi, sym)
			}
			deps[id], arrs[id] = interval(t)
			s.hash += trajHash(id, t)
			s.maxLen = max(s.maxLen, len(t.Path))
		}
		scans[r] = s
	})
	var hash uint64
	symLo, symHi, maxLen := traj.Symbol(math.MaxInt32), traj.Symbol(math.MinInt32), 0
	for _, s := range scans {
		hash += s.hash
		symLo, symHi, maxLen = min(symLo, s.lo), max(symHi, s.hi), max(maxLen, s.maxLen)
	}
	lo, span := int(symLo), 0
	if symLo <= symHi {
		span = int(symHi) - lo + 1
	} else {
		lo = 0 // no postings
	}
	byRank := rankOrder(deps)

	// at[r*span+k] counts, then offsets, symbol lo+k's postings in ID
	// range r; at[(p+r)*span+k] the same for rank range r. The last rank
	// range needs no count: its offsets follow from the others'.
	at := make([]int, 2*p*span)
	forRanges(n, p, func(r, from, to int) {
		c, tc := at[r*span:(r+1)*span], at[(p+r)*span:(p+r+1)*span]
		for id := from; id < to; id++ {
			for _, sym := range ds.Trajs[id].Path {
				c[int(sym)-lo]++
			}
		}
		if r == p-1 {
			return
		}
		for _, rk := range byRank[from:to] {
			for _, sym := range ds.Trajs[rk.id].Path {
				tc[int(sym)-lo]++
			}
		}
	})
	dir := make([]uint32, span)
	var rows []row
	postings := 0
	for k := 0; k < span; k++ {
		start, byDep := postings, postings
		for r := 0; r < p; r++ {
			at[r*span+k], postings = postings, postings+at[r*span+k]
			at[(p+r)*span+k], byDep = byDep, byDep+at[(p+r)*span+k]
		}
		if postings > start {
			rows = append(rows, row{sym: traj.Symbol(lo + k), start: start, count: postings - start})
			dir[k] = uint32(len(rows))
		}
	}

	slab := make([]Posting, postings)
	fill := func(first int, keys []ranked) {
		forRanges(n, p, func(r, from, to int) {
			next := at[(first+r)*span : (first+r+1)*span]
			for key := from; key < to; key++ {
				id := key
				if keys != nil {
					id = int(keys[key].id)
				}
				for pos, sym := range ds.Trajs[id].Path {
					slab[next[int(sym)-lo]] = Posting{ID: int32(key), Pos: int32(pos)}
					next[int(sym)-lo]++
				}
			}
		})
	}
	rankOff := headerSize + 16*n
	dirOff := rankOff + 12*n
	rowOff := dirOff + 4*span
	fill(0, nil)
	byID := layLists(slab, rows, p, idBlock, rowOff+rowSize*len(rows))
	size := byID.end() + postings*(laneWidth(uint32(max(n, 1)-1))+laneWidth(uint32(max(maxLen, 1)-1)))
	for _, rw := range rows {
		size += 10 * ((rw.count + rankBlock - 1) / rankBlock)
	}
	data := make([]byte, size)
	byID.put(data, slab, rows, p)
	fill(p, byRank)
	byDep := layLists(slab, rows, p, rankBlock, byID.end())
	byDep.put(data, slab, rows, p)
	data = data[:byDep.end()]

	copy(data, arenaMagic)
	le.PutUint32(data[8:], arenaVersion)
	le.PutUint32(data[12:], uint32(span))
	le.PutUint64(data[16:], uint64(n))
	le.PutUint64(data[24:], uint64(len(rows)))
	le.PutUint64(data[32:], uint64(postings))
	le.PutUint32(data[40:], uint32(lo))
	le.PutUint64(data[48:], uint64(len(data)))
	le.PutUint64(data[56:], hash)
	for id := 0; id < n; id++ {
		le.PutUint64(data[headerSize+16*id:], math.Float64bits(deps[id]))
		le.PutUint64(data[headerSize+16*id+8:], math.Float64bits(arrs[id]))
	}
	for r, rk := range byRank {
		le.PutUint64(data[rankOff+12*r:], math.Float64bits(rk.dep))
		le.PutUint32(data[rankOff+12*r+8:], uint32(rk.id))
	}
	for k, v := range dir {
		le.PutUint32(data[dirOff+4*k:], v)
	}
	for i, rw := range rows {
		e := data[rowOff+rowSize*i:]
		le.PutUint32(e, uint32(rw.sym))
		le.PutUint32(e[4:], uint32(rw.count))
		le.PutUint64(e[8:], uint64(byID.at[i]))
		le.PutUint64(e[16:], uint64(byDep.at[i]))
	}
	le.PutUint32(data[crcAt:], arenaChecksum(data))
	return wrap(data)
}

// ranked is a trajectory's place in departure order.
type ranked struct {
	dep float64
	id  int32
}

// rankOrder returns the trajectories in (departure, ID) order: a stable
// least-significant-byte radix sort, of IDs that start ascending, on the
// departures' order-preserving bits. A byte every departure shares costs
// one counting pass and no scatter.
func rankOrder(deps []float64) []ranked {
	n := len(deps)
	a, b := make([]ranked, n), make([]ranked, n)
	for id, d := range deps {
		a[id] = ranked{d, int32(id)}
	}
	var count [256]int
	for shift := 0; n > 0 && shift < 64; shift += 8 {
		clear(count[:])
		for _, r := range a {
			count[orderBits(r.dep)>>shift&0xff]++
		}
		if count[orderBits(a[0].dep)>>shift&0xff] == n {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		for _, r := range a {
			d := orderBits(r.dep) >> shift & 0xff
			b[count[d]] = r
			count[d]++
		}
		a, b = b, a
	}
	return a
}

// orderBits maps a departure to bits whose unsigned order is its numeric
// order: −0 counts as +0, NaNs go to the ends (the loader rejects them).
func orderBits(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	u := math.Float64bits(f)
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

// row is one symbol's place in the slab while Build lays the arena out.
type row struct {
	sym          traj.Symbol
	start, count int
}

// lists places one order of the lists in the arena, in blocks of block
// postings: row i's list is data[at[i]:at[i+1]].
type lists struct {
	block int
	at    []int
}

func (l lists) end() int { return l.at[len(l.at)-1] }

// layLists sizes every row's slab list and places them one after another
// from off, the rows cut into p ranges with a worker each.
func layLists(slab []Posting, rows []row, p, block, off int) lists {
	l := lists{block: block, at: make([]int, len(rows)+1)}
	forRanges(len(rows), p, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			l.at[i+1] = listSize(slab[rows[i].start:][:rows[i].count], block)
		}
	})
	l.at[0] = off
	for i := range rows {
		l.at[i+1] += l.at[i]
	}
	return l
}

// put encodes every row's slab list at its place in data.
func (l lists) put(data []byte, slab []Posting, rows []row, p int) {
	forRanges(len(rows), p, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			putList(data[l.at[i]:l.at[i+1]], slab[rows[i].start:][:rows[i].count], l.block)
		}
	})
}

// blockWidths returns the widths of a block's two lanes: the fewest bytes
// its largest key delta and its largest position need.
func blockWidths(blk []Posting) (kw, pw int) {
	var deltas, poss uint32
	prev := blk[0].ID
	for _, q := range blk {
		deltas, poss = deltas|uint32(q.ID-prev), poss|uint32(q.Pos)
		prev = q.ID
	}
	return laneWidth(deltas), laneWidth(poss)
}

// listSize is the encoded size of a list in blocks of block postings.
func listSize(list []Posting, block int) int {
	size := 0
	for b := 0; b < len(list); b += block {
		blk := list[b:min(len(list), b+block)]
		kw, pw := blockWidths(blk)
		size += 8 + 2 + len(blk)*(kw+pw)
	}
	return size
}

// putList encodes a list, keys in the ID field and (key, position)
// ascending, into dst, which holds exactly its listSize bytes: the skip
// table, then a frame per block of block ≤ idBlock postings.
func putList(dst []byte, list []Posting, block int) {
	nb := (len(list) + block - 1) / block
	at := 8 * nb
	var deltas, poss [idBlock]uint32
	for b := 0; b < nb; b++ {
		blk := list[b*block : min(len(list), (b+1)*block)]
		kw, pw := blockWidths(blk)
		le.PutUint32(dst[8*b:], uint32(blk[0].ID))
		le.PutUint32(dst[8*b+4:], uint32(at-8*nb))
		dst[at], dst[at+1] = byte(kw), byte(pw)
		prev := blk[0].ID
		for i, q := range blk {
			deltas[i], poss[i], prev = uint32(q.ID-prev), uint32(q.Pos), q.ID
		}
		n := len(blk)
		putLane(dst[at+2:], deltas[:n], kw)
		putLane(dst[at+2+n*kw:], poss[:n], pw)
		at += 2 + n*(kw+pw)
	}
}

// laneWidth is the fewest bytes of 0, 1, 2 and 4 that hold every value
// whose bits v ORs together.
func laneWidth(v uint32) int {
	switch {
	case v == 0:
		return 0
	case v <= math.MaxUint8:
		return 1
	case v <= math.MaxUint16:
		return 2
	}
	return 4
}

// putLane stores vals as a lane w bytes wide.
func putLane(lane []byte, vals []uint32, w int) {
	switch w {
	case 1:
		for i, v := range vals {
			lane[i] = byte(v)
		}
	case 2:
		for i, v := range vals {
			le.PutUint16(lane[2*i:], uint16(v))
		}
	case 4:
		for i, v := range vals {
			le.PutUint32(lane[4*i:], v)
		}
	}
}

// interval returns t's [departure, arrival] span as the index stores
// it: zeros for a trajectory without timestamps.
func interval(t *traj.Trajectory) (lo, hi float64) {
	lo, hi, _ = t.Interval()
	return lo, hi
}

// trajHash fingerprints what the arena holds of trajectory id — its path
// and its interval — for the dataset hash, which sums it over every
// trajectory. A different symbol at any one position always changes it:
// every step is a bijection of the running value.
func trajHash(id int, t *traj.Trajectory) uint64 {
	lo, hi := interval(t)
	h := mix64(mix64(uint64(id))^math.Float64bits(lo)) ^ math.Float64bits(hi)
	p := t.Path
	for ; len(p) >= 2; p = p[2:] { // two symbols a step: the chain is the cost
		h = (h ^ uint64(uint32(p[0])) ^ uint64(uint32(p[1]))<<32) * 0x100000001b3 // the FNV-1a prime
	}
	if len(p) == 1 {
		h = (h ^ uint64(uint32(p[0]))) * 0x100000001b3
	}
	return mix64(h ^ uint64(len(t.Path)))
}

// mix64 is MurmurHash3's 64-bit finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}
