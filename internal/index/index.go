// Package index implements the inverted index of §4.1: a postings list per
// symbol (vertex or edge ID) recording every (trajectory ID, position)
// occurrence, plus the optional temporal sort orders of §4.3 that let the
// engine skip postings outside a query time interval by binary search.
package index

import (
	"runtime"
	"slices"
	"sort"
	"sync"

	"subtraj/internal/traj"
)

// Posting records one occurrence of a symbol: trajectory ID and 0-based
// position j with P^(id)[j] = symbol.
type Posting struct {
	ID  int32
	Pos int32
}

// Inverted is the flat inverted index over a dataset: one postings list
// per symbol in ascending (ID, position) order. Immutable once built, it
// is the pointer base (its own single PostingSource); trajectories that
// arrive later are indexed by a DeltaMap on top of it.
type Inverted struct {
	lists map[traj.Symbol][]Posting
	// departures[id] caches the trajectory departure time for the
	// temporal pre-filter; zero when the trajectory has no timestamps.
	departures []float64
	arrivals   []float64
	// byDeparture, per symbol, holds the postings re-sorted by the
	// owning trajectory's departure time (built on demand by
	// BuildTemporal).
	byDeparture map[traj.Symbol][]Posting
	numPostings int
	temporalOrder
}

// Build indexes every trajectory of the dataset, one worker per CPU.
func Build(ds *traj.Dataset) *Inverted { return build(ds, runtime.GOMAXPROCS(0)) }

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

// build is Build over p contiguous trajectory-ID ranges, in two passes
// with a prefix sum between them. The first counts every range's
// occurrences of every symbol; from the counts each (symbol, range) gets
// its own span of one postings slab, range r's right after range r−1's;
// the second pass writes each range's postings into its spans. Workers
// never share a write, every list comes out in ascending (ID, position)
// order whatever p is, and the slab is the only postings allocation: no
// per-list growth, no spare capacity, nothing to merge.
func build(ds *traj.Dataset, p int) *Inverted {
	n := ds.Len()
	p = max(1, min(p, n)) // a range per trajectory at most
	inv := &Inverted{departures: make([]float64, n), arrivals: make([]float64, n)}
	// A range numbers the symbols it meets, so the per-posting work of
	// both passes is one map read and one slice update.
	type rangeCounts struct {
		slot map[traj.Symbol]int32
		syms []traj.Symbol // by slot
		at   []int         // by slot: occurrences, then the next slab offset
	}
	parts := make([]rangeCounts, p)
	forRanges(n, p, func(r, lo, hi int) {
		pt := rangeCounts{slot: make(map[traj.Symbol]int32)}
		for id := lo; id < hi; id++ {
			t := &ds.Trajs[id]
			for _, sym := range t.Path {
				i, ok := pt.slot[sym]
				if !ok {
					i = int32(len(pt.syms))
					pt.slot[sym] = i
					pt.syms = append(pt.syms, sym)
					pt.at = append(pt.at, 0)
				}
				pt.at[i]++
			}
			inv.departures[id], inv.arrivals[id] = interval(t)
		}
		parts[r] = pt
	})

	next := make(map[traj.Symbol]int, len(parts[0].syms)) // counts, then offsets
	for _, pt := range parts {
		for i, sym := range pt.syms {
			next[sym] += pt.at[i]
			inv.numPostings += pt.at[i]
		}
	}
	slab := make([]Posting, inv.numPostings)
	inv.lists = make(map[traj.Symbol][]Posting, len(next))
	off := 0
	for sym, c := range next {
		inv.lists[sym] = slab[off : off+c : off+c]
		next[sym] = off
		off += c
	}
	for _, pt := range parts {
		for i, sym := range pt.syms {
			c := pt.at[i]
			pt.at[i] = next[sym]
			next[sym] += c
		}
	}

	forRanges(n, p, func(r, lo, hi int) {
		pt := &parts[r]
		for id := lo; id < hi; id++ {
			for pos, sym := range ds.Trajs[id].Path {
				i := pt.slot[sym]
				slab[pt.at[i]] = Posting{ID: int32(id), Pos: int32(pos)}
				pt.at[i]++
			}
		}
	})
	return inv
}

// interval returns t's [departure, arrival] span as the index stores
// it: zeros for a trajectory without timestamps.
func interval(t *traj.Trajectory) (lo, hi float64) {
	lo, hi, _ = t.Interval()
	return lo, hi
}

// Postings returns the postings list L_q. Shared; do not modify.
func (inv *Inverted) Postings(q traj.Symbol) []Posting { return inv.lists[q] }

// Freq returns n(q): the number of occurrences of q in the dataset
// (counted once per position, as required by the MinCand objective).
func (inv *Inverted) Freq(q traj.Symbol) int { return len(inv.lists[q]) }

// NumPostings returns the total number of postings (an index-size metric).
func (inv *Inverted) NumPostings() int { return inv.numPostings }

// BuildTemporal materialises, for every symbol, a postings order sorted by
// the owning trajectory's departure time, once. Subsequent
// PostingsInWindow calls answer temporal lookups by binary search (§4.3).
func (inv *Inverted) BuildTemporal() {
	inv.build(func() { inv.byDeparture = sortedByDeparture(inv.lists, inv.departures) })
}

// sortedByDeparture copies every list of lists into departure order,
// the symbols spread over one worker per CPU.
func sortedByDeparture(lists map[traj.Symbol][]Posting, departures []float64) map[traj.Symbol][]Posting {
	syms := make([]traj.Symbol, 0, len(lists))
	for sym := range lists {
		syms = append(syms, sym)
	}
	sorted := make([][]Posting, len(syms))
	forRanges(len(syms), runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sorted[i] = slices.Clone(lists[syms[i]])
			sortByDeparture(sorted[i], departures)
		}
	})
	out := make(map[traj.Symbol][]Posting, len(lists))
	for i, sym := range syms {
		out[sym] = sorted[i]
	}
	return out
}

// sortByDeparture orders postings by the owning trajectory's departure
// time (stable, so insertion order breaks ties deterministically).
func sortByDeparture(ps []Posting, departures []float64) {
	sort.SliceStable(ps, func(i, j int) bool {
		return departures[ps[i].ID] < departures[ps[j].ID]
	})
}

// postingsInWindow binary-searches a departure-sorted postings list for
// the [lo, hi] departure window.
func postingsInWindow(list []Posting, departures []float64, lo, hi float64) []Posting {
	a := sort.Search(len(list), func(i int) bool { return departures[list[i].ID] >= lo })
	b := sort.Search(len(list), func(i int) bool { return departures[list[i].ID] > hi })
	if a >= b {
		return nil
	}
	return list[a:b]
}

// PostingsInWindow returns the postings of q whose trajectory departure
// time lies in [lo, hi], using the temporal order (BuildTemporal must have
// been called). The returned slice is a sub-slice of the index; do not
// modify.
//
// Note the window is over departure times: a trajectory that departs
// before lo but is still driving inside the window is *not* returned, so
// callers use this only for constraints of the form [T_1, T_n] ⊆ I; the
// more permissive overlap constraint uses Postings plus IntervalOverlaps.
func (inv *Inverted) PostingsInWindow(q traj.Symbol, lo, hi float64) []Posting {
	return postingsInWindow(inv.byDeparture[q], inv.departures, lo, hi)
}

// IntervalOverlaps reports whether trajectory id's [departure, arrival]
// interval intersects [lo, hi] — the candidate-level temporal prune of
// §4.3.
func (inv *Inverted) IntervalOverlaps(id int32, lo, hi float64) bool {
	return inv.departures[id] <= hi && inv.arrivals[id] >= lo
}

// NumShards: a base is one posting source.
func (inv *Inverted) NumShards() int { return 1 }

// Source returns the index itself: its reads are zero-copy views, so
// there is nothing to pool.
func (inv *Inverted) Source(int) PostingSource { return inv }

// NumTrajectories returns the number of indexed trajectories.
func (inv *Inverted) NumTrajectories() int { return len(inv.departures) }

// IndexBytes estimates the heap footprint of the flat pointer index.
func (inv *Inverted) IndexBytes() int64 {
	b := listMapBytes(inv.lists)
	if inv.TemporalReady() {
		b += listMapBytes(inv.byDeparture)
	}
	return b + int64(cap(inv.departures)+cap(inv.arrivals))*8
}

// Kind names the backend family for stats and bench output.
func (inv *Inverted) Kind() string { return "pointer" }

// Rebuild indexes ds into a fresh flat index.
func (inv *Inverted) Rebuild(ds *traj.Dataset) Backend { return Build(ds) }
