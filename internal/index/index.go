// Package index implements the inverted index of §4.1: a postings list per
// symbol (vertex or edge ID) recording every (trajectory ID, position)
// occurrence, plus the optional temporal sort orders of §4.3 that let the
// engine skip postings outside a query time interval by binary search.
package index

import (
	"sort"

	"subtraj/internal/traj"
)

// Posting records one occurrence of a symbol: trajectory ID and 0-based
// position j with P^(id)[j] = symbol.
type Posting struct {
	ID  int32
	Pos int32
}

// Inverted is the flat inverted index over a dataset: one postings list
// per symbol in ascending (ID, position) order. Immutable once built, and
// as such a one-shard Backend (its own PostingSource); trajectories that
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

// Build indexes every trajectory of the dataset.
func Build(ds *traj.Dataset) *Inverted {
	inv := &Inverted{
		lists:      make(map[traj.Symbol][]Posting),
		departures: make([]float64, ds.Len()),
		arrivals:   make([]float64, ds.Len()),
	}
	for id := range ds.Trajs {
		t := &ds.Trajs[id]
		for pos, sym := range t.Path {
			inv.lists[sym] = append(inv.lists[sym], Posting{ID: int32(id), Pos: int32(pos)})
		}
		inv.numPostings += len(t.Path)
		inv.departures[id], inv.arrivals[id] = interval(t)
	}
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

// sortedByDeparture copies every list of lists into departure order.
func sortedByDeparture(lists map[traj.Symbol][]Posting, departures []float64) map[traj.Symbol][]Posting {
	out := make(map[traj.Symbol][]Posting, len(lists))
	for sym, list := range lists {
		cp := make([]Posting, len(list))
		copy(cp, list)
		sortByDeparture(cp, departures)
		out[sym] = cp
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

// NumShards: a flat index is one shard.
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
