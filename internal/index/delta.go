package index

import (
	"sort"
	"sync"

	"subtraj/internal/traj"
)

// DeltaMap is the writer-side incremental delta index of the epoch
// snapshot design (DESIGN.md §1.11): it indexes the trajectories
// appended since the last fold, under GLOBAL IDs, and hands out O(1)
// immutable DeltaView snapshots for publication. One writer (the
// SafeEngine ingest mutex) appends; any number of readers traverse
// previously taken views concurrently — no lock, no per-publish
// rebuild, no per-publish temporal sort.
//
// Safety rests on two append-only disciplines:
//
//   - Postings lists live in a sync.Map keyed by symbol. The writer
//     appends to a list and Stores the new header; the Store→Load pair
//     is the happens-before edge that makes the backing-array elements
//     visible to readers. A reader may Load a header NEWER than its
//     view (extra postings with higher IDs) — every view read is
//     bounded by the view's ID range, so those are sliced away. Lists
//     are ID-sorted by construction (IDs only grow), so the bound is a
//     binary search, not a scan.
//
//   - deps/arrs are writer-owned append-only slices; a view freezes
//     their headers at publish time (the same prefix-view discipline as
//     traj.Dataset.Slice). The writer only ever writes indexes beyond
//     every published header's length.
type DeltaMap struct {
	lists sync.Map // traj.Symbol -> []Posting, ID-sorted, global IDs
	// origin is the global trajectory ID of deps[0]/arrs[0] — the fold
	// boundary this map was started at. Immutable after construction.
	origin int32
	deps   []float64
	arrs   []float64
}

// NewDeltaMap starts an empty delta whose first trajectory will be
// global ID origin (the folded length of the base it sits on).
func NewDeltaMap(origin int) *DeltaMap {
	return &DeltaMap{origin: int32(origin)}
}

// Append indexes one trajectory under its global ID. IDs must arrive in
// increasing order starting at origin (the ingest path appends them in
// dataset order). Writer-only; callers serialize externally.
func (d *DeltaMap) Append(id int32, t *traj.Trajectory) {
	for pos, sym := range t.Path {
		var list []Posting
		if v, ok := d.lists.Load(sym); ok {
			list = v.([]Posting)
		}
		d.lists.Store(sym, append(list, Posting{ID: id, Pos: int32(pos)}))
	}
	lo, hi := interval(t)
	d.deps = append(d.deps, lo)
	d.arrs = append(d.arrs, hi)
}

// View freezes the map's current extent into an immutable snapshot
// covering global IDs [origin, origin+appended). O(1): two slice-header
// copies; the postings themselves are shared and bounded at read time.
func (d *DeltaMap) View() *DeltaView {
	n := len(d.deps)
	return &DeltaView{
		m:    d,
		lo:   d.origin,
		hi:   d.origin + int32(n),
		deps: d.deps[:n:n],
		arrs: d.arrs[:n:n],
	}
}

// DeltaView is one published snapshot of a DeltaMap: the postings of
// global trajectory IDs [lo, hi). Immutable; safe for concurrent use by
// any number of readers while the writer keeps appending to the
// underlying map.
type DeltaView struct {
	m      *DeltaMap
	lo, hi int32
	deps   []float64
	arrs   []float64
}

// Len returns how many trajectories the view covers.
func (v *DeltaView) Len() int { return int(v.hi - v.lo) }

// Lo returns the view's first global trajectory ID (the fold boundary).
func (v *DeltaView) Lo() int32 { return v.lo }

// postings returns q's postings with ID < hi — the list prefix that
// belongs to this view. The current list header may include postings
// appended after the view was taken; they carry higher IDs and the
// binary-searched cut removes them. Shared; do not modify.
func (v *DeltaView) postings(q traj.Symbol) []Posting {
	l, ok := v.m.lists.Load(q)
	if !ok {
		return nil
	}
	list := l.([]Posting)
	i := sort.Search(len(list), func(i int) bool { return list[i].ID >= v.hi })
	return list[:i]
}

// Freq returns n(q) within the view (once per position, as MinCand
// requires), via one map load and one binary search.
func (v *DeltaView) Freq(q traj.Symbol) int { return len(v.postings(q)) }

// IntervalOverlaps reports whether id's interval intersects [lo, hi] —
// the same candidate-level prune as Inverted.IntervalOverlaps.
func (v *DeltaView) IntervalOverlaps(id int32, lo, hi float64) bool {
	return v.deps[id-v.lo] <= hi && v.arrs[id-v.lo] >= lo
}

// appendWindow appends to dst the view's postings of q whose trajectory
// DEPARTS in [lo, hi] — Inverted.PostingsInWindow semantics answered by
// a filtered scan instead of a pre-sorted order. The delta is bounded
// by the compaction threshold, so the scan stays small; skipping the
// per-publish departure sort is what keeps Append O(|t|).
func (v *DeltaView) appendWindow(q traj.Symbol, lo, hi float64, dst []Posting) []Posting {
	for _, p := range v.postings(q) {
		if dep := v.deps[p.ID-v.lo]; dep >= lo && dep <= hi {
			dst = append(dst, p)
		}
	}
	return dst
}

// NumPostings counts the view's postings (an index-size metric; stats
// path only — it walks every symbol).
func (v *DeltaView) NumPostings() int {
	n := 0
	v.m.lists.Range(func(_, l any) bool {
		list := l.([]Posting)
		n += sort.Search(len(list), func(i int) bool { return list[i].ID >= v.hi })
		return true
	})
	return n
}

// IndexBytes estimates the view's heap footprint (postings plus the
// interval columns), mirroring Inverted.IndexBytes' accounting.
func (v *DeltaView) IndexBytes() int64 {
	return int64(v.NumPostings())*8 + int64(v.Len())*16
}
