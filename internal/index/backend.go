package index

import (
	"sync"
	"sync/atomic"

	"subtraj/internal/traj"
)

// PostingSource is the read surface candidate generation needs from one
// part of an index view — a base, or the delta beside it — so the filter
// layer is agnostic to how the postings are stored.
type PostingSource interface {
	// Postings returns the postings list L_q (shared; do not modify). A
	// compact source decodes it into one buffer of its own, so the slice
	// is valid only until the source's next call.
	Postings(q traj.Symbol) []Posting
	// PostingsInWindow returns the postings of q whose trajectory departs
	// in [lo, hi] (requires the temporal order to have been built); valid,
	// like Postings, until the source's next call.
	PostingsInWindow(q traj.Symbol, lo, hi float64) []Posting
	// IntervalOverlaps reports whether trajectory id's [departure,
	// arrival] interval intersects [lo, hi].
	IntervalOverlaps(id int32, lo, hi float64) bool
}

// Backend is the engine-facing index contract: everything core.Engine
// needs to plan (global frequencies), look up (posting sources), and
// account for (sizes). It is read-only — a backend never changes after
// construction, so any number of queries may share one with no lock. Two
// bases implement it (Inverted and Compact), plus Epoch, the read view
// of a base and the delta of trajectories appended since
// (DeltaMap.Append is the only way a trajectory joins an already-built
// index). The query path is backend-agnostic, and none of this is a
// parallelism axis: a query reads every source into one candidate array
// and fans out over that (DESIGN.md §1.3). The determinism contract
// (bit-equal sorted matches at every parallelism) holds across all of
// them because global statistics — and therefore the MinCand plan — are
// backend-independent.
type Backend interface {
	// Freq returns the global n(q) (the MinCand objective input).
	Freq(q traj.Symbol) int
	// NumShards returns how many posting sources this view reads: 1 for
	// a base, 2 for an Epoch (base, then delta). Sources hold disjoint
	// trajectory-ID ranges in ascending order. The name is a leftover of
	// the sharded index that benchmark/trace.go still calls; the next
	// benchmark PR renames it together with Source.
	NumShards() int
	// Source returns the i-th posting source. Sources may be pooled
	// per-query cursors: callers must pass each one to ReleaseSource
	// when done with its postings.
	Source(i int) PostingSource
	// BuildTemporal materialises the departure-sorted postings order
	// PostingsInWindow binary-searches (§4.3). Idempotent and safe for
	// concurrent callers: the first call builds, callers racing it wait,
	// later calls cost one atomic load.
	BuildTemporal()
	// TemporalReady reports whether that order is built.
	TemporalReady() bool
	// IntervalOverlaps reports whether id's interval intersects [lo, hi].
	IntervalOverlaps(id int32, lo, hi float64) bool
	NumPostings() int
	NumTrajectories() int
	// IndexBytes returns the backend's memory footprint: exact arena
	// bytes for compact backends, a heap estimate for pointer backends.
	IndexBytes() int64
	// Kind names the backend family ("pointer" or "compact") for stats,
	// metrics, and bench output.
	Kind() string
	// Rebuild indexes ds into a fresh base of this backend's family —
	// what folding a delta into its base builds.
	Rebuild(ds *traj.Dataset) Backend
}

var (
	_ Backend = (*Inverted)(nil)
	_ Backend = (*Compact)(nil)
	_ Backend = (*Epoch)(nil)

	_ PostingSource = (*Inverted)(nil)
)

// ReleaseSource returns a pooled posting source to its pool; sources
// without pooling (a pointer base) pass through untouched. Call exactly
// once per Source the moment its last returned slice has been consumed.
func ReleaseSource(src PostingSource) {
	if r, ok := src.(interface{ Release() }); ok {
		r.Release()
	}
}

// temporalOrder guards the one structure a pointer base still grows
// after construction: its departure-sorted postings, built on first use
// because building them eagerly would add more than half again to server
// start-up (DESIGN.md §1.11). Postings never change under it, so once
// built it stays valid for the base's lifetime.
type temporalOrder struct {
	once sync.Once
	done atomic.Bool
}

func (o *temporalOrder) build(f func()) {
	o.once.Do(func() {
		f()
		o.done.Store(true)
	})
}

// TemporalReady reports whether the departure-sorted order is built.
func (o *temporalOrder) TemporalReady() bool { return o.done.Load() }

const (
	postingBytes = 8 // unsafe.Sizeof(Posting{})
	// mapEntryBytes approximates the per-entry overhead of a Go map
	// (bucket share, key, slice header) for footprint estimates.
	mapEntryBytes = 48
)

// listMapBytes estimates the heap held by one symbol→postings map.
func listMapBytes(m map[traj.Symbol][]Posting) int64 {
	var b int64
	for _, list := range m {
		b += int64(cap(list))*postingBytes + mapEntryBytes
	}
	return b
}
