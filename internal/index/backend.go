package index

import (
	"sync"
	"sync/atomic"

	"subtraj/internal/traj"
)

// Backend is the engine-facing index contract: everything core.Engine
// needs to plan (global frequencies), fan out (per-shard posting
// sources), and account for (sizes). It is read-only — a backend never
// changes after construction, so any number of queries may share one
// with no lock. Three bases implement it (Sharded, and Inverted and
// Compact as one-shard bases), plus Epoch, the read view of a base and
// the delta of trajectories appended since (DeltaMap.Append is the only
// way a trajectory joins an already-built index). The query path is
// backend-agnostic; the determinism contract (bit-equal sorted matches
// at every parallelism) holds across all of them because global
// statistics — and therefore the MinCand plan — are backend-independent.
type Backend interface {
	// Freq returns the global n(q) (the MinCand objective input).
	Freq(q traj.Symbol) int
	// NumShards returns how many posting sources a query can fan out to.
	NumShards() int
	// Source returns the i-th shard's posting source. Sources may be
	// pooled per-query cursors: callers must pass each one to
	// ReleaseSource when done with its postings.
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
	// Rebuild indexes ds into a fresh base of this backend's family and
	// shard count — what folding a delta into its base builds.
	Rebuild(ds *traj.Dataset) Backend
}

var (
	_ Backend = (*Sharded)(nil)
	_ Backend = (*Inverted)(nil)
	_ Backend = (*Compact)(nil)
	_ Backend = (*Epoch)(nil)
)

// ReleaseSource returns a pooled posting source to its pool; sources
// without pooling (plain shards) pass through untouched. Call exactly
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
