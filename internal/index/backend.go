package index

import "subtraj/internal/traj"

// PostingSource is the read surface candidate generation needs from one
// part of an index view — the arena, or the delta beside it. Reads append
// to the caller's buffer, so a source keeps no per-query state and any
// number of queries may read one at once.
type PostingSource interface {
	// AppendPostings appends L_q, in (ID, position) order, to dst.
	AppendPostings(dst []Posting, q traj.Symbol) []Posting
	// AppendPostingsInWindow appends the postings of q whose trajectory
	// departs in [lo, hi].
	AppendPostingsInWindow(dst []Posting, q traj.Symbol, lo, hi float64) []Posting
	// IntervalOverlaps reports whether trajectory id's [departure,
	// arrival] interval intersects [lo, hi].
	IntervalOverlaps(id int32, lo, hi float64) bool
}

// Backend is the engine-facing index contract: everything core.Engine
// needs to plan (global frequencies), look up (posting sources), and
// account for (size). It is read-only — a backend never changes after
// construction, so any number of queries may share one with no lock. The
// arena (Compact) implements it, and so does Epoch, the read view of an
// arena and the delta of trajectories appended since (DeltaMap.Append is
// the only way a trajectory joins an already-built index). A query reads
// every source into one candidate array and fans out over that (DESIGN.md
// §1.3); global statistics — and therefore the MinCand plan — do not
// depend on how much of the dataset the arena holds, so the determinism
// contract (bit-equal sorted matches at every parallelism) holds across
// views.
type Backend interface {
	// Freq returns the global n(q) (the MinCand objective input).
	Freq(q traj.Symbol) int
	// NumShards returns how many posting sources this view reads: 1 for
	// an arena, 2 for an Epoch (arena, then delta). Sources hold disjoint
	// trajectory-ID ranges in ascending order. The name is a leftover of
	// the sharded index that benchmark/trace.go still calls; it is renamed
	// when the benchmark is next edited.
	NumShards() int
	// Source returns the i-th posting source.
	Source(i int) PostingSource
	// IndexBytes returns the view's memory footprint.
	IndexBytes() int64
}

var (
	_ Backend       = (*Compact)(nil)
	_ Backend       = (*Epoch)(nil)
	_ PostingSource = (*Compact)(nil)
	_ PostingSource = (*DeltaView)(nil)
)

// ReleaseSource does nothing: a source is a part of the index itself and
// holds nothing to give back. It stays only because benchmark/trace.go
// calls it; it goes when the benchmark stops calling it.
func ReleaseSource(PostingSource) {}
