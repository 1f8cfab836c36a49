package index

import (
	"sync"

	"subtraj/internal/traj"
)

// Epoch is the merged read view of the one ingest design (DESIGN.md
// §1.11): a frozen base backend — Inverted or Compact — plus a
// small DeltaView covering the trajectories appended since the base was
// built. Both halves are immutable from the reader's side, which is what
// lets searches run against an Epoch with no lock at all: the writer
// takes a fresh view after every append and a server swaps it in behind
// an atomic pointer.
//
// Base IDs are [0, deltaBase), delta IDs [deltaBase, ∞). The delta
// carries global IDs, so its plain postings are served as bounded
// sub-slices with no copy and no rebase. A search reads the base, then
// the delta, into one candidate array — the delta's candidates are the
// tail of the ID range — and results are bit-equal to a flat index over
// the union: TestSnapshotEquivalence holds every published view to that
// standard against a freshly built oracle.
type Epoch struct {
	base      Backend
	delta     *DeltaView
	deltaBase int32
}

// NewEpoch merges a frozen base with a delta view whose first global ID
// is base.NumTrajectories(). Nothing is built here: the delta needs no
// temporal order (windows are answered by a bounded filtered scan), so
// publication leaves no lazy writes behind for readers to trip over.
func NewEpoch(base Backend, delta *DeltaView) *Epoch {
	return &Epoch{base: base, delta: delta, deltaBase: delta.Lo()}
}

// NumShards: the base's posting source, then the delta's.
func (e *Epoch) NumShards() int { return e.base.NumShards() + 1 }

// Source returns the base's cursor, or — for the last index — a pooled
// cursor over the delta.
//
//subtrajlint:pool-transfer
func (e *Epoch) Source(i int) PostingSource {
	if i < e.base.NumShards() {
		return e.base.Source(i)
	}
	s := epochDeltaSources.Get().(*epochDeltaSource)
	s.e = e
	return s
}

// Freq returns the global n(q): base count plus delta count.
func (e *Epoch) Freq(q traj.Symbol) int { return e.base.Freq(q) + e.delta.Freq(q) }

// BuildTemporal delegates to the base; the delta answers windows by
// filtered scan and needs nothing.
func (e *Epoch) BuildTemporal() { e.base.BuildTemporal() }

// TemporalReady reports whether the base's departure order is built.
func (e *Epoch) TemporalReady() bool { return e.base.TemporalReady() }

// IntervalOverlaps reports whether id's interval intersects [lo, hi].
func (e *Epoch) IntervalOverlaps(id int32, lo, hi float64) bool {
	if id < e.deltaBase {
		return e.base.IntervalOverlaps(id, lo, hi)
	}
	return e.delta.IntervalOverlaps(id, lo, hi)
}

// NumPostings returns the total posting count across base and delta.
func (e *Epoch) NumPostings() int { return e.base.NumPostings() + e.delta.NumPostings() }

// NumTrajectories returns the combined trajectory count.
func (e *Epoch) NumTrajectories() int { return int(e.deltaBase) + e.delta.Len() }

// IndexBytes: base footprint plus the (estimated) delta heap.
func (e *Epoch) IndexBytes() int64 { return e.base.IndexBytes() + e.delta.IndexBytes() }

// Kind names the backend family of the base — the delta is an
// implementation detail of ingestion, not a different index family.
func (e *Epoch) Kind() string { return e.base.Kind() }

// Rebuild folds: it indexes ds into a fresh base of the base's family.
func (e *Epoch) Rebuild(ds *traj.Dataset) Backend { return e.base.Rebuild(ds) }

// epochDeltaSource is the pooled cursor over the delta. Plain
// postings are bounded sub-slices of the delta's global-ID lists (no
// copy); window lookups filter into pooled scratch. Interval checks
// take global IDs and dispatch through the Epoch.
type epochDeltaSource struct {
	e       *Epoch
	scratch []Posting
}

var epochDeltaSources = sync.Pool{New: func() any { return new(epochDeltaSource) }}

func (s *epochDeltaSource) Release() {
	s.e = nil
	if cap(s.scratch) > maxRetainedPostings {
		s.scratch = nil
	}
	epochDeltaSources.Put(s)
}

// Postings returns the delta's L_q under global IDs. Shared; do not
// modify.
func (s *epochDeltaSource) Postings(q traj.Symbol) []Posting {
	return s.e.delta.postings(q)
}

// PostingsInWindow returns the delta's postings of q departing in
// [lo, hi]. Valid until the next call on this source; do not modify.
func (s *epochDeltaSource) PostingsInWindow(q traj.Symbol, lo, hi float64) []Posting {
	s.scratch = s.e.delta.appendWindow(q, lo, hi, s.scratch[:0])
	return s.scratch
}

// IntervalOverlaps reports whether (global) trajectory id's interval
// intersects [lo, hi].
func (s *epochDeltaSource) IntervalOverlaps(id int32, lo, hi float64) bool {
	return s.e.IntervalOverlaps(id, lo, hi)
}

var _ PostingSource = (*epochDeltaSource)(nil)
