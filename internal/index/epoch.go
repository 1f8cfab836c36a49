package index

import "subtraj/internal/traj"

// Epoch is the merged read view of the one ingest design (DESIGN.md
// §1.11): a frozen arena plus a small DeltaView covering the trajectories
// appended since the arena was built. Both halves are immutable from the
// reader's side, which is what lets searches run against an Epoch with no
// lock at all: the writer takes a fresh view after every append and a
// server swaps it in behind an atomic pointer.
//
// Arena IDs are [0, base.NumTrajectories()), delta IDs the rest. The delta
// carries global IDs, so a search reads the arena, then the delta, into
// one candidate array — the delta's candidates are the tail of the ID
// range — and results are bit-equal to one arena over the union:
// TestSnapshotEquivalence holds every published view to that standard
// against a freshly built oracle.
type Epoch struct {
	base  *Compact
	delta *DeltaView
}

// NewEpoch merges an arena with a delta view whose first global ID is
// base.NumTrajectories(). Nothing is built here: the delta needs no
// departure order (windows are answered by a bounded filtered scan).
func NewEpoch(base *Compact, delta *DeltaView) *Epoch {
	return &Epoch{base: base, delta: delta}
}

// NumShards: the arena, then the delta.
func (e *Epoch) NumShards() int { return 2 }

// Source returns the arena for 0 and the delta for 1.
func (e *Epoch) Source(i int) PostingSource {
	if i == 0 {
		return e.base
	}
	return e.delta
}

// Freq returns the global n(q): arena count plus delta count.
func (e *Epoch) Freq(q traj.Symbol) int { return e.base.Freq(q) + e.delta.Freq(q) }

// IndexBytes: the arena plus the (estimated) delta heap.
func (e *Epoch) IndexBytes() int64 { return e.base.IndexBytes() + e.delta.IndexBytes() }
