package index_test

import (
	"cmp"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"subtraj/internal/index"
	"subtraj/internal/traj"
)

// buildDelta indexes ds.Trajs[start:] into a fresh DeltaMap and returns
// its view.
func buildDelta(ds *traj.Dataset, start int) *index.DeltaView {
	m := index.NewDeltaMap(start)
	for id := start; id < ds.Len(); id++ {
		m.Append(int32(id), ds.Get(int32(id)))
	}
	return m.View()
}

// mapArena saves c and maps the file back.
func mapArena(t *testing.T, c *index.Compact) *index.Compact {
	t.Helper()
	path := filepath.Join(t.TempDir(), "arena.sbtj")
	if err := os.WriteFile(path, c.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := index.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestEpochEquivalentToFlat is the index-layer contract of the epoch
// merge view: an arena over a dataset prefix — built in memory, or saved
// and mapped back — plus a delta over the remainder answers every read —
// frequencies, interval prunes, per-source postings, departure windows —
// exactly like the brute-force lists over the whole dataset.
func TestEpochEquivalentToFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const alpha, numTraj, foldAt = 40, 300, 230
	ds := randTemporalDataset(rng, alpha, numTraj, 30)
	built := index.Build(ds.Slice(foldAt))
	for _, bc := range []struct {
		name string
		base func(t *testing.T) *index.Compact
	}{
		{"compact", func(*testing.T) *index.Compact { return built }},
		{"mapped", func(t *testing.T) *index.Compact { return mapArena(t, built) }},
	} {
		t.Run(bc.name, func(t *testing.T) { checkEpochEqualsFlat(t, bc.base(t), ds, alpha, foldAt) })
	}
}

func checkEpochEqualsFlat(t *testing.T, base *index.Compact, ds *traj.Dataset, alpha, foldAt int) {
	e := index.NewEpoch(base, buildDelta(ds, foldAt))
	if e.NumShards() != 2 || e.Source(0) != index.PostingSource(base) {
		t.Fatalf("an epoch reads %d sources, the first %v; want the arena, then the delta", e.NumShards(), e.Source(0))
	}
	lists := referenceLists(ds)
	delta := e.Source(1)
	for id := int32(foldAt); id < int32(ds.Len()); id++ {
		lo, hi, _ := ds.Get(id).Interval()
		if delta.IntervalOverlaps(id, 10, 40) != (lo <= 40 && hi >= 10) {
			t.Fatalf("delta IntervalOverlaps(%d, 10, 40) disagrees with the dataset", id)
		}
	}
	for sym := traj.Symbol(0); int(sym) < alpha; sym++ {
		if got := e.Freq(sym); got != len(lists[sym]) {
			t.Fatalf("Freq(%d) = %d, want %d", sym, got, len(lists[sym]))
		}
		// The sources' postings, read in order into one buffer, are the
		// flat list: the arena owns IDs < foldAt, the delta the tail.
		var got []index.Posting
		for s := 0; s < e.NumShards(); s++ {
			got = e.Source(s).AppendPostings(got, sym)
		}
		if !slices.Equal(got, lists[sym]) {
			t.Fatalf("postings of %d across sources = %v, want %v", sym, got, lists[sym])
		}
		// Windowed reads: the arena reads its departure order, the delta
		// scan-filters in ID order, each over its own part of the list.
		for s := 0; s < e.NumShards(); s++ {
			var want []index.Posting
			for _, p := range referenceWindow(ds, lists[sym], 10, 40) {
				if (int(p.ID) >= foldAt) == (s == 1) {
					want = append(want, p)
				}
			}
			if s == 1 {
				slices.SortFunc(want, func(a, b index.Posting) int { return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Pos, b.Pos)) })
			}
			if got := e.Source(s).AppendPostingsInWindow(nil, sym, 10, 40); !slices.Equal(got, want) {
				t.Fatalf("source %d window of %d = %v, want %v", s, sym, got, want)
			}
		}
	}
}

// TestEpochEmptyDelta pins the degenerate fold boundary: a delta built
// at the dataset's end covers nothing and the view collapses to the
// arena (the engine skips the Epoch wrapper in this case, but the
// wrapper must still be correct — compaction races publish through it).
func TestEpochEmptyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := randTemporalDataset(rng, 20, 50, 15)
	base := index.Build(ds)
	e := index.NewEpoch(base, buildDelta(ds, ds.Len()))
	if e.IndexBytes() != base.IndexBytes() {
		t.Fatalf("empty-delta epoch holds %d bytes, the arena %d", e.IndexBytes(), base.IndexBytes())
	}
	for sym := traj.Symbol(0); sym < 20; sym++ {
		if e.Freq(sym) != base.Freq(sym) {
			t.Fatalf("Freq(%d) = %d, the arena's %d", sym, e.Freq(sym), base.Freq(sym))
		}
	}
	if ps := e.Source(1).AppendPostings(nil, 5); len(ps) != 0 {
		t.Fatalf("empty delta returned %d postings", len(ps))
	}
}
