package index_test

import (
	"math/rand"
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

// TestEpochEquivalentToFlat is the index-layer contract of the epoch
// merge view: a frozen base of any family over a dataset prefix plus a
// delta over the remainder must answer every read — counts,
// frequencies, interval prunes, per-source postings, temporal windows —
// exactly like one flat index over the whole dataset.
func TestEpochEquivalentToFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const alpha, numTraj, foldAt = 40, 300, 230
	ds := randTemporalDataset(rng, alpha, numTraj, 30)
	want := index.Build(ds)
	want.BuildTemporal()
	prefix := ds.Slice(foldAt)
	for _, bc := range []struct {
		name string
		base index.Backend
	}{
		{"inverted", index.Build(prefix)},
		{"compact", index.FreezeDataset(prefix)},
	} {
		t.Run(bc.name, func(t *testing.T) { checkEpochEqualsFlat(t, bc.base, ds, want, alpha, foldAt) })
	}
}

func checkEpochEqualsFlat(t *testing.T, base index.Backend, ds *traj.Dataset, want *index.Inverted, alpha, foldAt int) {
	e := index.NewEpoch(base, buildDelta(ds, foldAt))
	e.BuildTemporal()
	if !e.TemporalReady() {
		t.Fatal("TemporalReady = false after BuildTemporal")
	}

	if e.NumTrajectories() != ds.Len() {
		t.Fatalf("epoch covers %d trajectories, want %d", e.NumTrajectories(), ds.Len())
	}
	if e.NumShards() != base.NumShards()+1 {
		t.Fatalf("NumShards = %d, want base+1 = %d", e.NumShards(), base.NumShards()+1)
	}
	if e.Kind() != base.Kind() {
		t.Fatalf("Kind = %q, want the base's %q", e.Kind(), base.Kind())
	}
	if e.NumPostings() != want.NumPostings() {
		t.Fatalf("epoch has %d postings, want %d", e.NumPostings(), want.NumPostings())
	}
	for id := int32(0); id < int32(ds.Len()); id++ {
		if e.IntervalOverlaps(id, 10, 40) != want.IntervalOverlaps(id, 10, 40) {
			t.Fatalf("IntervalOverlaps(%d, 10, 40) disagrees with the flat index", id)
		}
	}
	for sym := traj.Symbol(0); int(sym) < alpha; sym++ {
		if got := e.Freq(sym); got != want.Freq(sym) {
			t.Fatalf("Freq(%d) = %d, want %d", sym, got, want.Freq(sym))
		}
		// The sources' postings must partition the flat list: the base
		// owns IDs < foldAt, the delta — the last source — owns exactly
		// the tail, and nothing is doubled or dropped.
		wantSet := map[index.Posting]bool{}
		for _, p := range want.Postings(sym) {
			wantSet[p] = true
		}
		gotN := 0
		for s := 0; s < e.NumShards(); s++ {
			src := e.Source(s)
			for _, p := range collect(src.Postings(sym)) {
				if !wantSet[p] {
					t.Fatalf("source %d posting %+v of sym %d not in the flat index", s, p, sym)
				}
				if delta := s == e.NumShards()-1; delta != (int(p.ID) >= foldAt) {
					t.Fatalf("posting %+v of sym %d in source %d is on the wrong side of the fold", p, sym, s)
				}
				gotN++
			}
			index.ReleaseSource(src)
		}
		if gotN != len(wantSet) {
			t.Fatalf("sources expose %d postings of sym %d, flat index has %d", gotN, sym, len(wantSet))
		}
		// Windowed reads: the delta scan-filters by departure while the
		// base binary-searches its temporal order, so orders
		// differ; compare as sets against the flat temporal index.
		wantWin := map[index.Posting]bool{}
		for _, p := range want.PostingsInWindow(sym, 10, 40) {
			wantWin[p] = true
		}
		gotN = 0
		for s := 0; s < e.NumShards(); s++ {
			src := e.Source(s)
			for _, p := range src.PostingsInWindow(sym, 10, 40) {
				if !wantWin[p] {
					t.Fatalf("window posting %+v of sym %d not in the flat result", p, sym)
				}
				gotN++
			}
			index.ReleaseSource(src)
		}
		if gotN != len(wantWin) {
			t.Fatalf("window for sym %d has %d postings, want %d", sym, gotN, len(wantWin))
		}
	}
}

// TestEpochEmptyDelta pins the degenerate fold boundary: a delta built
// at the dataset's end covers nothing and the view collapses to the
// base (the server skips the Epoch wrapper in this case, but the
// wrapper must still be correct — compaction races publish through it).
func TestEpochEmptyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := randTemporalDataset(rng, 20, 50, 15)
	base := index.Build(ds)
	base.BuildTemporal()
	e := index.NewEpoch(base, buildDelta(ds, ds.Len()))
	if e.NumTrajectories() != ds.Len() || e.NumPostings() != base.NumPostings() {
		t.Fatalf("empty-delta epoch (%d trajs, %d postings) diverges from base (%d, %d)",
			e.NumTrajectories(), e.NumPostings(), ds.Len(), base.NumPostings())
	}
	src := e.Source(e.NumShards() - 1)
	defer index.ReleaseSource(src)
	if ps := src.Postings(5); len(ps) != 0 {
		t.Fatalf("empty delta returned %d postings", len(ps))
	}
}
