package index_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"subtraj/internal/index"
	"subtraj/internal/traj"
)

// referenceLists is the one-goroutine build the range-parallel one must
// reproduce: a scan in ID order appending to one list per symbol.
func referenceLists(ds *traj.Dataset) map[traj.Symbol][]index.Posting {
	lists := make(map[traj.Symbol][]index.Posting)
	for id := range ds.Trajs {
		for pos, sym := range ds.Trajs[id].Path {
			lists[sym] = append(lists[sym], index.Posting{ID: int32(id), Pos: int32(pos)})
		}
	}
	return lists
}

// TestBuildRangesEqualSequential: whatever the number of ID ranges the
// build is cut into — one, a few, more than there are trajectories — the
// lists, frequencies and intervals are those of the one-goroutine scan,
// element for element, and no list can grow into its neighbour in the
// shared slab.
func TestBuildRangesEqualSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const alpha = 40
	for _, numTraj := range []int{0, 1, 5, 300} {
		ds := randTemporalDataset(rng, alpha, numTraj, 30)
		want := referenceLists(ds)
		for _, p := range []int{1, 2, 3, 7, numTraj + 9} {
			inv := index.BuildRanges(ds, p)
			if inv.NumTrajectories() != numTraj || inv.NumPostings() != ds.TotalSymbols() {
				t.Fatalf("n=%d p=%d: %d trajectories, %d postings, want %d and %d",
					numTraj, p, inv.NumTrajectories(), inv.NumPostings(), numTraj, ds.TotalSymbols())
			}
			for sym := traj.Symbol(0); sym < alpha; sym++ {
				got := inv.Postings(sym)
				if !slices.Equal(got, want[sym]) {
					t.Fatalf("n=%d p=%d: postings of %d = %v, want %v", numTraj, p, sym, got, want[sym])
				}
				if inv.Freq(sym) != len(want[sym]) {
					t.Fatalf("n=%d p=%d: Freq(%d) = %d, want %d", numTraj, p, sym, inv.Freq(sym), len(want[sym]))
				}
				if cap(got) != len(got) {
					t.Fatalf("n=%d p=%d: list of %d has spare capacity %d in the slab", numTraj, p, sym, cap(got)-len(got))
				}
			}
			for id := range ds.Trajs {
				lo, hi, _ := ds.Trajs[id].Interval()
				if !inv.IntervalOverlaps(int32(id), lo, lo) || !inv.IntervalOverlaps(int32(id), hi, hi) ||
					inv.IntervalOverlaps(int32(id), lo-2, lo-1) || inv.IntervalOverlaps(int32(id), hi+1, hi+2) {
					t.Fatalf("n=%d p=%d: interval of trajectory %d is not [%g, %g]", numTraj, p, id, lo, hi)
				}
			}
		}
	}
}

// TestBuildTemporalEqualsSequentialSort: the departure order, sorted by
// several workers, is the stable per-symbol sort of the plain lists —
// ties (the dataset forces many) keep (ID, position) order.
func TestBuildTemporalEqualsSequentialSort(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const alpha = 40
	ds := randTemporalDataset(rng, alpha, 300, 30)
	inv := index.Build(ds)
	inv.BuildTemporal()
	for sym := traj.Symbol(0); sym < alpha; sym++ {
		want := slices.Clone(inv.Postings(sym))
		sort.SliceStable(want, func(i, j int) bool {
			di, _ := ds.Trajs[want[i].ID].Departure()
			dj, _ := ds.Trajs[want[j].ID].Departure()
			return di < dj
		})
		if got := inv.PostingsInWindow(sym, -1, 1e9); !slices.Equal(got, want) {
			t.Fatalf("departure order of %d = %v, want %v", sym, got, want)
		}
	}
}
