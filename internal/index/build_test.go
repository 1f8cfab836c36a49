package index_test

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"subtraj/internal/index"
	"subtraj/internal/traj"
)

// referenceLists is the inverted index by brute force: a scan in ID order
// appending to one list per symbol.
func referenceLists(ds *traj.Dataset) map[traj.Symbol][]index.Posting {
	lists := make(map[traj.Symbol][]index.Posting)
	for id := range ds.Trajs {
		for pos, sym := range ds.Trajs[id].Path {
			lists[sym] = append(lists[sym], index.Posting{ID: int32(id), Pos: int32(pos)})
		}
	}
	return lists
}

// departure is a trajectory's departure as the index keeps it: 0 without
// timestamps.
func departure(ds *traj.Dataset, id int32) float64 {
	lo, _, _ := ds.Get(id).Interval()
	return lo
}

// referenceWindow is AppendPostingsInWindow by brute force: the postings
// of list whose trajectory departs in [lo, hi], stably sorted by
// departure, so ties keep (ID, position) order.
func referenceWindow(ds *traj.Dataset, list []index.Posting, lo, hi float64) []index.Posting {
	var out []index.Posting
	for _, p := range list {
		if d := departure(ds, p.ID); d >= lo && d <= hi {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return departure(ds, out[i].ID) < departure(ds, out[j].ID) })
	return out
}

// TestBuildRangesEqualSequential: whatever the number of ranges the build
// is cut into — one, a few, more than there are trajectories — the arena
// is the same bytes, it passes the loader's validation, and its lists,
// frequencies and intervals are those of the brute-force scan.
func TestBuildRangesEqualSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const alpha = 40
	for _, numTraj := range []int{0, 1, 5, 300} {
		ds := randTemporalDataset(rng, alpha, numTraj, 30)
		want := referenceLists(ds)
		var first []byte
		for _, p := range []int{1, 2, 3, 7, numTraj + 9} {
			c := index.BuildRanges(ds, p)
			if c.NumTrajectories() != numTraj || c.NumPostings() != ds.TotalSymbols() {
				t.Fatalf("n=%d p=%d: %d trajectories, %d postings, want %d and %d",
					numTraj, p, c.NumTrajectories(), c.NumPostings(), numTraj, ds.TotalSymbols())
			}
			if first == nil {
				first = c.Bytes()
			} else if !bytes.Equal(c.Bytes(), first) {
				t.Fatalf("n=%d: the arena built over %d ranges differs from the one over 1", numTraj, p)
			}
			if _, err := index.LoadCompact(c.Bytes()); err != nil {
				t.Fatalf("n=%d p=%d: the built arena fails its own loader: %v", numTraj, p, err)
			}
			for sym := traj.Symbol(-1); sym <= alpha; sym++ {
				if got := c.AppendPostings(nil, sym); !slices.Equal(got, want[sym]) {
					t.Fatalf("n=%d p=%d: postings of %d = %v, want %v", numTraj, p, sym, got, want[sym])
				}
				if c.Freq(sym) != len(want[sym]) {
					t.Fatalf("n=%d p=%d: Freq(%d) = %d, want %d", numTraj, p, sym, c.Freq(sym), len(want[sym]))
				}
			}
			for id := range ds.Trajs {
				lo, hi, _ := ds.Trajs[id].Interval()
				if glo, ghi := c.Interval(int32(id)); glo != lo || ghi != hi {
					t.Fatalf("n=%d p=%d: interval of trajectory %d is [%g, %g], want [%g, %g]", numTraj, p, id, glo, ghi, lo, hi)
				}
			}
		}
	}
}

// TestBuildTemporalEqualsSequentialSort: the departure order, filled by
// several workers in rank order, is the stable per-symbol sort of the
// plain lists — ties (the dataset forces many) keep (ID, position) order.
func TestBuildTemporalEqualsSequentialSort(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const alpha = 40
	ds := randTemporalDataset(rng, alpha, 300, 30)
	c := index.Build(ds)
	want := referenceLists(ds)
	for sym := traj.Symbol(0); sym < alpha; sym++ {
		all := referenceWindow(ds, want[sym], math.Inf(-1), math.Inf(1))
		if got := c.AppendPostingsInWindow(nil, sym, math.Inf(-1), math.Inf(1)); !slices.Equal(got, all) {
			t.Fatalf("departure order of %d = %v, want %v", sym, got, all)
		}
	}
}
