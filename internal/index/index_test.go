package index_test

import (
	"math/rand"
	"slices"
	"testing"

	"subtraj/internal/index"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
)

func TestPostingsComplete(t *testing.T) {
	env := testutil.NewEnv(1, 20, 15)
	c := index.Build(env.V)
	// Every (id, pos) must appear exactly once in its symbol's list.
	for id := range env.V.Trajs {
		for pos, sym := range env.V.Trajs[id].Path {
			found := 0
			for _, p := range c.AppendPostings(nil, sym) {
				if p.ID == int32(id) && p.Pos == int32(pos) {
					found++
				}
			}
			if found != 1 {
				t.Fatalf("posting (%d,%d) of %d appears %d times", id, pos, sym, found)
			}
		}
	}
	if c.NumPostings() != env.V.TotalSymbols() {
		t.Fatalf("postings count %d != total symbols %d", c.NumPostings(), env.V.TotalSymbols())
	}
}

func TestFreqMatchesCount(t *testing.T) {
	env := testutil.NewEnv(2, 20, 15)
	c := index.Build(env.V)
	counts := map[traj.Symbol]int{}
	for id := range env.V.Trajs {
		for _, sym := range env.V.Trajs[id].Path {
			counts[sym]++
		}
	}
	for sym, n := range counts {
		if c.Freq(sym) != n {
			t.Fatalf("freq(%d) = %d, want %d", sym, c.Freq(sym), n)
		}
	}
	for _, absent := range []traj.Symbol{-1 << 31, -1, 1 << 30, 1<<31 - 1} {
		if c.Freq(absent) != 0 || len(c.AppendPostings(nil, absent)) != 0 {
			t.Fatalf("absent symbol %d has postings", absent)
		}
	}
}

// TestIncrementalAppendEqualsBuild: §4.1's incremental update — every
// trajectory appended one by one to a delta over an empty arena — yields
// the postings of a bulk build.
func TestIncrementalAppendEqualsBuild(t *testing.T) {
	env := testutil.NewEnv(3, 20, 15)
	whole := index.Build(env.V)
	delta := index.NewDeltaMap(0)
	for id := range env.V.Trajs {
		delta.Append(int32(id), &env.V.Trajs[id])
	}
	inc := index.NewEpoch(index.Build(traj.NewDataset(traj.VertexRep)), delta.View()).Source(1)
	for id := range env.V.Trajs {
		for _, sym := range env.V.Trajs[id].Path {
			if a, b := whole.AppendPostings(nil, sym), inc.AppendPostings(nil, sym); !slices.Equal(a, b) {
				t.Fatalf("postings differ for %d: %v vs %v", sym, a, b)
			}
		}
	}
}

func TestTemporalWindow(t *testing.T) {
	env := testutil.NewEnv(4, 30, 15)
	c := index.Build(env.V)
	rng := rand.New(rand.NewSource(4))
	syms := c.Symbols()
	for trial := 0; trial < 50; trial++ {
		sym := syms[rng.Intn(len(syms))]
		lo := rng.Float64() * 3600
		hi := lo + rng.Float64()*1800
		got := c.AppendPostingsInWindow(nil, sym, lo, hi)
		// Reference: filter full postings by departure.
		var want []index.Posting
		for _, p := range c.AppendPostings(nil, sym) {
			dep, _ := env.V.Trajs[p.ID].Departure()
			if dep >= lo && dep <= hi {
				want = append(want, p)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("window size %d != %d", len(got), len(want))
		}
		gotSet := map[index.Posting]bool{}
		for _, p := range got {
			gotSet[p] = true
		}
		for _, p := range want {
			if !gotSet[p] {
				t.Fatalf("window missing posting %+v", p)
			}
		}
	}
}

func TestIntervalOverlaps(t *testing.T) {
	env := testutil.NewEnv(5, 20, 15)
	c := index.Build(env.V)
	for id := range env.V.Trajs {
		lo, hi, ok := env.V.Trajs[id].Interval()
		if !ok {
			t.Fatal("missing timestamps")
		}
		if !c.IntervalOverlaps(int32(id), lo, hi) {
			t.Fatalf("self-interval does not overlap for %d", id)
		}
		if c.IntervalOverlaps(int32(id), hi+1, hi+2) {
			t.Fatalf("disjoint interval overlaps for %d", id)
		}
		if !c.IntervalOverlaps(int32(id), lo-10, lo) {
			t.Fatalf("touching interval must overlap for %d", id)
		}
	}
}
