package index

import (
	"testing"

	"subtraj/internal/traj"
	"subtraj/internal/workload"
)

func shardedTestData(t *testing.T) *traj.Dataset {
	t.Helper()
	cfg := workload.Tiny(7)
	cfg.NumTrajectories = 40
	return workload.Generate(cfg).Data
}

// collectPostings gathers every (symbol, id, pos) triple a source exposes
// for the given symbols.
func collectPostings(src PostingSource, syms []traj.Symbol) map[traj.Symbol]map[Posting]bool {
	out := make(map[traj.Symbol]map[Posting]bool)
	for _, s := range syms {
		for _, p := range src.Postings(s) {
			if out[s] == nil {
				out[s] = make(map[Posting]bool)
			}
			out[s][p] = true
		}
	}
	return out
}

func symbolsOf(ds *traj.Dataset) []traj.Symbol {
	seen := map[traj.Symbol]bool{}
	var syms []traj.Symbol
	for i := range ds.Trajs {
		for _, s := range ds.Trajs[i].Path {
			if !seen[s] {
				seen[s] = true
				syms = append(syms, s)
			}
		}
	}
	return syms
}

// TestShardedPartitionsFlatIndex checks the core invariant: the union of
// the shards' postings equals the flat index's postings, shards are
// disjoint and own exactly their ID residue class, and global frequencies
// match.
func TestShardedPartitionsFlatIndex(t *testing.T) {
	ds := shardedTestData(t)
	flat := Build(ds)
	syms := symbolsOf(ds)
	for _, p := range []int{1, 2, 3, 4, 7} {
		sh := BuildSharded(ds, p)
		if sh.NumShards() != p {
			t.Fatalf("p=%d: NumShards = %d", p, sh.NumShards())
		}
		if sh.NumPostings() != flat.NumPostings() {
			t.Fatalf("p=%d: NumPostings %d != %d", p, sh.NumPostings(), flat.NumPostings())
		}
		want := collectPostings(flat, syms)
		got := make(map[traj.Symbol]map[Posting]bool)
		for s := 0; s < p; s++ {
			for sym, set := range collectPostings(sh.Source(s), syms) {
				for post := range set {
					if int(post.ID)%p != s {
						t.Fatalf("p=%d: shard %d holds posting of trajectory %d", p, s, post.ID)
					}
					if got[sym] == nil {
						got[sym] = make(map[Posting]bool)
					}
					if got[sym][post] {
						t.Fatalf("p=%d: posting %+v of %d appears in two shards", p, post, sym)
					}
					got[sym][post] = true
				}
			}
		}
		for _, sym := range syms {
			if len(got[sym]) != len(want[sym]) {
				t.Fatalf("p=%d sym=%d: union size %d != flat %d", p, sym, len(got[sym]), len(want[sym]))
			}
			if sh.Freq(sym) != flat.Freq(sym) {
				t.Fatalf("p=%d sym=%d: Freq %d != %d", p, sym, sh.Freq(sym), flat.Freq(sym))
			}
		}
	}
}

// TestShardedTemporalWindows checks the per-shard departure-sorted
// postings against the flat index's.
func TestShardedTemporalWindows(t *testing.T) {
	ds := shardedTestData(t)
	flat := Build(ds)
	flat.BuildTemporal()
	sh := BuildSharded(ds, 3)
	sh.BuildTemporal()
	syms := symbolsOf(ds)
	// Probe a few windows spanning the workload horizon.
	windows := [][2]float64{{0, 600}, {300, 1200}, {0, 1e9}, {2000, 1000}}
	for _, w := range windows {
		lo, hi := w[0], w[1]
		for _, sym := range syms {
			want := make(map[Posting]bool)
			for _, p := range flat.PostingsInWindow(sym, lo, hi) {
				want[p] = true
			}
			got := make(map[Posting]bool)
			for s := 0; s < sh.NumShards(); s++ {
				for _, p := range sh.Source(s).PostingsInWindow(sym, lo, hi) {
					got[p] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("window [%g,%g] sym %d: got %d postings, want %d", lo, hi, sym, len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("window [%g,%g] sym %d: missing posting %+v", lo, hi, sym, p)
				}
			}
		}
	}
	// Interval overlap must agree with the flat index for every ID.
	for id := int32(0); int(id) < ds.Len(); id++ {
		if sh.IntervalOverlaps(id, 100, 900) != flat.IntervalOverlaps(id, 100, 900) {
			t.Fatalf("IntervalOverlaps disagrees for id %d", id)
		}
	}
}
