package server

import (
	"reflect"
	"sort"
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/experiments"
	"subtraj/internal/setup"
	"subtraj/internal/traj"
	"subtraj/internal/workload"
)

// TestSnapshotEquivalence is the generation-equivalence suite of the
// epoch-snapshot design: at EVERY published generation, search results
// through the delta-merged view must be bit-equal — same (ID,S,T)-sorted
// order, same WED floats — to a freshly built stop-the-world oracle
// engine over the same trajectory prefix. The walk appends one
// trajectory at a time, folds the delta at fixed points so snapshots
// are exercised with an empty delta, a fresh delta, and a mid-fold
// rebuilt delta, and cross-checks all six cost models × parallelism
// {1,4} × temporal windows (none / overlap / contain / departure).
func TestSnapshotEquivalence(t *testing.T) {
	c := experiments.GetCtx(workload.Tiny(7), 1.0)
	for _, model := range setup.Models {
		t.Run(model, func(t *testing.T) {
			costs := c.Model(model)
			full := c.Data(model)
			const n0 = 40 // base prefix; the rest is appended one by one

			// The experiments context is shared and cached — append into
			// a private clone of the prefix, never into c's dataset.
			master := traj.NewDataset(full.Rep)
			for i := 0; i < n0; i++ {
				master.Add(*full.Get(int32(i)))
			}
			safe := NewSafeEngine(core.NewEngine(master, costs))

			qs := c.Queries(model, 8, 3, 5)
			windows := temporalWindows(full)

			for n := n0; n <= full.Len(); n++ {
				if n > n0 {
					if _, err := safe.Append(*full.Get(int32(n - 1))); err != nil {
						t.Fatalf("append %d: %v", n-1, err)
					}
				}
				// Fold at a stride so the walk sees empty, small, and
				// compaction-fresh deltas; gen must not move on a fold.
				if (n-n0)%7 == 3 {
					if _, err := safe.Compact(); err != nil {
						t.Fatalf("compact at n=%d: %v", n, err)
					}
				}
				if got, want := safe.Generation(), uint64(n-n0); got != want {
					t.Fatalf("generation = %d, want %d", got, want)
				}
				if safe.NumTrajectories() != n {
					t.Fatalf("published %d trajectories, want %d", safe.NumTrajectories(), n)
				}

				// Stop-the-world oracle over the identical prefix.
				oracle := core.NewEngine(full.Slice(n), costs)
				for qi, q := range qs {
					tau := c.Tau(model, q, 0.25)
					for _, par := range []int{1, 4} {
						for wi, win := range windows {
							qr := core.Query{Q: q, Tau: tau, Parallelism: par}
							qr.Temporal.Mode = win.mode
							qr.Temporal.Lo, qr.Temporal.Hi = win.lo, win.hi
							want, _, err := oracle.SearchQuery(qr)
							if err != nil {
								t.Fatalf("oracle n=%d q=%d win=%d: %v", n, qi, wi, err)
							}
							got, _, err := safe.SearchQuery(qr)
							if err != nil {
								t.Fatalf("snapshot n=%d q=%d win=%d: %v", n, qi, wi, err)
							}
							if !matchesEqual(got, want) {
								t.Fatalf("n=%d gen=%d q=%d par=%d win=%d: snapshot results diverge from oracle\n got %v\nwant %v",
									n, safe.Generation(), qi, par, wi, got, want)
							}
						}
					}
				}
			}
			// End state: one final fold must leave contents untouched.
			if _, err := safe.Compact(); err != nil {
				t.Fatalf("final compact: %v", err)
			}
			if safe.DeltaLen() != 0 || safe.FoldedLen() != full.Len() {
				t.Fatalf("after final compact: delta=%d folded=%d, want 0/%d",
					safe.DeltaLen(), safe.FoldedLen(), full.Len())
			}
		})
	}
}

// temporalWindow is one temporal constraint of the equivalence sweep.
type temporalWindow struct {
	mode   core.TemporalMode
	lo, hi float64
}

// temporalWindows derives the query windows from the dataset's actual
// departure spread: everything, the early half, the late half — under
// each temporal mode — plus the no-temporal control.
func temporalWindows(ds *traj.Dataset) []temporalWindow {
	deps := make([]float64, 0, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		if d, ok := ds.Get(int32(i)).Departure(); ok {
			deps = append(deps, d)
		}
	}
	if len(deps) == 0 {
		deps = []float64{0}
	}
	sort.Float64s(deps)
	mid := deps[len(deps)/2]
	ws := []temporalWindow{{}} // no temporal constraint
	for _, mode := range []core.TemporalMode{core.TemporalOverlap, core.TemporalContain, core.TemporalDeparture} {
		ws = append(ws,
			temporalWindow{mode: mode, lo: 0, hi: 1e12},
			temporalWindow{mode: mode, lo: 0, hi: mid},
			temporalWindow{mode: mode, lo: mid, hi: 1e12},
		)
	}
	return ws
}

// matchesEqual is bit-equality on result lists, treating nil and empty
// as equal (both mean "no matches").
func matchesEqual(got, want []traj.Match) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

// TestSnapshotEquivalenceTopK extends the generation walk to the top-k
// protocol: the whole multi-round τ refinement runs against one
// snapshot, so its results must equal the oracle's for the same prefix.
func TestSnapshotEquivalenceTopK(t *testing.T) {
	c := experiments.GetCtx(workload.Tiny(7), 1.0)
	costs := c.Model("Lev")
	full := c.Data("Lev")
	const n0 = 45

	master := traj.NewDataset(full.Rep)
	for i := 0; i < n0; i++ {
		master.Add(*full.Get(int32(i)))
	}
	safe := NewSafeEngine(core.NewEngine(master, costs))
	qs := c.Queries("Lev", 10, 2, 9)

	for n := n0; n <= full.Len(); n++ {
		if n > n0 {
			if _, err := safe.Append(*full.Get(int32(n - 1))); err != nil {
				t.Fatal(err)
			}
		}
		if (n-n0)%5 == 2 {
			if _, err := safe.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		oracle := core.NewEngine(full.Slice(n), costs)
		for qi, q := range qs {
			for _, k := range []int{1, 5} {
				want, _, err := oracle.SearchTopKStats(q, k, core.TopKOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := safe.SearchTopKStats(q, k, core.TopKOptions{Parallelism: 4})
				if err != nil {
					t.Fatal(err)
				}
				if !matchesEqual(got, want) {
					t.Fatalf("topk n=%d q=%d k=%d diverges:\n got %v\nwant %v", n, qi, k, got, want)
				}
			}
		}
	}
}
