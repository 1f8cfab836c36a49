package core_test

import (
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
)

// TestBandedEquivalence is the cross-check the τ-banded verification must
// pass, in the mould of TestParallelismEquivalence: for every cost model
// (including the weighted Net* models, whose non-uniform costs make the
// band asymmetric), both trie modes, and both the sequential and the
// fanned-out pipeline, banded columns return the full-matrix answer —
// verify.ModeSW, which is wed.AllMatches over every candidate trajectory
// and stores no columns at all: the same (ID, S, T) set with equal WED
// values (to rounding: the bidirectional walks add two half sums where the
// matrix adds one; that banded cells are bit-equal to full-width ones is
// TestStepDPBandedQuick's and TestStepDPRowsEqualsBanded's check) — and
// every banded configuration returns the same sorted matches bit for bit,
// while computing fewer cells than full-width columns would have.
func TestBandedEquivalence(t *testing.T) {
	core.ForceFanOut(t)
	var computed, available int64
	for _, seed := range []int64{61, 62} {
		env := testutil.NewEnv(seed, 40, 24)
		for _, m := range env.Models() {
			eng := core.NewEngine(m.DS, m.Costs)
			q := env.Query(m, 8)
			for _, tau := range oracleTaus(m.Costs, m.DS, q)[1:] {
				full, _, err := eng.SearchQuery(core.Query{
					Q: q, Tau: tau, Parallelism: 1,
					Verify: verify.Options{Mode: verify.ModeSW},
				})
				if err != nil {
					t.Fatalf("seed=%d model=%s mode=SW: %v", seed, m.Name, err)
				}
				var first []traj.Match
				for _, mode := range []verify.Mode{verify.ModeBT, verify.ModeLocal} {
					for _, par := range []int{1, 4} {
						banded, stats, err := eng.SearchQuery(core.Query{
							Q: q, Tau: tau, Parallelism: par,
							Verify: verify.Options{Mode: mode},
						})
						if err != nil {
							t.Fatalf("seed=%d model=%s mode=%s par=%d: %v", seed, m.Name, mode, par, err)
						}
						label := m.Name + "/" + mode.String() + "/banded"
						assertSameMatches(t, label, banded, full)
						if first == nil {
							first = banded
						}
						assertIdenticalResults(t, label, banded, first)

						vs := stats.Verify
						if vs.CellsComputed > vs.CellsAvailable {
							t.Fatalf("%s par=%d: computed more cells (%d) than full-width columns hold (%d)",
								label, par, vs.CellsComputed, vs.CellsAvailable)
						}
						if r := vs.BandRatio(); r < 0 || r > 1 {
							t.Fatalf("%s par=%d: BandRatio out of range: %v", label, par, r)
						}
						computed += vs.CellsComputed
						available += vs.CellsAvailable
					}
				}
			}
		}
	}
	if computed == 0 || computed >= available {
		t.Fatalf("banding saved nothing: %d cells computed of %d available", computed, available)
	}
}

// TestBandedEquivalenceAblations covers the early-termination ablation —
// with the Eq. 11 cut off, walks descend into all-pruned (empty-band)
// columns, the regime where the band bookkeeping is most delicate.
func TestBandedEquivalenceAblations(t *testing.T) {
	env := testutil.NewEnv(63, 40, 24)
	for _, m := range env.Models() {
		eng := core.NewEngine(m.DS, m.Costs)
		q := env.Query(m, 8)
		tau := oracleTaus(m.Costs, m.DS, q)[1]
		full, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau,
			Verify: verify.Options{Mode: verify.ModeSW}})
		if err != nil {
			t.Fatal(err)
		}
		var withET []traj.Match
		for _, noET := range []bool{false, true} {
			banded, stats, err := eng.SearchQuery(core.Query{Q: q, Tau: tau,
				Verify: verify.Options{DisableEarlyTermination: noET}})
			if err != nil {
				t.Fatal(err)
			}
			assertSameMatches(t, m.Name+"/noET-banded", banded, full)
			if !noET {
				withET = banded
			}
			assertIdenticalResults(t, m.Name+"/noET-banded", banded, withET)
			if vs := stats.Verify; vs.CellsComputed > vs.CellsAvailable {
				t.Fatalf("%s noET=%v: computed more cells (%d) than full-width columns hold (%d)",
					m.Name, noET, vs.CellsComputed, vs.CellsAvailable)
			}
		}
	}
}
