package core_test

import (
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/testutil"
	"subtraj/internal/verify"
)

// TestBandedEquivalence is the cross-check the τ-banded verification must
// pass, in the mould of TestParallelismEquivalence: for every cost model
// (including the weighted Net* models, whose non-uniform costs make the
// band asymmetric), every verification mode, and both the sequential and
// the fanned-out pipeline, banded columns return exactly the full-width
// answer — identical sorted (ID, S, T) sets with bit-equal WED values —
// while visiting the same columns and computing at most as many cells.
func TestBandedEquivalence(t *testing.T) {
	core.ForceFanOut(t)
	for _, seed := range []int64{61, 62} {
		env := testutil.NewEnv(seed, 40, 24)
		for _, m := range env.Models() {
			eng := core.NewEngine(m.DS, m.Costs)
			q := env.Query(m, 8)
			for _, tau := range oracleTaus(m.Costs, m.DS, q)[1:] {
				for _, mode := range []verify.Mode{verify.ModeBT, verify.ModeLocal, verify.ModeSW} {
					for _, par := range []int{1, 4} {
						full, fullStats, err := eng.SearchQuery(core.Query{
							Q: q, Tau: tau, Parallelism: par,
							Verify: verify.Options{Mode: mode, DisableBanding: true},
						})
						if err != nil {
							t.Fatalf("seed=%d model=%s mode=%s par=%d: %v", seed, m.Name, mode, par, err)
						}
						banded, bandedStats, err := eng.SearchQuery(core.Query{
							Q: q, Tau: tau, Parallelism: par,
							Verify: verify.Options{Mode: mode},
						})
						if err != nil {
							t.Fatalf("seed=%d model=%s mode=%s par=%d: %v", seed, m.Name, mode, par, err)
						}
						label := m.Name + "/" + mode.String() + "/banded"
						assertIdenticalResults(t, label, banded, full)

						// Banding changes no pruning decision: the same
						// columns are visited and computed; only the cell
						// work inside each column shrinks.
						if bandedStats.Verify.ColumnsVisited != fullStats.Verify.ColumnsVisited {
							t.Fatalf("%s par=%d: ColumnsVisited %d != %d", label, par,
								bandedStats.Verify.ColumnsVisited, fullStats.Verify.ColumnsVisited)
						}
						if bandedStats.Verify.StepDPCalls != fullStats.Verify.StepDPCalls {
							t.Fatalf("%s par=%d: StepDPCalls %d != %d", label, par,
								bandedStats.Verify.StepDPCalls, fullStats.Verify.StepDPCalls)
						}
						if bandedStats.Verify.CellsComputed > fullStats.Verify.CellsComputed {
							t.Fatalf("%s par=%d: banded computed more cells (%d) than full (%d)", label, par,
								bandedStats.Verify.CellsComputed, fullStats.Verify.CellsComputed)
						}
						if mode != verify.ModeSW {
							if fullStats.Verify.StepDPCalls > 0 && fullStats.Verify.BandRatio() != 1 {
								t.Fatalf("%s par=%d: full-width BandRatio = %v, want 1", label, par, fullStats.Verify.BandRatio())
							}
							if r := bandedStats.Verify.BandRatio(); r < 0 || r > 1 {
								t.Fatalf("%s par=%d: BandRatio out of range: %v", label, par, r)
							}
						}
					}
				}
			}
		}
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
		for _, noET := range []bool{false, true} {
			full, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau,
				Verify: verify.Options{DisableEarlyTermination: noET, DisableBanding: true}})
			if err != nil {
				t.Fatal(err)
			}
			banded, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau,
				Verify: verify.Options{DisableEarlyTermination: noET}})
			if err != nil {
				t.Fatal(err)
			}
			assertIdenticalResults(t, m.Name+"/noET-banded", banded, full)
		}
	}
}
