package core_test

import (
	"reflect"
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
)

// compactBackends builds the two engines under comparison over one
// model: the pointer index and the compact arena.
func compactBackends(m testutil.Model) (flat, compact *core.Engine) {
	return core.NewEngine(m.DS, m.Costs), core.NewEngineCompact(m.DS, m.Costs)
}

// bitEqual demands byte-for-byte identical match slices: same order, same
// (ID, S, T), same WED bits. The backends feed identical candidate
// postings into identical verification, so nothing weaker is acceptable.
func bitEqual(t *testing.T, label string, got, want []traj.Match) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result not bit-equal\n got %v\nwant %v", label, got, want)
	}
}

// TestCompactEquivalence is the backend-equivalence acceptance test: over
// all six cost models, every verification mode, sequential and fanned-out
// execution, the compact backend must return matches bit-equal to the
// pointer backend — identical slices including order and WED bits —
// with the identical filter plan (|Q'|, c(Q')) and candidate count.
func TestCompactEquivalence(t *testing.T) {
	core.ForceFanOut(t)
	env := testutil.NewEnv(31, 35, 22)
	for _, m := range env.Models() {
		flat, compact := compactBackends(m)
		if flat.IndexKind() != "pointer" || compact.IndexKind() != "compact" {
			t.Fatalf("%s: backend kinds %q / %q", m.Name, flat.IndexKind(), compact.IndexKind())
		}
		q := env.Query(m, 8)
		taus := oracleTaus(m.Costs, m.DS, q)
		for _, tau := range taus {
			for _, mode := range []verify.Mode{verify.ModeBT, verify.ModeLocal, verify.ModeSW} {
				for _, par := range []int{1, 4} {
					qr := core.Query{Q: q, Tau: tau, Parallelism: par,
						Verify: verify.Options{Mode: mode}}
					want, wstats, err := flat.SearchQuery(qr)
					if err != nil {
						t.Fatalf("%s flat: %v", m.Name, err)
					}
					label := m.Name + "/" + mode.String() + "/compact"
					got, gstats, err := compact.SearchQuery(qr)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					bitEqual(t, label, got, want)
					if gstats.SubseqLen != wstats.SubseqLen || gstats.CSum != wstats.CSum {
						t.Fatalf("%s: plan (|Q'|=%d, c=%v), want (|Q'|=%d, c=%v)",
							label, gstats.SubseqLen, gstats.CSum, wstats.SubseqLen, wstats.CSum)
					}
					if gstats.Candidates != wstats.Candidates {
						t.Fatalf("%s: %d candidates, want %d", label, gstats.Candidates, wstats.Candidates)
					}
					if gstats.Workers != par {
						t.Fatalf("%s: Workers = %d, want %d", label, gstats.Workers, par)
					}
				}
			}
		}
	}
}

// TestCompactEquivalenceTemporal repeats the comparison for temporally
// constrained queries: every temporal mode, with and without the
// candidate-level pre-filter, several windows. This drives the compact
// arena's skip-block window decode and interval section through the whole
// query path.
func TestCompactEquivalenceTemporal(t *testing.T) {
	core.ForceFanOut(t)
	env := testutil.NewEnv(32, 40, 22)
	for _, m := range env.Models() {
		flat, compact := compactBackends(m)
		q := env.Query(m, 8)
		tau := oracleTaus(m.Costs, m.DS, q)[2]
		windows := [][2]float64{{0, 1e9}, {0, 1500}, {800, 2400}, {3000, 3000}, {-10, -1}}
		for _, w := range windows {
			for _, tm := range []core.TemporalMode{core.TemporalOverlap, core.TemporalContain, core.TemporalDeparture} {
				for _, noTF := range []bool{false, true} {
					qr := core.Query{Q: q, Tau: tau, Parallelism: 4}
					qr.Temporal.Mode = tm
					qr.Temporal.Lo, qr.Temporal.Hi = w[0], w[1]
					qr.Temporal.DisablePrefilter = noTF
					want, _, err := flat.SearchQuery(qr)
					if err != nil {
						t.Fatalf("%s flat temporal: %v", m.Name, err)
					}
					got, _, err := compact.SearchQuery(qr)
					if err != nil {
						t.Fatalf("%s/compact temporal: %v", m.Name, err)
					}
					bitEqual(t, m.Name+"/compact/temporal", got, want)
				}
			}
		}
	}
}

// TestCompactEquivalenceTopK compares the top-k driver across backends:
// the queue is filled from the plan and the postings, which the backends
// share, so the queued-trajectory count must agree as well as the answer.
func TestCompactEquivalenceTopK(t *testing.T) {
	env := testutil.NewEnv(33, 35, 22)
	for _, m := range env.Models() {
		flat, compact := compactBackends(m)
		q := env.Query(m, 8)
		for _, k := range []int{1, 5} {
			want, wstats, err := flat.SearchTopKStats(q, k, core.TopKOptions{})
			if err != nil {
				t.Fatalf("%s flat topk: %v", m.Name, err)
			}
			got, gstats, err := compact.SearchTopKStats(q, k, core.TopKOptions{})
			if err != nil {
				t.Fatalf("%s compact topk: %v", m.Name, err)
			}
			bitEqual(t, m.Name+"/topk", got, want)
			if gstats.TrajQueued != wstats.TrajQueued {
				t.Fatalf("%s topk: %d trajectories queued, want %d", m.Name, gstats.TrajQueued, wstats.TrajQueued)
			}
		}
	}
}
