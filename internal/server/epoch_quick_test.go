package server

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subtraj/internal/core"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// TestEpochScheduleQuick is a property test over random append / search
// / compact schedules: whatever order the operations interleave in, the
// epoch engine must answer every search exactly like a sequential model
// that rebuilds a fresh engine over the same trajectory list. Each
// testing/quick counterexample is one seed, so failures replay
// deterministically.
func TestEpochScheduleQuick(t *testing.T) {
	w := workload.Generate(workload.Tiny(13))
	full := w.Data

	prop := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		const n0 = 15

		// The schedule's ground truth: the exact trajectory list the
		// engine should hold, in append order.
		model := make([]traj.Trajectory, 0, n0+32)
		master := traj.NewDataset(full.Rep)
		for i := 0; i < n0; i++ {
			tr := *full.Get(int32(i))
			model = append(model, tr)
			master.Add(tr)
		}
		safe := NewSafeEngine(core.NewEngine(master, wed.NewLev()))

		randomTraj := func() traj.Trajectory {
			path := append([]traj.Symbol(nil), full.Path(int32(rng.Intn(full.Len())))...)
			tr := traj.Trajectory{Path: path}
			if rng.Intn(2) == 0 { // half the appends carry timestamps
				times := make([]float64, len(path))
				t0 := rng.Float64() * 1000
				for i := range times {
					times[i] = t0 + float64(i)*rng.Float64()*10
				}
				tr.Times = times
			}
			return tr
		}
		sampleQ := func() []traj.Symbol {
			src := model[rng.Intn(len(model))].Path
			if len(src) <= 2 {
				return src
			}
			l := 2 + rng.Intn(min(6, len(src)-1))
			start := rng.Intn(len(src) - l + 1)
			return src[start : start+l]
		}
		check := func() bool {
			q := sampleQ()
			tau := safe.Threshold(q, 0.25)
			oDs := traj.NewDataset(full.Rep)
			for _, tr := range model {
				oDs.Add(tr)
			}
			oracle := core.NewEngine(oDs, wed.NewLev())
			for _, par := range []int{1, 4} {
				qr := core.Query{Q: q, Tau: tau, Parallelism: par}
				if rng.Intn(2) == 0 {
					qr.Temporal.Mode = core.TemporalDeparture
					qr.Temporal.Lo, qr.Temporal.Hi = 0, 500+rng.Float64()*1500
				}
				want, _, err := oracle.SearchQuery(qr)
				if err != nil {
					t.Logf("seed %d: oracle: %v", seed, err)
					return false
				}
				got, _, err := safe.SearchQuery(qr)
				if err != nil {
					t.Logf("seed %d: epoch: %v", seed, err)
					return false
				}
				if !matchesEqual(got, want) {
					t.Logf("seed %d: diverged on |Q|=%d par=%d mode=%v:\n got %v\nwant %v",
						seed, len(q), par, qr.Temporal.Mode, got, want)
					return false
				}
			}
			return true
		}

		for op := 0; op < 30; op++ {
			switch r := rng.Intn(10); {
			case r < 4: // append
				tr := randomTraj()
				model = append(model, tr)
				if _, err := safe.Append(tr); err != nil {
					t.Logf("seed %d: append: %v", seed, err)
					return false
				}
			case r < 8: // search vs sequential model
				if !check() {
					return false
				}
			default: // compact (contents must not change)
				if _, err := safe.Compact(); err != nil {
					t.Logf("seed %d: compact: %v", seed, err)
					return false
				}
			}
		}
		if safe.Generation() != uint64(len(model)-n0) {
			t.Logf("seed %d: generation %d != appends %d", seed, safe.Generation(), len(model)-n0)
			return false
		}
		if _, err := safe.Compact(); err != nil {
			return false
		}
		return check()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
