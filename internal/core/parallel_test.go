package core_test

import (
	"sync/atomic"
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/index"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/wed"
)

// assertIdenticalResults enforces the fan-out's determinism contract: not
// merely the same match set, but the exact same slice — same (ID, S, T)
// order, bit-for-bit equal WED values.
func assertIdenticalResults(t *testing.T, label string, got, want []traj.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// namedEngine is one cell of the backend × delta grid.
type namedEngine struct {
	name string
	eng  *core.Engine
}

// fanOutEngines builds the four engines every fan-out suite runs over:
// the pointer and the compact base, each once over all of ds (empty
// delta) and once over its first half with the rest appended (the delta's
// candidates are then the tail of the ID-sorted array the fan-out cuts).
// All four hold the same trajectories under the same IDs, so their
// answers must be bit-equal to each other as well.
func fanOutEngines(ds *traj.Dataset, costs wed.FilterCosts) []namedEngine {
	half := ds.Len() / 2
	appended := func(base func(*traj.Dataset) index.Backend) *core.Engine {
		partial := &traj.Dataset{Rep: ds.Rep}
		for i := 0; i < half; i++ {
			partial.Add(ds.Trajs[i])
		}
		eng := core.NewEngineWithBackend(partial, base(partial), costs)
		eng.AppendBatch(ds.Trajs[half:])
		return eng
	}
	return []namedEngine{
		{"pointer", core.NewEngine(ds, costs)},
		{"compact", core.NewEngineCompact(ds, costs)},
		{"pointer+delta", appended(func(d *traj.Dataset) index.Backend { return index.Build(d) })},
		{"compact+delta", appended(func(d *traj.Dataset) index.Backend { return index.FreezeDataset(d) })},
	}
}

// TestParallelismEquivalence is the cross-check the fan-out must pass:
// for seeded workloads, every cost model and every backend — pointer and
// compact, with an empty and a non-empty delta — Parallelism N returns
// exactly the Parallelism 1 answer: identical sorted matches, identical
// WED bits, identical candidate counts. The work threshold is zeroed so
// that N workers really run; CI runs it under -race, which also exercises
// them for data races.
func TestParallelismEquivalence(t *testing.T) {
	core.ForceFanOut(t)
	for _, seed := range []int64{21, 22} {
		env := testutil.NewEnv(seed, 40, 24)
		for _, m := range env.Models() {
			q := env.Query(m, 8)
			tau := oracleTaus(m.Costs, m.DS, q)[1]
			var first []traj.Match
			for i, ne := range fanOutEngines(m.DS, m.Costs) {
				label := m.Name + "/" + ne.name
				base, baseStats, err := ne.eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: 1})
				if err != nil {
					t.Fatalf("seed=%d %s: %v", seed, label, err)
				}
				if baseStats.Workers != 1 {
					t.Fatalf("%s: sequential path reported %d workers", label, baseStats.Workers)
				}
				if i == 0 {
					first = base
				}
				assertIdenticalResults(t, label+" vs pointer", base, first)
				for _, par := range []int{2, 3, 4, 8} {
					got, stats, err := ne.eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: par})
					if err != nil {
						t.Fatalf("seed=%d %s par=%d: %v", seed, label, par, err)
					}
					assertIdenticalResults(t, label+"/par", got, base)
					if stats.Candidates != baseStats.Candidates {
						t.Fatalf("%s par=%d: %d candidates, want %d", label, par, stats.Candidates, baseStats.Candidates)
					}
					if stats.Verify.ColumnsAvailable != baseStats.Verify.ColumnsAvailable {
						t.Fatalf("%s par=%d: ColumnsAvailable %d != %d", label, par, stats.Verify.ColumnsAvailable, baseStats.Verify.ColumnsAvailable)
					}
					if stats.Workers != par {
						t.Fatalf("%s par=%d: Workers = %d, want %d", label, par, stats.Workers, par)
					}
				}
			}
		}
	}
}

// TestParallelismEquivalenceModes covers the verification-mode ablations
// and the temporal constraint forms over the fan-out, on every backend.
func TestParallelismEquivalenceModes(t *testing.T) {
	core.ForceFanOut(t)
	env := testutil.NewEnv(23, 40, 24)
	m := env.Models()[1] // EDR
	q := env.Query(m, 8)
	tau := oracleTaus(m.Costs, m.DS, q)[2]

	for _, ne := range fanOutEngines(m.DS, m.Costs) {
		// fanned runs qr at Parallelism 1 and 3 and demands the same bits.
		fanned := func(label string, qr core.Query) {
			t.Helper()
			qr.Parallelism = 1
			base, _, err := ne.eng.SearchQuery(qr)
			if err != nil {
				t.Fatal(err)
			}
			qr.Parallelism = 3
			got, stats, err := ne.eng.SearchQuery(qr)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Workers != 3 {
				t.Fatalf("%s/%s: Workers = %d, want 3", ne.name, label, stats.Workers)
			}
			assertIdenticalResults(t, ne.name+"/"+label, got, base)
		}
		for _, mode := range []verify.Mode{verify.ModeBT, verify.ModeLocal, verify.ModeSW} {
			fanned("mode="+mode.String(), core.Query{Q: q, Tau: tau, Verify: verify.Options{Mode: mode}})
		}
		for _, mode := range []core.TemporalMode{core.TemporalOverlap, core.TemporalContain, core.TemporalDeparture} {
			for _, noPre := range []bool{false, true} {
				qr := core.Query{Q: q, Tau: tau}
				qr.Temporal.Mode = mode
				qr.Temporal.Lo, qr.Temporal.Hi = 0, 1800
				qr.Temporal.DisablePrefilter = noPre
				fanned("temporal", qr)
			}
		}
	}
}

// TestFanOutSizedByWork pins the selection itself, with the threshold in
// place: a query over a few dozen trajectories stays on the caller's
// goroutine whatever Parallelism allows, and Parallelism 1 is sequential
// whatever the work.
func TestFanOutSizedByWork(t *testing.T) {
	env := testutil.NewEnv(27, 40, 24)
	m := env.Models()[1]
	eng := core.NewEngine(m.DS, m.Costs)
	q := env.Query(m, 8)
	tau := oracleTaus(m.Costs, m.DS, q)[2]
	for _, par := range []int{0, 4} {
		_, st, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if st.Workers != 1 {
			t.Fatalf("par=%d: a %d-candidate query fanned out over %d workers", par, st.Candidates, st.Workers)
		}
		if _, st, err = eng.SearchTopKStats(q, 5, core.TopKOptions{Parallelism: par}); err != nil || st.Workers != 1 {
			t.Fatalf("par=%d: top-k over %d queued trajectories: %d workers, %v", par, st.TrajQueued, st.Workers, err)
		}
	}
	core.ForceFanOut(t)
	if _, st, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: 1}); err != nil || st.Workers != 1 {
		t.Fatalf("Parallelism 1 with the threshold zeroed: %d workers, %v", st.Workers, err)
	}
}

// panickyCosts wraps a cost model and panics on the Nth Sub call,
// simulating a broken user-supplied cost model.
type panickyCosts struct {
	wed.FilterCosts
	calls *int32
	after int32
}

func (p panickyCosts) Sub(a, b traj.Symbol) float64 {
	if atomic.AddInt32(p.calls, 1) > p.after {
		panic("cost model exploded")
	}
	return p.FilterCosts.Sub(a, b)
}

// TestShardWorkerPanicReachesCaller checks that a panic inside a fan-out
// worker re-raises on the query's own goroutine (where net/http-style
// recovery can catch it) instead of crashing the process from a bare
// goroutine — which would be untestable here.
func TestShardWorkerPanicReachesCaller(t *testing.T) {
	core.ForceFanOut(t)
	env := testutil.NewEnv(26, 40, 24)
	m := env.Models()[0]
	var calls int32
	costs := panickyCosts{FilterCosts: m.Costs, calls: &calls, after: 50}
	eng := core.NewEngine(m.DS, costs)
	q := env.Query(m, 8)
	tau := oracleTaus(m.Costs, m.DS, q)[1]

	defer func() {
		if p := recover(); p == nil {
			t.Fatal("worker panic did not propagate to the caller")
		}
	}()
	_, _, _ = eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: 4})
}

// TestSearchReturnsSortedMatches pins the ordering contract every caller
// relies on — and that the fan-out keeps by concatenation alone.
func TestSearchReturnsSortedMatches(t *testing.T) {
	core.ForceFanOut(t)
	env := testutil.NewEnv(25, 40, 24)
	for _, m := range env.Models()[:2] {
		eng := core.NewEngine(m.DS, m.Costs)
		q := env.Query(m, 8)
		tau := oracleTaus(m.Costs, m.DS, q)[2]
		for _, par := range []int{1, 4} {
			got, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(got); i++ {
				a, b := got[i-1], got[i]
				if a.ID > b.ID || (a.ID == b.ID && (a.S > b.S || (a.S == b.S && a.T >= b.T))) {
					t.Fatalf("%s par=%d: matches out of (ID,S,T) order at %d: %+v then %+v", m.Name, par, i, a, b)
				}
			}
		}
		exact, err := eng.SearchExact(q[:3])
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(exact); i++ {
			if exact[i-1].ID > exact[i].ID {
				t.Fatalf("SearchExact out of ID order at %d", i)
			}
		}
	}
}
