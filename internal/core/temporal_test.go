package core_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"subtraj/internal/baselines"
	"subtraj/internal/core"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
)

// temporalOracle filters the exhaustive result set by the exact endpoint
// constraint.
func temporalOracle(ds *traj.Dataset, ms []traj.Match, mode core.TemporalMode, lo, hi float64) []traj.Match {
	var out []traj.Match
	for _, m := range ms {
		t := ds.Get(m.ID)
		s, x := int(m.S), int(m.T)
		if ds.Rep == traj.EdgeRep {
			x++
		}
		if x >= len(t.Times) {
			x = len(t.Times) - 1
		}
		ts, te := t.Times[s], t.Times[x]
		keep := false
		switch mode {
		case core.TemporalOverlap:
			keep = ts <= hi && te >= lo
		case core.TemporalContain:
			keep = ts >= lo && te <= hi
		case core.TemporalDeparture:
			keep = t.Times[0] >= lo && t.Times[0] <= hi
		}
		if keep {
			out = append(out, m)
		}
	}
	return out
}

func TestTemporalSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, seed := range []int64{1, 2} {
		env := testutil.NewEnv(seed+50, 40, 22)
		for _, m := range env.Models() {
			eng := core.NewEngine(m.DS, m.Costs)
			q := env.Query(m, 8)
			tau := oracleTaus(m.Costs, m.DS, q)[2]
			all := baselines.PlainSW(m.Costs, m.DS, q, tau).Matches
			for trial := 0; trial < 4; trial++ {
				lo := rng.Float64() * 3000
				hi := lo + rng.Float64()*1200
				for _, mode := range []core.TemporalMode{core.TemporalOverlap, core.TemporalContain, core.TemporalDeparture} {
					want := temporalOracle(m.DS, all, mode, lo, hi)
					for _, noTF := range []bool{false, true} {
						qr := core.Query{Q: q, Tau: tau}
						qr.Temporal.Mode = mode
						qr.Temporal.Lo, qr.Temporal.Hi = lo, hi
						qr.Temporal.DisablePrefilter = noTF
						got, stats, err := eng.SearchQuery(qr)
						if err != nil {
							t.Fatalf("%s: %v", m.Name, err)
						}
						assertSameMatches(t, m.Name+"/temporal", got, want)
						if !noTF && stats.Candidates > 0 {
							// TF must not generate more candidates than no-TF.
							qr.Temporal.DisablePrefilter = true
							_, noTFStats, err := eng.SearchQuery(qr)
							if err != nil {
								t.Fatal(err)
							}
							if stats.Candidates > noTFStats.Candidates {
								t.Fatalf("%s: TF %d candidates > no-TF %d", m.Name, stats.Candidates, noTFStats.Candidates)
							}
						}
					}
				}
			}
		}
	}
}

func TestTemporalNoDataRejectsAll(t *testing.T) {
	// A dataset without timestamps can never satisfy a temporal
	// constraint.
	rng := rand.New(rand.NewSource(78))
	rc := testutil.NewRandomCosts(rng, 6, 0)
	ds := testutil.RandomDataset(rng, 6, 10, 12)
	eng := core.NewEngine(ds, rc)
	q := []traj.Symbol{0, 1, 2}
	taus := oracleTaus(rc, ds, q)
	qr := core.Query{Q: q, Tau: taus[2]}
	qr.Temporal.Mode = core.TemporalOverlap
	qr.Temporal.Lo, qr.Temporal.Hi = 0, 1e18
	got, _, err := eng.SearchQuery(qr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("%d matches without temporal data", len(got))
	}
}

// TestFirstDepartureQueryConcurrent: the departure-sorted order is built
// lazily, by whichever query needs it first. Many goroutines issuing that
// first query at once against a fresh base — with an unfolded delta on
// top, and a Snapshot sharing the base — must all get the answer of an
// engine prepared up front, with the order built exactly once (run under
// -race: in the library Engine this used to be a documented data race).
func TestFirstDepartureQueryConcurrent(t *testing.T) {
	env := testutil.NewEnv(61, 60, 22)
	m := env.Models()[1] // EDR
	q := env.Query(m, 8)
	qr := core.Query{Q: q, Tau: oracleTaus(m.Costs, m.DS, q)[2], Parallelism: 1}
	qr.Temporal.Mode = core.TemporalDeparture
	qr.Temporal.Lo, qr.Temporal.Hi = 0, 2400
	prepared := core.NewEngine(m.DS, m.Costs)
	prepared.PrepareTemporal()
	want, _, err := prepared.SearchQuery(qr)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the departure window matches nothing: pick another")
	}
	for _, bf := range baseFamilies {
		half := m.DS.Len() / 2
		partial := &traj.Dataset{Rep: m.DS.Rep, Trajs: append([]traj.Trajectory(nil), m.DS.Trajs[:half]...)}
		eng := core.NewEngineWithBackend(partial, bf.build(partial), m.Costs)
		for _, tr := range m.DS.Trajs[half:] {
			eng.Append(tr)
		}
		if bf.name != "compact" && eng.Backend().TemporalReady() {
			t.Fatalf("%s: temporal order ready before any query asked for it", bf.name)
		}
		snap := eng.Snapshot()
		const workers = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(e *core.Engine) {
				defer wg.Done()
				<-start
				got, _, err := e.SearchQuery(qr)
				if err != nil {
					t.Errorf("%s: %v", bf.name, err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: first departure query differs from the prepared engine's\n got %v\nwant %v", bf.name, got, want)
				}
			}([]*core.Engine{eng, snap}[w%2])
		}
		close(start)
		wg.Wait()
		if !eng.Backend().TemporalReady() || !snap.Backend().TemporalReady() {
			t.Fatalf("%s: temporal order not ready after departure queries", bf.name)
		}
	}
}
