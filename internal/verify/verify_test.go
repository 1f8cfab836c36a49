package verify_test

import (
	"math"
	"testing"

	"subtraj/internal/baselines"
	"subtraj/internal/filter"
	"subtraj/internal/index"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/wed"
)

// run verifies all plan candidates under the given options.
func run(m testutil.Model, inv *index.Compact, q []traj.Symbol, tau float64, opts verify.Options) (*verify.Verifier, []traj.Match) {
	plan, err := filter.BuildPlan(m.Costs, inv, q, tau)
	if err != nil {
		panic(err)
	}
	v := verify.New(m.Costs, m.DS, q, tau, opts)
	for _, c := range plan.Candidates(inv, nil) {
		// Field by field: subtrajlint's loader resolves filter's alias
		// against verify's export data, a different type identity from
		// the package under test.
		v.Verify(verify.Candidate{ID: c.ID, Pos: c.Pos, IQ: c.IQ})
	}
	return v, v.Results()
}

func feasibleTau(m testutil.Model, q []traj.Symbol, ratio float64) float64 {
	var c float64
	for _, sym := range q {
		c += m.Costs.FilterCost(sym)
	}
	return ratio * c
}

func TestEarlyTerminationReducesWork(t *testing.T) {
	env := testutil.NewEnv(22, 40, 25)
	m := env.Models()[1] // EDR
	inv := index.Build(m.DS)
	q := env.Query(m, 10)
	tau := feasibleTau(m, q, 0.15)
	with, withRes := run(m, inv, q, tau, verify.Options{})
	without, withoutRes := run(m, inv, q, tau, verify.Options{DisableEarlyTermination: true})
	if with.Stats.ColumnsVisited >= without.Stats.ColumnsVisited {
		t.Fatalf("early termination saved nothing: %d vs %d", with.Stats.ColumnsVisited, without.Stats.ColumnsVisited)
	}
	if len(withRes) != len(withoutRes) {
		t.Fatalf("early termination changed results: %d vs %d", len(withRes), len(withoutRes))
	}
}

func TestStatsRatesAreRates(t *testing.T) {
	env := testutil.NewEnv(23, 40, 25)
	m := env.Models()[0]
	inv := index.Build(m.DS)
	q := env.Query(m, 8)
	tau := feasibleTau(m, q, 0.3)
	v, _ := run(m, inv, q, tau, verify.Options{})
	s := v.Stats
	for name, r := range map[string]float64{"UPR": s.UPR(), "CMR": s.CMR(), "band ratio": s.BandRatio()} {
		if r < 0 || r > 1 || math.IsNaN(r) {
			t.Fatalf("%s out of range: %v", name, r)
		}
	}
	if s.Candidates == 0 || s.ColumnsVisited == 0 {
		t.Fatal("no column visited")
	}
	// No column is cached: every visited column is one StepDP call.
	if s.StepDPCalls != s.ColumnsVisited || s.TrieNodes != 0 {
		t.Fatalf("stepDP=%d visited=%d trie nodes=%d, want stepDP = visited and no nodes", s.StepDPCalls, s.ColumnsVisited, s.TrieNodes)
	}
}

func TestVerifierDeduplicatesAcrossCandidates(t *testing.T) {
	// A match covered by several candidates must appear exactly once,
	// with the minimal (exact) WED.
	env := testutil.NewEnv(24, 40, 25)
	for _, m := range env.Models() {
		inv := index.Build(m.DS)
		q := env.Query(m, 6)
		tau := feasibleTau(m, q, 0.6)
		if wed.SumIns(m.Costs, q) <= tau {
			tau = wed.SumIns(m.Costs, q) * 0.9
		}
		_, res := run(m, inv, q, tau, verify.Options{})
		seen := map[traj.MatchKey]bool{}
		for _, r := range res {
			if seen[r.Key()] {
				t.Fatalf("%s: duplicate %+v", m.Name, r)
			}
			seen[r.Key()] = true
			p := m.DS.Path(r.ID)[r.S : r.T+1]
			exact := wed.Dist(m.Costs, p, q)
			if math.Abs(exact-r.WED) > 1e-9*(1+exact) {
				t.Fatalf("%s: WED %v != exact %v", m.Name, r.WED, exact)
			}
		}
	}
}

func TestVerifierSoundOnArbitraryCandidates(t *testing.T) {
	// Soundness must not depend on the filter: feeding duplicate and
	// arbitrary (even non-neighbour) candidates never creates a false
	// match, and feeding the FULL candidate grid (every position ×
	// every iq) recovers exactly the oracle result set — verification
	// alone is complete when given complete candidates.
	env := testutil.NewEnv(26, 12, 14)
	for _, m := range env.Models() {
		q := env.Query(m, 6)
		tau := feasibleTau(m, q, 0.5)
		if s := wed.SumIns(m.Costs, q); tau >= s {
			tau = 0.9 * s
		}
		want := baselines.PlainSW(m.Costs, m.DS, q, tau).Matches
		wantSet := map[traj.MatchKey]float64{}
		for _, w := range want {
			wantSet[w.Key()] = w.WED
		}
		v := verify.New(m.Costs, m.DS, q, tau, verify.Options{})
		for id := range m.DS.Trajs {
			p := m.DS.Trajs[id].Path
			for pos := range p {
				for iq := range q {
					v.Verify(verify.Candidate{ID: int32(id), Pos: int32(pos), IQ: int32(iq)})
					if pos%3 == 0 {
						// Duplicate feeding must be harmless.
						v.Verify(verify.Candidate{ID: int32(id), Pos: int32(pos), IQ: int32(iq)})
					}
				}
			}
		}
		res := v.Results()
		if len(res) != len(want) {
			t.Fatalf("%s: full-grid verification found %d matches, oracle %d", m.Name, len(res), len(want))
		}
		for _, r := range res {
			w, ok := wantSet[r.Key()]
			if !ok {
				t.Fatalf("%s: false match %+v", m.Name, r)
			}
			if diff := r.WED - w; diff > 1e-9*(1+w) || diff < -1e-9*(1+w) {
				t.Fatalf("%s: wed %v != %v", m.Name, r.WED, w)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if verify.ModeLocal.String() != "Local" || verify.ModeSW.String() != "SW" || verify.Mode(9).String() != "Mode(?)" {
		t.Fatal("mode names")
	}
}

func TestSWModeCountsDistinctTrajectories(t *testing.T) {
	env := testutil.NewEnv(25, 30, 20)
	m := env.Models()[0]
	inv := index.Build(m.DS)
	q := env.Query(m, 6)
	tau := feasibleTau(m, q, 0.4)
	v, res := run(m, inv, q, tau, verify.Options{Mode: verify.ModeSW})
	// Results must agree with the oracle.
	want := baselines.PlainSW(m.Costs, m.DS, q, tau).Matches
	if len(res) != len(want) {
		// The filter prunes trajectories, but every match must survive.
		wantSet := map[traj.MatchKey]bool{}
		for _, w := range want {
			wantSet[w.Key()] = true
		}
		for _, r := range res {
			if !wantSet[r.Key()] {
				t.Fatalf("spurious %+v", r)
			}
		}
		t.Fatalf("SW mode results %d != oracle %d", len(res), len(want))
	}
	if v.Stats.Candidates == 0 {
		t.Fatal("no candidates")
	}
}
