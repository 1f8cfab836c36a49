package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"subtraj/internal/baselines"
	"subtraj/internal/core"
	"subtraj/internal/index"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/wed"
)

func approxEq(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// assertSameMatches fails unless both match sets contain exactly the same
// (ID, S, T) triples with equal WED values.
func assertSameMatches(t *testing.T, label string, got, want []traj.Match) {
	t.Helper()
	wantSet := make(map[traj.MatchKey]float64, len(want))
	for _, m := range want {
		wantSet[m.Key()] = m.WED
	}
	gotSet := make(map[traj.MatchKey]float64, len(got))
	for _, m := range got {
		if _, dup := gotSet[m.Key()]; dup {
			t.Fatalf("%s: duplicate match %+v", label, m)
		}
		gotSet[m.Key()] = m.WED
	}
	for k, w := range wantSet {
		g, ok := gotSet[k]
		if !ok {
			t.Fatalf("%s: missing match %+v (wed=%v); got %d matches, want %d", label, k, w, len(got), len(want))
		}
		if !approxEq(g, w) {
			t.Fatalf("%s: wed mismatch at %+v: got %v want %v", label, k, g, w)
		}
	}
	for k, g := range gotSet {
		if _, ok := wantSet[k]; !ok {
			t.Fatalf("%s: spurious match %+v (wed=%v)", label, k, g)
		}
	}
}

// oracleTaus runs the exhaustive oracle once with a large τ to collect the
// distance distribution, then derives safe test thresholds at several
// quantiles. Thresholds are capped at the feasible range: the filtering
// principle requires τ ≤ c(Q) (a τ-subsequence must exist, §3.1) and the
// problem definition requires τ ≤ wed(ε, Q) (§2.3) — the paper's
// τ = τ_ratio·Σc(q) with τ_ratio ≤ 1 guarantees both.
func oracleTaus(costs wed.FilterCosts, ds *traj.Dataset, q []traj.Symbol) []float64 {
	maxTau := wed.SumIns(costs, q)
	if cq := core.SumFilterCost(costs, q); cq < maxTau {
		maxTau = cq
	}
	var weds []float64
	for id := range ds.Trajs {
		for _, m := range wed.AllMatches(costs, q, ds.Trajs[id].Path, maxTau) {
			weds = append(weds, m.WED)
		}
	}
	var taus []float64
	for _, quant := range []float64{0.05, 0.3, 0.7} {
		taus = append(taus, testutil.PickTau(weds, quant, maxTau))
	}
	return taus
}

// TestEngineMatchesOracle is the central exactness test: for every cost
// model, every verification mode, and several thresholds, the engine's
// result set must equal the exhaustive scan of Definition 3.
func TestEngineMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		env := testutil.NewEnv(seed, 35, 22)
		for _, m := range env.Models() {
			eng := core.NewEngine(m.DS, m.Costs)
			for qi := 0; qi < 2; qi++ {
				q := env.Query(m, 8)
				for _, tau := range oracleTaus(m.Costs, m.DS, q) {
					want := baselines.PlainSW(m.Costs, m.DS, q, tau).Matches
					for _, mode := range []verify.Mode{verify.ModeLocal, verify.ModeSW} {
						got, stats, err := eng.SearchQuery(core.Query{
							Q: q, Tau: tau,
							Verify: verify.Options{Mode: mode},
						})
						if err != nil {
							t.Fatalf("seed=%d model=%s mode=%v tau=%v: %v", seed, m.Name, mode, tau, err)
						}
						label := m.Name + "/" + mode.String()
						assertSameMatches(t, label, got, want)
						if stats.Candidates < len(uniqueIDs(want)) && len(want) > 0 {
							t.Fatalf("%s: candidate count %d below matched trajectory count %d", label, stats.Candidates, len(uniqueIDs(want)))
						}
					}
				}
			}
		}
	}
}

func uniqueIDs(ms []traj.Match) map[int32]bool {
	u := make(map[int32]bool)
	for _, m := range ms {
		u[m.ID] = true
	}
	return u
}

// TestEngineMatchesOracleRandomCosts stresses the engine with adversarial
// random cost tables (no road-network structure at all).
func TestEngineMatchesOracleRandomCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		rc := testutil.NewRandomCosts(rng, 8, 0.3)
		ds := testutil.RandomDataset(rng, 8, 25, 18)
		eng := core.NewEngine(ds, rc)
		q := make([]traj.Symbol, 5+rng.Intn(4))
		for i := range q {
			q[i] = traj.Symbol(rng.Intn(8))
		}
		for _, tau := range oracleTaus(rc, ds, q) {
			want := baselines.PlainSW(rc, ds, q, tau).Matches
			got, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			assertSameMatches(t, "random-costs", got, want)
		}
	}
}

// TestBaselinesMatchOracle checks that every filter-and-verify baseline is
// exact, as the paper requires for a fair comparison.
func TestBaselinesMatchOracle(t *testing.T) {
	env := testutil.NewEnv(7, 30, 20)
	for _, m := range env.Models() {
		inv := index.Build(m.DS)
		q := env.Query(m, 8)
		for _, tau := range oracleTaus(m.Costs, m.DS, q) {
			want := baselines.PlainSW(m.Costs, m.DS, q, tau).Matches
			for _, vm := range []verify.Mode{verify.ModeLocal, verify.ModeSW} {
				vo := verify.Options{Mode: vm}
				d := baselines.DISON(m.Costs, m.DS, inv, q, tau, vo)
				assertSameMatches(t, m.Name+"/DISON-"+vm.String(), d.Matches, want)
				to := baselines.Torch(m.Costs, m.DS, inv, q, tau, vo)
				assertSameMatches(t, m.Name+"/Torch-"+vm.String(), to.Matches, want)
			}
		}
	}
}

func TestQGramMatchesOracle(t *testing.T) {
	env := testutil.NewEnv(8, 30, 20)
	for _, m := range env.Models() {
		if m.Name != "EDR" && m.Name != "Lev" {
			continue // q-gram counting requires unit costs
		}
		gi := baselines.NewQGramIndex(m.Costs, m.DS, 3)
		q := env.Query(m, 8)
		for _, tau := range oracleTaus(m.Costs, m.DS, q) {
			want := baselines.PlainSW(m.Costs, m.DS, q, tau).Matches
			got := gi.Search(q, tau)
			assertSameMatches(t, m.Name+"/qgram", got.Matches, want)
		}
	}
}

func TestEnumerationBaselinesMatchOracle(t *testing.T) {
	env := testutil.NewEnv(9, 12, 14) // tiny: subtrajectory enumeration
	inv := index.Build(env.V)
	for _, m := range env.Models() {
		switch m.Name {
		case "EDR":
			d := baselines.NewDITA(m.Costs, m.DS, 5,
				baselines.FrequencyScore(func(s traj.Symbol) int { return inv.Freq(s) }))
			q := env.Query(m, 6)
			for _, tau := range oracleTaus(m.Costs, m.DS, q) {
				want := baselines.PlainSW(m.Costs, m.DS, q, tau).Matches
				got := d.Search(q, tau)
				assertSameMatches(t, "DITA/EDR", got.Matches, want)
			}
		case "ERP":
			d := baselines.NewDITA(m.Costs, m.DS, 5, baselines.DeletionCostScore(m.Costs))
			e := baselines.NewERPIndex(m.Costs, m.DS, env.G.Coords(), env.G.Barycenter())
			q := env.Query(m, 6)
			for _, tau := range oracleTaus(m.Costs, m.DS, q) {
				want := baselines.PlainSW(m.Costs, m.DS, q, tau).Matches
				assertSameMatches(t, "DITA/ERP", d.Search(q, tau).Matches, want)
				assertSameMatches(t, "ERPIndex", e.Search(q, tau).Matches, want)
			}
		}
	}
}

// TestVerifyAblations checks that disabling early termination does not
// change results (it only costs time).
func TestVerifyAblations(t *testing.T) {
	env := testutil.NewEnv(10, 30, 20)
	for _, m := range env.Models() {
		eng := core.NewEngine(m.DS, m.Costs)
		q := env.Query(m, 8)
		taus := oracleTaus(m.Costs, m.DS, q)
		tau := taus[1]
		base, baseStats, err := eng.SearchQuery(core.Query{Q: q, Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		noET, noETStats, err := eng.SearchQuery(core.Query{
			Q: q, Tau: tau,
			Verify: verify.Options{DisableEarlyTermination: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, m.Name+"/noET", noET, base)
		if noETStats.Verify.ColumnsVisited < baseStats.Verify.ColumnsVisited {
			t.Fatalf("%s: disabling early termination reduced visited columns (%d < %d)",
				m.Name, noETStats.Verify.ColumnsVisited, baseStats.Verify.ColumnsVisited)
		}
	}
}

func TestEngineRejectsDegenerateQueries(t *testing.T) {
	env := testutil.NewEnv(11, 10, 12)
	m := env.Models()[0]
	eng := core.NewEngine(m.DS, m.Costs)
	if _, _, err := eng.SearchQuery(core.Query{Q: nil, Tau: 1}); err == nil {
		t.Error("empty query accepted")
	}
	q := env.Query(m, 5)
	// τ above wed(ε, Q) must be rejected (§2.3's meaningfulness guard).
	tooBig := wed.SumIns(m.Costs, q) + 1
	if _, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tooBig}); err == nil {
		t.Error("degenerate τ accepted")
	}
}

// bitEqual demands byte-for-byte identical match slices: same order, same
// (ID, S, T), same WED bits.
func bitEqual(t *testing.T, label string, got, want []traj.Match) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result not bit-equal\n got %v\nwant %v", label, got, want)
	}
}

// assertEnginesAgree demands bit-equal answers from got and want over
// every query form: threshold search at Parallelism 1 and 4 under no
// temporal constraint and each of the three temporal modes (with and
// without the candidate pre-filter, two windows), and top-k.
func assertEnginesAgree(t *testing.T, label string, got, want *core.Engine, q []traj.Symbol, tau float64) {
	t.Helper()
	for _, par := range []int{1, 4} {
		for _, tm := range []core.TemporalMode{core.TemporalNone, core.TemporalOverlap, core.TemporalContain, core.TemporalDeparture} {
			for _, w := range [][2]float64{{0, 1e9}, {800, 2400}} {
				for _, noTF := range []bool{false, true} {
					qr := core.Query{Q: q, Tau: tau, Parallelism: par}
					qr.Temporal.Mode = tm
					qr.Temporal.Lo, qr.Temporal.Hi = w[0], w[1]
					qr.Temporal.DisablePrefilter = noTF
					wres, wstats, err := want.SearchQuery(qr)
					if err != nil {
						t.Fatalf("%s: oracle: %v", label, err)
					}
					gres, gstats, err := got.SearchQuery(qr)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					bitEqual(t, fmt.Sprintf("%s/par=%d/mode=%d/window=%v/noTF=%v", label, par, tm, w, noTF), gres, wres)
					if gstats.Candidates != wstats.Candidates {
						t.Fatalf("%s: %d candidates, want %d", label, gstats.Candidates, wstats.Candidates)
					}
				}
			}
		}
		for _, k := range []int{1, 5} {
			wres, _, err := want.SearchTopKStats(q, k, core.TopKOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("%s: oracle topk: %v", label, err)
			}
			gres, _, err := got.SearchTopKStats(q, k, core.TopKOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("%s: topk: %v", label, err)
			}
			bitEqual(t, fmt.Sprintf("%s/topk=%d/par=%d", label, k, par), gres, wres)
		}
	}
}

// TestEngineAppendIsIncremental is the ingest-equivalence table. For every
// cost model, an engine built over the first half of a dataset and
// Appended the rest must answer bit-equal to a fresh engine over the whole
// dataset, before and after it is rebased onto a rebuilt arena; and a
// Snapshot taken mid-stream must keep answering for exactly the prefix it
// saw, whatever the writer does afterwards.
func TestEngineAppendIsIncremental(t *testing.T) {
	core.ForceFanOut(t) // Parallelism 4 below means four workers
	env := testutil.NewEnv(12, 40, 20)
	for _, m := range env.Models() {
		n := m.DS.Len()
		half, midLen := n/2, n/2+n/4
		full := core.NewEngine(m.DS, m.Costs)
		midFull := core.NewEngine(m.DS.Slice(midLen), m.Costs)
		// Two queries: one sampled anywhere, one cut from the longest
		// appended trajectory, so every model has matches on both sides
		// of the base boundary.
		longest := half
		for id := half; id < n; id++ {
			if len(m.DS.Trajs[id].Path) > len(m.DS.Trajs[longest].Path) {
				longest = id
			}
		}
		late := m.DS.Trajs[longest].Path
		queries := [][]traj.Symbol{env.Query(m, 8), late[:min(8, len(late))]}
		label := m.Name
		partial := &traj.Dataset{Rep: m.DS.Rep}
		for i := 0; i < half; i++ {
			partial.Add(m.DS.Trajs[i])
		}
		eng := core.NewEngineWithBackend(partial, index.Build(partial), m.Costs)
		for i := half; i < midLen; i++ {
			if id := eng.Append(m.DS.Trajs[i]); int(id) != i {
				t.Fatalf("%s: Append returned ID %d, want %d", label, id, i)
			}
		}
		mid := eng.Snapshot()
		if ids := eng.AppendBatch(m.DS.Trajs[midLen:]); len(ids) != n-midLen || int(ids[0]) != midLen {
			t.Fatalf("%s: AppendBatch returned IDs %v, want %d..%d", label, ids, midLen, n-1)
		}
		if eng.DeltaLen() != n-half || mid.DeltaLen() != midLen-half || mid.Dataset().Len() != midLen {
			t.Fatalf("%s: delta %d (snapshot %d of %d trajectories), want %d (%d of %d)",
				label, eng.DeltaLen(), mid.DeltaLen(), mid.Dataset().Len(), n-half, midLen-half, midLen)
		}
		agree := func(stage string) {
			for _, q := range queries {
				tau := oracleTaus(m.Costs, m.DS, q)[2]
				assertEnginesAgree(t, label+"/"+stage, eng, full, q, tau)
				assertEnginesAgree(t, label+"/snapshot-when-"+stage, mid, midFull, q, tau)
			}
		}
		agree("appended")

		eng.Rebase(index.Build(eng.Dataset()))
		if eng.DeltaLen() != 0 || eng.Backend().NumShards() != 1 {
			t.Fatalf("%s: after rebase delta %d, %d posting sources", label, eng.DeltaLen(), eng.Backend().NumShards())
		}
		agree("rebased")
	}
}

// TestEngineEdgeRepresentationLev runs the engine over the edge
// representation with Levenshtein costs (the paper: "This can be used for
// both the vertex and edge representations").
func TestEngineEdgeRepresentationLev(t *testing.T) {
	env := testutil.NewEnv(14, 30, 20)
	lev := wed.NewLev()
	eng := core.NewEngine(env.E, lev)
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 3; trial++ {
		var q []traj.Symbol
		for attempts := 0; attempts < 100; attempts++ {
			id := rng.Intn(env.E.Len())
			p := env.E.Trajs[id].Path
			if len(p) < 8 {
				continue
			}
			s := rng.Intn(len(p) - 7)
			q = append([]traj.Symbol(nil), p[s:s+8]...)
			break
		}
		if q == nil {
			t.Skip("no long-enough edge trajectory")
		}
		for _, tau := range oracleTaus(lev, env.E, q) {
			want := baselines.PlainSW(lev, env.E, q, tau).Matches
			got, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau})
			if err != nil {
				t.Fatal(err)
			}
			assertSameMatches(t, "edge-rep/Lev", got, want)
		}
	}
}

// TestEngineMatchesOracleLargerScale guards against scaling bugs
// (overflow, cache corruption across many candidates) with a dataset an
// order of magnitude larger than the other equivalence tests.
func TestEngineMatchesOracleLargerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("larger-scale equivalence test skipped in -short mode")
	}
	env := testutil.NewEnv(99, 250, 40)
	for _, m := range env.Models() {
		if m.Name == "NetEDR" || m.Name == "NetERP" {
			continue // full oracle scans with hub-label Sub are slow; covered at small scale
		}
		eng := core.NewEngine(m.DS, m.Costs)
		q := env.Query(m, 16)
		tau := oracleTaus(m.Costs, m.DS, q)[1]
		want := baselines.PlainSW(m.Costs, m.DS, q, tau).Matches
		got, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		assertSameMatches(t, m.Name+"/large", got, want)
	}
}

// TestMatchesAreWithinThreshold verifies the strict inequality of
// Definition 2 and that reported WEDs are exact recomputations.
func TestMatchesAreWithinThreshold(t *testing.T) {
	env := testutil.NewEnv(13, 30, 20)
	for _, m := range env.Models() {
		eng := core.NewEngine(m.DS, m.Costs)
		q := env.Query(m, 8)
		tau := oracleTaus(m.Costs, m.DS, q)[2]
		got, err := eng.Search(q, tau)
		if err != nil {
			t.Fatal(err)
		}
		for _, mt := range got {
			if mt.WED >= tau {
				t.Fatalf("%s: match %+v at wed=%v ≥ τ=%v", m.Name, mt, mt.WED, tau)
			}
			p := m.DS.Path(mt.ID)[mt.S : mt.T+1]
			if d := wed.Dist(m.Costs, p, q); !approxEq(d, mt.WED) {
				t.Fatalf("%s: reported wed %v != recomputed %v", m.Name, mt.WED, d)
			}
		}
	}
}
