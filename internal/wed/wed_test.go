package wed_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"subtraj/internal/simfuncs"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

const epsRel = 1e-9

func approxEq(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= epsRel*(1+math.Abs(a)+math.Abs(b))
}

// refLevenshtein is an independent classic implementation.
func refLevenshtein(a, b []traj.Symbol) int {
	m, n := len(a), len(b)
	d := make([][]int, m+1)
	for i := range d {
		d[i] = make([]int, n+1)
		d[i][0] = i
	}
	for j := 0; j <= n; j++ {
		d[0][j] = j
	}
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			c := 1
			if a[i-1] == b[j-1] {
				c = 0
			}
			v := d[i-1][j-1] + c
			if d[i-1][j]+1 < v {
				v = d[i-1][j] + 1
			}
			if d[i][j-1]+1 < v {
				v = d[i][j-1] + 1
			}
			d[i][j] = v
		}
	}
	return d[m][n]
}

func randString(rng *rand.Rand, alpha, maxLen int) []traj.Symbol {
	n := rng.Intn(maxLen + 1)
	s := make([]traj.Symbol, n)
	for i := range s {
		s[i] = traj.Symbol(rng.Intn(alpha))
	}
	return s
}

func TestLevMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lev := wed.NewLev()
	for i := 0; i < 300; i++ {
		a := randString(rng, 5, 12)
		b := randString(rng, 5, 12)
		got := wed.Dist(lev, a, b)
		want := float64(refLevenshtein(a, b))
		if got != want {
			t.Fatalf("Lev(%v,%v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestDistAxiomsPropertyRandomCosts(t *testing.T) {
	// Property: for any cost table satisfying the §2.2 assumptions,
	// wed is non-negative, symmetric, and wed(P,P) = 0 (Proposition 1).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		rc := testutil.NewRandomCosts(rng, 6, 0)
		f := func(aRaw, bRaw []uint8) bool {
			a := toSyms(aRaw, rc.N)
			b := toSyms(bRaw, rc.N)
			ab := wed.Dist(rc, a, b)
			ba := wed.Dist(rc, b, a)
			if ab < 0 {
				return false
			}
			if !approxEq(ab, ba) {
				return false
			}
			if wed.Dist(rc, a, a) != 0 {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func toSyms(raw []uint8, alpha int) []traj.Symbol {
	s := make([]traj.Symbol, len(raw))
	for i, r := range raw {
		s[i] = traj.Symbol(int(r) % alpha)
	}
	return s
}

func TestDistEmptyStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rc := testutil.NewRandomCosts(rng, 5, 0)
	a := []traj.Symbol{1, 2, 3}
	if got, want := wed.Dist(rc, nil, a), wed.SumIns(rc, a); !approxEq(got, want) {
		t.Errorf("Dist(ε, a) = %v, want ΣIns = %v", got, want)
	}
	if got, want := wed.Dist(rc, a, nil), wed.SumDel(rc, a); !approxEq(got, want) {
		t.Errorf("Dist(a, ε) = %v, want ΣDel = %v", got, want)
	}
	if got := wed.Dist(rc, nil, nil); got != 0 {
		t.Errorf("Dist(ε, ε) = %v, want 0", got)
	}
}

func TestDistTriangleInequalityERP(t *testing.T) {
	// ERP is a metric (§2.2.2): check the triangle inequality on random
	// strings over a generated network.
	env := testutil.NewEnv(4, 30, 20)
	models := env.Models()
	var erp testutil.Model
	for _, m := range models {
		if m.Name == "ERP" {
			erp = m
		}
	}
	for i := 0; i < 100; i++ {
		a := env.RandomString(erp, env.Rng.Intn(8))
		b := env.RandomString(erp, env.Rng.Intn(8))
		c := env.RandomString(erp, env.Rng.Intn(8))
		ab := wed.Dist(erp.Costs, a, b)
		bc := wed.Dist(erp.Costs, b, c)
		ac := wed.Dist(erp.Costs, a, c)
		if ac > ab+bc+1e-9 {
			t.Fatalf("ERP triangle violated: d(a,c)=%v > d(a,b)+d(b,c)=%v", ac, ab+bc)
		}
	}
}

func TestEDRNotExceedingLev(t *testing.T) {
	// EDR's substitution cost is ≤ Lev's, so EDR ≤ Lev pointwise.
	env := testutil.NewEnv(5, 30, 20)
	var edr testutil.Model
	for _, m := range env.Models() {
		if m.Name == "EDR" {
			edr = m
		}
	}
	lev := wed.NewLev()
	for i := 0; i < 100; i++ {
		a := env.RandomString(edr, env.Rng.Intn(10))
		b := env.RandomString(edr, env.Rng.Intn(10))
		if e, l := wed.Dist(edr.Costs, a, b), wed.Dist(lev, a, b); e > l+1e-12 {
			t.Fatalf("EDR(%v) > Lev(%v)", e, l)
		}
	}
}

func TestSURSEqualsUnsharedWeight(t *testing.T) {
	// Appendix F: SURS(x,y) = w(x) + w(y) − 2·LORS(x,y), where LORS is
	// the weighted LCS under road lengths.
	env := testutil.NewEnv(6, 30, 20)
	var surs testutil.Model
	for _, m := range env.Models() {
		if m.Name == "SURS" {
			surs = m
		}
	}
	weight := func(s traj.Symbol) float64 { return env.G.Edge(s).Weight }
	for i := 0; i < 200; i++ {
		a := env.RandomString(surs, env.Rng.Intn(12))
		b := env.RandomString(surs, env.Rng.Intn(12))
		got := wed.Dist(surs.Costs, a, b)
		lors := simfuncs.LORS(a, b, weight)
		want := simfuncs.SumWeights(a, weight) + simfuncs.SumWeights(b, weight) - 2*lors
		if !approxEq(got, want) {
			t.Fatalf("SURS(%v,%v) = %v, want w+w-2·LORS = %v", a, b, got, want)
		}
	}
}

func TestSURSPaperExample(t *testing.T) {
	// Example 1: P = befg, Q = abcdg; SURS = w(a)+w(c)+w(d)+w(e)+w(f).
	w := []float64{1, 2, 4, 8, 16, 32, 64} // a..g
	s := wed.NewSURS(w)
	const (
		a = iota
		b
		c
		d
		e
		f
		g
	)
	p := []traj.Symbol{b, e, f, g}
	q := []traj.Symbol{a, b, c, d, g}
	got := wed.Dist(s, p, q)
	want := w[a] + w[c] + w[d] + w[e] + w[f]
	if !approxEq(got, want) {
		t.Fatalf("SURS example: got %v want %v", got, want)
	}
}

func TestStepDPMatchesMatrix(t *testing.T) {
	// StepDP column k must equal DistMatrix row k (prefix semantics).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rc := testutil.NewRandomCosts(rng, 5, 0)
		p := randString(rng, 5, 10)
		q := randString(rng, 5, 8)
		m := wed.DistMatrix(rc, p, q)
		col := make([]float64, len(q)+1)
		copy(col, m[0])
		for k, sym := range p {
			col = wed.StepDP(rc, q, sym, col, make([]float64, len(q)+1))
			for j := range col {
				if !approxEq(col[j], m[k+1][j]) {
					t.Fatalf("StepDP mismatch at k=%d j=%d: %v vs %v", k+1, j, col[j], m[k+1][j])
				}
			}
		}
	}
}

func TestDistMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 80; trial++ {
		rc := testutil.NewRandomCosts(rng, 6, 0)
		p := randString(rng, 6, 12)
		q := randString(rng, 6, 12)
		m := wed.DistMatrix(rc, p, q)
		if got := wed.Dist(rc, p, q); !approxEq(got, m[len(p)][len(q)]) {
			t.Fatalf("Dist %v != matrix %v", got, m[len(p)][len(q)])
		}
	}
}

func TestReversalInvariance(t *testing.T) {
	// wed(reverse(P), reverse(Q)) == wed(P, Q): the property underlying
	// backward verification (§5.1).
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 80; trial++ {
		rc := testutil.NewRandomCosts(rng, 6, 0)
		p := randString(rng, 6, 12)
		q := randString(rng, 6, 12)
		pr := reversed(p)
		qr := reversed(q)
		if a, b := wed.Dist(rc, p, q), wed.Dist(rc, pr, qr); !approxEq(a, b) {
			t.Fatalf("reversal changed WED: %v vs %v", a, b)
		}
	}
}

func reversed(s []traj.Symbol) []traj.Symbol {
	out := make([]traj.Symbol, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

func TestColumnMinMonotone(t *testing.T) {
	// The early-termination bound LB_k = min(column k) must be
	// non-decreasing in k (Eq. 11's safety argument).
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		rc := testutil.NewRandomCosts(rng, 5, 0)
		p := randString(rng, 5, 15)
		q := randString(rng, 5, 10)
		col := make([]float64, len(q)+1)
		for j, qs := range q {
			col[j+1] = col[j] + rc.Ins(qs)
		}
		lb := wed.Min(col)
		for _, sym := range p {
			col = wed.StepDP(rc, q, sym, col, make([]float64, len(q)+1))
			nlb := wed.Min(col)
			if nlb < lb-1e-12 {
				t.Fatalf("LB decreased: %v -> %v", lb, nlb)
			}
			lb = nlb
		}
	}
}

func TestSmithWatermanAllSemantics(t *testing.T) {
	// SmithWatermanAll returns, per end position, the best-start match
	// below tau: every reported match must satisfy its WED by
	// recomputation, be below tau, and be per-end optimal.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 60; trial++ {
		rc := testutil.NewRandomCosts(rng, 5, 0)
		p := randString(rng, 5, 14)
		q := randString(rng, 5, 8)
		tau := wed.SumIns(rc, q) * (0.2 + 0.6*rng.Float64())
		got := wed.SmithWatermanAll(rc, q, p, tau)
		seenEnd := map[int]bool{}
		for _, m := range got {
			if m.WED >= tau {
				t.Fatalf("match above tau: %+v", m)
			}
			if m.T < m.S {
				t.Fatalf("empty substring reported: %+v", m)
			}
			if seenEnd[m.T] {
				t.Fatalf("two matches with end %d", m.T)
			}
			seenEnd[m.T] = true
			if d := wed.Dist(rc, p[m.S:m.T+1], q); !approxEq(d, m.WED) {
				t.Fatalf("reported %v, recomputed %v", m.WED, d)
			}
			// Per-end optimality: no start yields a smaller WED for
			// this end.
			for s := 0; s <= m.T; s++ {
				if d := wed.Dist(rc, p[s:m.T+1], q); d < m.WED-1e-9 {
					t.Fatalf("end %d: start %d gives %v < reported %v", m.T, s, d, m.WED)
				}
			}
		}
		// Completeness per end: if some end position has a sub-tau
		// match, it must be reported.
		for e := 0; e < len(p); e++ {
			best := math.Inf(1)
			for s := 0; s <= e; s++ {
				if d := wed.Dist(rc, p[s:e+1], q); d < best {
					best = d
				}
			}
			if best < tau-1e-9 && !seenEnd[e] {
				t.Fatalf("end %d has match at %v < tau=%v but was not reported", e, best, tau)
			}
		}
	}
}

func TestModelNames(t *testing.T) {
	env := testutil.NewEnv(15, 10, 10)
	want := map[string]bool{"Lev": true, "EDR": true, "ERP": true, "NetEDR": true, "NetERP": true, "SURS": true}
	for _, m := range env.Models() {
		if m.Costs.Name() != m.Name {
			t.Errorf("model %s reports Name() = %q", m.Name, m.Costs.Name())
		}
		delete(want, m.Costs.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing models: %v", want)
	}
}

func TestSmithWatermanBestEqualsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		rc := testutil.NewRandomCosts(rng, 5, 0)
		p := randString(rng, 5, 14)
		q := randString(rng, 5, 8)
		if len(p) == 0 {
			continue
		}
		got, ok := wed.SmithWaterman(rc, q, p)
		if !ok {
			t.Fatalf("SW found nothing on non-empty P")
		}
		// Brute force over all substrings including the empty one.
		best := wed.SumDel(rc, q) // wed(Q, ε)
		for s := 0; s < len(p); s++ {
			for e := s; e < len(p); e++ {
				if d := wed.Dist(rc, p[s:e+1], q); d < best {
					best = d
				}
			}
		}
		if !approxEq(got.WED, best) {
			t.Fatalf("SW best %v != brute force %v (P=%v Q=%v)", got.WED, best, p, q)
		}
		// The reported substring must achieve the reported value.
		if got.T >= got.S {
			if d := wed.Dist(rc, p[got.S:got.T+1], q); !approxEq(d, got.WED) {
				t.Fatalf("SW substring value %v != reported %v", d, got.WED)
			}
		}
	}
}

func TestAllMatchesEqualsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		rc := testutil.NewRandomCosts(rng, 5, 0)
		p := randString(rng, 5, 12)
		q := randString(rng, 5, 6)
		var weds []float64
		for s := 0; s < len(p); s++ {
			for e := s; e < len(p); e++ {
				weds = append(weds, wed.Dist(rc, p[s:e+1], q))
			}
		}
		if len(weds) == 0 {
			continue
		}
		tau := testutil.PickTau(weds, 0.3, wed.SumIns(rc, q))
		got := wed.AllMatches(rc, q, p, tau)
		type key struct{ s, t int }
		gotSet := map[key]float64{}
		for _, m := range got {
			gotSet[key{m.S, m.T}] = m.WED
		}
		var wantCount int
		for s := 0; s < len(p); s++ {
			for e := s; e < len(p); e++ {
				d := wed.Dist(rc, p[s:e+1], q)
				if d < tau {
					wantCount++
					g, ok := gotSet[key{s, e}]
					if !ok {
						t.Fatalf("AllMatches missed (%d,%d) wed=%v tau=%v", s, e, d, tau)
					}
					if !approxEq(g, d) {
						t.Fatalf("AllMatches wed mismatch at (%d,%d): %v vs %v", s, e, g, d)
					}
				}
			}
		}
		if wantCount != len(got) {
			t.Fatalf("AllMatches count %d != brute force %d", len(got), wantCount)
		}
	}
}

func TestModelAssumptions(t *testing.T) {
	// Every shipped cost model must satisfy Proposition 1's assumptions
	// on sampled symbol pairs, and Neighbors/FilterCost must be
	// consistent with Definition 4 / Eq. 7: over the whole alphabet, B(q)
	// holds every zero-cost substitute of q, and under the unit-cost
	// models it is exactly that set.
	env := testutil.NewEnv(13, 30, 20)
	for _, m := range env.Models() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			alphabet := env.G.NumVertices()
			if m.DS.Rep == traj.EdgeRep {
				alphabet = env.G.NumEdges()
			}
			syms := env.RandomString(m, 60)
			for i := 0; i < len(syms); i++ {
				a := syms[i]
				if err := testutil.CheckZeroSet(m.Costs, a, alphabet); err != nil {
					t.Fatal(err)
				}
				if m.Costs.Sub(a, a) != 0 {
					t.Fatalf("sub(a,a) != 0 for %d", a)
				}
				if m.Costs.Ins(a) != m.Costs.Del(a) {
					t.Fatalf("ins != del for %d", a)
				}
				if m.Costs.Ins(a) < 0 {
					t.Fatalf("negative ins for %d", a)
				}
				for j := i + 1; j < len(syms) && j < i+8; j++ {
					b := syms[j]
					sab, sba := m.Costs.Sub(a, b), m.Costs.Sub(b, a)
					if sab < 0 {
						t.Fatalf("negative sub(%d,%d)", a, b)
					}
					if !approxEq(sab, sba) {
						t.Fatalf("asymmetric sub(%d,%d): %v vs %v", a, b, sab, sba)
					}
				}
				// Neighborhood sanity: q ∈ B(q); c(q) > costs inside the
				// neighbourhood would contradict Eq. 7.
				bq := m.Costs.Neighbors(a, nil)
				foundSelf := false
				for _, b := range bq {
					if b == a {
						foundSelf = true
					}
				}
				if !foundSelf {
					t.Fatalf("%s: q ∉ B(q) for %d", m.Name, a)
				}
				cq := m.Costs.FilterCost(a)
				if cq < 0 {
					t.Fatalf("negative c(q) for %d", a)
				}
				if cq > m.Costs.Del(a)+1e-12 {
					t.Fatalf("c(q)=%v exceeds del(q)=%v for %d (deletion always escapes B(q))", cq, m.Costs.Del(a), a)
				}
			}
		})
	}
}
