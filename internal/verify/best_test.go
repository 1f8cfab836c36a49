package verify

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// TestBestMatchesAllMatches checks the top-k scan against Definition 3 by
// brute force: over the six cost models (whose float sums round),
// ½-lattice tables (whose sums tie exactly, so many spans share w*) and
// tables of tenths (which tie in reals and round apart by summation order,
// so the reverse scan proposes starts the forward DP must reject), for
// thresholds below, at and above each trajectory's w*, Best reports
// exactly the traj.Better minimum of wed.AllMatches's matches below the
// threshold — (S, T) and WED bits — or not-found when there is none; its
// WED is wed.SmithWaterman's, bit for bit. Under the unit-cost models
// (Lev, EDR, NetEDR) the word scan, given the masks of the brute-force
// zero sets, returns the same.
func TestBestMatchesAllMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	const nsym = 6
	models := testutil.SixModels(rng, nsym)
	var trial, found, tied, shorter, words int
	f := func(qRaw, pRaw []uint8) bool {
		trial++
		var costs wed.Costs = testutil.RandTableCosts(rng, nsym)
		switch trial % 3 {
		case 1:
			costs = models[trial/3%len(models)]
		case 2:
			tenths := testutil.RandTableCosts(rng, nsym)
			for a := range tenths.Tab {
				tenths.ID[a] = float64(1+rng.Intn(9)) / 10
				for b := a + 1; b < nsym; b++ {
					tenths.Tab[a][b] = float64(rng.Intn(20)) / 10
					tenths.Tab[b][a] = tenths.Tab[a][b]
				}
			}
			costs = tenths
		}
		q := make([]traj.Symbol, 1+len(qRaw)%10)
		for i := range q {
			q[i] = traj.Symbol(rng.Intn(nsym))
			if i < len(qRaw) {
				q[i] = traj.Symbol(int(qRaw[i]) % nsym)
			}
		}
		// Quick's bytes, a noisy double copy of Q, and noise.
		ds := traj.NewDataset(traj.VertexRep)
		for k := 0; k < 3; k++ {
			p := make([]traj.Symbol, 1+rng.Intn(24))
			for i := range p {
				switch {
				case k == 0 && i < len(pRaw):
					p[i] = traj.Symbol(int(pRaw[i]) % nsym)
				case k == 1 && rng.Intn(4) > 0:
					p[i] = q[i%len(q)]
				default:
					p[i] = traj.Symbol(rng.Intn(nsym))
				}
			}
			ds.Add(traj.Trajectory{Path: p})
		}
		empty := wed.SumIns(costs, q)
		v := New(costs, ds, q, empty, Options{})
		for id := range ds.Trajs {
			p := ds.Path(int32(id))
			all := wed.AllMatches(costs, q, p, empty)
			star := math.Inf(1)
			for _, m := range all {
				star = min(star, m.WED)
			}
			below := []float64{0, empty / 2, empty, math.Inf(1)}
			if len(all) > 0 {
				below = append(below, star/2, math.Nextafter(star, 0), star, math.Nextafter(star, math.Inf(1)), (star+empty)/2)
			}
			for _, thr := range below {
				want, ok, ties, _ := bruteBest(int32(id), all, thr)
				got, gotOK := v.Best(int32(id), thr, nil)
				if gotOK != ok || got != want {
					t.Logf("%s q=%v p=%v below=%v: Best = %+v, %v; brute force %+v, %v", costs.Name(), q, p, thr, got, gotOK, want, ok)
					return false
				}
				if _, unit := costs.(wed.Unit); unit {
					words++
					if w, wOK := v.Best(int32(id), thr, zeroMasks(costs, q, p)); wOK != ok || w != want {
						t.Logf("%s q=%v p=%v below=%v: word scan = %+v, %v; brute force and float scan %+v, %v", costs.Name(), q, p, thr, w, wOK, want, ok)
						return false
					}
				}
				if !ok {
					continue
				}
				found++
				if ties > 1 {
					tied++
				}
				sw, _ := wed.SmithWaterman(costs, q, p)
				if sw.WED != got.WED {
					t.Logf("%s q=%v p=%v: Best WED %v, Smith–Waterman %v", costs.Name(), q, p, got.WED, sw.WED)
					return false
				}
				if sw.T-sw.S > int(got.T-got.S) {
					shorter++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600, Rand: rng}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d matches found: %d among ties at w*, %d shorter than Smith–Waterman's own span; %d word scans", found, tied, shorter, words)
	if tied == 0 || shorter == 0 {
		t.Fatal("no tie at w* was broken by span: the recovery was never exercised")
	}
	if words == 0 {
		t.Fatal("no unit-cost model drawn: the word scan was never exercised")
	}
}

// TestBestWordScan checks the unit-cost word scan at the edges of its word
// — |Q| = 1, 63 and 64, whose bottom row is the top bit — and one past
// them, |Q| = 65, which must take the float scan. Under Lev, EDR and
// NetEDR, on noisy copies of Q (w* small, spans at w* nested and repeated)
// and noise, for thresholds below, at and above w*, Best with the masks of
// the brute-force zero sets returns what it returns without them and what
// the brute force's traj.Better minimum is: (S, T) and WED bits. The word
// scan books |Q| + 1 cells per column; at |Q| = 65 the masks must change
// no count.
func TestBestWordScan(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	const nsym = 8
	var units []wed.Costs
	for _, c := range testutil.SixModels(rng, nsym) {
		if _, ok := c.(wed.Unit); ok {
			units = append(units, c)
		}
	}
	if len(units) != 3 {
		t.Fatalf("%d unit-cost models among the six, want Lev, EDR and NetEDR", len(units))
	}
	lens := []int{1, 63, 64, 65}
	var trial, found, spanTies int
	f := func(raw []uint8) bool {
		trial++
		costs, n := units[trial%len(units)], lens[trial/len(units)%len(lens)]
		q := make([]traj.Symbol, n)
		for i := range q {
			q[i] = traj.Symbol(rng.Intn(nsym))
			if i < len(raw) {
				q[i] = traj.Symbol(int(raw[i]) % nsym)
			}
		}
		// Noise; a noisy copy of Q inside noise; and one noisy piece of Q
		// twice, so two ends reach w* over spans of one length.
		ds := traj.NewDataset(traj.VertexRep)
		ds.Add(traj.Trajectory{Path: noise(rng, nsym, 1+rng.Intn(40))})
		p := noise(rng, nsym, rng.Intn(6))
		p = append(p, edited(rng, nsym, q)...)
		ds.Add(traj.Trajectory{Path: append(p, noise(rng, nsym, rng.Intn(6))...)})
		lo := rng.Intn(n)
		piece := edited(rng, nsym, q[lo:lo+1+rng.Intn(n-lo)])
		p = append(noise(rng, nsym, rng.Intn(4)), piece...)
		p = append(p, noise(rng, nsym, 1+rng.Intn(4))...)
		ds.Add(traj.Trajectory{Path: append(p, piece...)})

		empty := wed.SumIns(costs, q)
		v := New(costs, ds, q, empty, Options{})
		for id := range ds.Trajs {
			p := ds.Path(int32(id))
			eq := zeroMasks(costs, q, p)
			all := wed.AllMatches(costs, q, p, empty)
			star := math.Inf(1)
			for _, m := range all {
				star = min(star, m.WED)
			}
			below := []float64{0, empty, math.Inf(1)}
			if len(all) > 0 {
				below = append(below, star/2, math.Nextafter(star, 0), star, math.Nextafter(star, math.Inf(1)), star+1, (star+empty)/2)
			}
			for _, thr := range below {
				want, ok, _, sameSpan := bruteBest(int32(id), all, thr)
				before := v.Stats
				got, gotOK := v.Best(int32(id), thr, nil)
				mid := v.Stats
				w, wOK := v.Best(int32(id), thr, eq)
				after := v.Stats
				if gotOK != ok || got != want || wOK != ok || w != want {
					t.Logf("%s |Q|=%d q=%v p=%v below=%v: float scan %+v, %v; word scan %+v, %v; brute force %+v, %v",
						costs.Name(), n, q, p, thr, got, gotOK, w, wOK, want, ok)
					return false
				}
				cols, cells := after.ColumnsVisited-mid.ColumnsVisited, after.CellsComputed-mid.CellsComputed
				if n > wordBits {
					if cols != mid.ColumnsVisited-before.ColumnsVisited || cells != mid.CellsComputed-before.CellsComputed {
						t.Logf("|Q|=%d: the masks changed the work: %d columns, %d cells; without them %d, %d",
							n, cols, cells, mid.ColumnsVisited-before.ColumnsVisited, mid.CellsComputed-before.CellsComputed)
						return false
					}
				} else if cells != int64(n+1)*cols {
					t.Logf("|Q|=%d: %d cells over %d columns: not the word scan", n, cells, cols)
					return false
				}
				if ok {
					found++
					if sameSpan > 1 {
						spanTies++
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 96, Rand: rng}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d matches found, %d of them tied in WED and span", found, spanTies)
	if spanTies == 0 {
		t.Fatal("no tie in span at w*: the tie-break on S was never exercised")
	}
}

// TestWordSpanStart checks the word scan's span recovery on its own,
// away from the ends at w* Best asks it about: under Lev, EDR and NetEDR,
// for |Q| from 1 to 64, every end t, every WED w from 0 to |Q| and every
// span cap, spanStart returns the largest start s of a span P[s..t] within
// the cap whose wed.Dist is w — anchored at t, not a span that reaches w
// and ends before it — or −1, and books one column per start it scanned.
func TestWordSpanStart(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	const nsym = 5
	var units []wed.Costs
	for _, c := range testutil.SixModels(rng, nsym) {
		if _, ok := c.(wed.Unit); ok {
			units = append(units, c)
		}
	}
	checked := 0
	for trial := 0; trial < 60; trial++ {
		costs := units[trial%len(units)]
		n := 1 + trial%wordBits
		if trial%4 == 3 {
			n = wordBits
		}
		q := noise(rng, nsym, n)
		p := append(noise(rng, nsym, rng.Intn(8)), edited(rng, nsym, q[rng.Intn(n):])...)
		p = append(p, noise(rng, nsym, rng.Intn(8))...)
		ds := traj.NewDataset(traj.VertexRep)
		ds.Add(traj.Trajectory{Path: p})
		v := New(costs, ds, q, wed.SumIns(costs, q), Options{})
		eq := zeroMasks(costs, q, p)
		for end := range p {
			// dist[L] is the WED of the span of L symbols ending at end.
			dist := make([]float64, end+2)
			for L := 1; L <= end+1; L++ {
				dist[L] = wed.Dist(costs, p[end+1-L:end+1], q)
			}
			for w := 0; w <= n; w++ {
				for _, span := range []int{1, n + w, end + 1} {
					want := -1
					for L := 1; L <= min(span, end+1); L++ {
						if dist[L] == float64(w) {
							want = end + 1 - L
							break
						}
					}
					cols := v.Stats.ColumnsVisited
					got := v.spanStart(eq, end, span, w)
					scanned := min(span, end+1)
					if got >= 0 {
						scanned = end - got + 1
					}
					if got != want || v.Stats.ColumnsVisited-cols != int64(scanned) {
						t.Fatalf("%s q=%v p=%v: spanStart(t=%d, span=%d, w=%d) = %d over %d columns; want %d over %d",
							costs.Name(), q, p, end, span, w, got, v.Stats.ColumnsVisited-cols, want, scanned)
					}
					if want >= 0 {
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no span reached its WED")
	}
}

// bruteBest is the traj.Better minimum of trajectory id's matches all
// below thr, and how many of those tie its WED, and its WED and span.
func bruteBest(id int32, all []wed.SWMatch, thr float64) (want traj.Match, ok bool, sameWED, sameSpan int) {
	for _, m := range all {
		c := traj.Match{ID: id, S: int32(m.S), T: int32(m.T), WED: m.WED}
		if m.WED < thr && (!ok || traj.Better(c, want)) {
			want, ok = c, true
		}
	}
	for _, m := range all {
		if ok && m.WED == want.WED {
			sameWED++
			if m.T-m.S == int(want.T-want.S) {
				sameSpan++
			}
		}
	}
	return want, ok, sameWED, sameSpan
}

// zeroMasks returns the match masks of p's positions by brute force: bit i
// of mask t is set iff sub(p[t], q[i]) = 0. Positions past the word's 64
// are dropped.
func zeroMasks(costs wed.Costs, q, p []traj.Symbol) []uint64 {
	eq := make([]uint64, len(p))
	for t, b := range p {
		for i, qs := range q {
			if costs.Sub(b, qs) == 0 && i < wordBits {
				eq[t] |= 1 << i
			}
		}
	}
	return eq
}

// noise returns n symbols drawn from {0..nsym-1}.
func noise(rng *rand.Rand, nsym, n int) []traj.Symbol {
	p := make([]traj.Symbol, n)
	for i := range p {
		p[i] = traj.Symbol(rng.Intn(nsym))
	}
	return p
}

// edited returns a copy of q with about one symbol in eight substituted,
// deleted, or preceded by an inserted one.
func edited(rng *rand.Rand, nsym int, q []traj.Symbol) []traj.Symbol {
	var p []traj.Symbol
	for _, s := range q {
		switch rng.Intn(24) {
		case 0:
			p = append(p, traj.Symbol(rng.Intn(nsym)))
			continue
		case 1:
			continue
		case 2:
			p = append(p, traj.Symbol(rng.Intn(nsym)), s)
			continue
		}
		p = append(p, s)
	}
	return p
}
