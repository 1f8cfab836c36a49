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
// WED is wed.SmithWaterman's, bit for bit.
func TestBestMatchesAllMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	const nsym = 6
	models := testutil.SixModels(rng, nsym)
	var trial, found, tied, shorter int
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
				var want traj.Match
				ok := false
				ties := 0
				for _, m := range all {
					c := traj.Match{ID: int32(id), S: int32(m.S), T: int32(m.T), WED: m.WED}
					if m.WED >= thr {
						continue
					}
					if m.WED == star {
						ties++
					}
					if !ok || traj.Better(c, want) {
						want, ok = c, true
					}
				}
				got, gotOK := v.Best(int32(id), thr)
				if gotOK != ok || got != want {
					t.Logf("%s q=%v p=%v below=%v: Best = %+v, %v; brute force %+v, %v", costs.Name(), q, p, thr, got, gotOK, want, ok)
					return false
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
	t.Logf("%d matches found: %d among ties at w*, %d shorter than Smith–Waterman's own span", found, tied, shorter)
	if tied == 0 || shorter == 0 {
		t.Fatal("no tie at w* was broken by span: the recovery was never exercised")
	}
}
