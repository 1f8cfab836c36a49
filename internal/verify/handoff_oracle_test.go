package verify

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// This file keeps Algorithm 4 as the paper states it — both directions of
// every candidate walked under the full τ′, and only then combined — as
// the oracle of the one-sided rejection and threshold hand-off in
// Verify. It shares the walk and the bookkeeping with the production path
// and differs in exactly the two walk calls.

// verifyTwoWalks is Verify with two independent full-τ′ walks.
func (v *Verifier) verifyTwoWalks(c Candidate) {
	v.Stats.Candidates++
	if c.ID != v.curID {
		v.flush()
		v.curID = c.ID
	}
	p := v.ds.Path(c.ID)
	j := int(c.Pos)
	subCost := v.costs.Sub(v.q[c.IQ], p[j])
	tauPrime := v.tau - subCost
	v.Stats.ColumnsAvailable += int64(len(p) - 1)
	if tauPrime <= 0 {
		return
	}

	v.eb = v.prefixWED(p, j, -1, int(c.IQ), 0, tauPrime, v.eb[:0])
	v.ef = v.prefixWED(p, j, +1, int(c.IQ), 0, tauPrime, v.ef[:0])

	if cap(v.efSuf) < len(v.ef) {
		v.efSuf = make([]float64, len(v.ef))
	} else {
		v.efSuf = v.efSuf[:len(v.ef)]
	}
	for k := len(v.ef) - 1; k >= 0; k-- {
		m := v.ef[k]
		if k+1 < len(v.ef) && v.efSuf[k+1] < m {
			m = v.efSuf[k+1]
		}
		v.efSuf[k] = m
	}

	minEf := v.efSuf[0]
	for kb, ebv := range v.eb {
		if ebv+minEf >= tauPrime {
			continue
		}
		rem := tauPrime - ebv
		for kf, efv := range v.ef {
			if v.efSuf[kf] >= rem {
				break
			}
			if efv >= rem {
				continue
			}
			v.chunk = append(v.chunk, traj.Match{
				ID: c.ID, S: int32(j - kb), T: int32(j + kf),
				WED: subCost + ebv + efv,
			})
		}
	}
}

// thresholds returns the thresholds a trajectory is verified under: a
// placeholder for the per-candidate "τ′ ≤ 0" round, then, in ascending
// order, τ/2, up to three WEDs the trajectory's own raw matches have —
// each a sum the enumeration will meet again as an exact tie, which is
// where a stop rule written in real-number algebra goes wrong — and τ,
// each followed by its float successor.
func thresholds(rng *rand.Rand, costs wed.Costs, ds *traj.Dataset, q []traj.Symbol, opts Options, id int32, tau float64) []float64 {
	probe := New(costs, ds, q, tau, opts)
	for iq := range probe.q {
		for j := range probe.ds.Path(id) {
			probe.verifyTwoWalks(Candidate{ID: id, Pos: int32(j), IQ: int32(iq)})
		}
	}
	ts := []float64{tau / 2, tau}
	for k := 0; k < 3 && len(probe.chunk) > 0; k++ {
		ts = append(ts, probe.chunk[rng.Intn(len(probe.chunk))].WED)
	}
	sort.Float64s(ts)
	out := []float64{0}
	for _, t := range ts {
		out = append(out, t, math.Nextafter(t, math.Inf(1)))
	}
	return out
}

// TestHandoffEqualsTwoWalks is the property the hand-off rests on: over
// random weighted cost tables (a coarse lattice, so sums tie with τ′
// often) and the six cost models (whose float sums round), with and
// without early termination, the first, last and middle
// query position (an empty Q^d has E_0 = 0 and can never be the rejecting
// side), and every trajectory verified under thresholds that tie its own
// sums (see thresholds), the raw match list after every call equals the
// oracle's bit for bit and in order, and the hand-off never visits or
// computes a column the oracle did not. Swapping the two stop rules
// between the directions fails it.
func TestHandoffEqualsTwoWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const nsym = 6
	models := testutil.SixModels(rng, nsym)
	trial, oneSided := 0, int64(0)
	f := func(qRaw, pRaw []uint8, tauRaw uint8) bool {
		trial++
		var costs wed.Costs = testutil.RandTableCosts(rng, nsym)
		if trial%2 == 1 {
			costs = models[trial/2%len(models)]
		}
		m := 1 + len(qRaw)%10
		q := make([]traj.Symbol, m)
		for i := range q {
			q[i] = traj.Symbol(rng.Intn(nsym))
			if i < len(qRaw) {
				q[i] = traj.Symbol(int(qRaw[i]) % nsym)
			}
		}
		// Three trajectories: quick's bytes, a noisy copy of Q (deep walks
		// on both sides), and noise.
		ds := traj.NewDataset(traj.VertexRep)
		for k := 0; k < 3; k++ {
			p := make([]traj.Symbol, 1+rng.Intn(14))
			for i := range p {
				switch {
				case k == 0 && i < len(pRaw):
					p[i] = traj.Symbol(int(pRaw[i]) % nsym)
				case k == 1 && rng.Intn(4) > 0:
					p[i] = q[i%m]
				default:
					p[i] = traj.Symbol(rng.Intn(nsym))
				}
			}
			ds.Add(traj.Trajectory{Path: p})
		}
		// One insertion, whatever the model's units; on the lattice for
		// the tables whenever their mean insertion cost is.
		scale := wed.SumIns(costs, q) / float64(m)
		tau := scale * float64(int(tauRaw)%(2*m+1)) / 2

		for _, opts := range []Options{
			{}, {DisableEarlyTermination: true},
		} {
			// check verifies cs with a hand-off and an oracle verifier at
			// tauEff and compares every call's raw matches, the final
			// results and the work counts.
			var got, want Verifier
			check := func(tauEff float64, cs []Candidate) bool {
				got.Reset(costs, ds, q, tauEff, opts)
				want.Reset(costs, ds, q, tauEff, opts)
				for _, c := range cs {
					got.Verify(c)
					want.verifyTwoWalks(c)
					if !slices.Equal(got.chunk, want.chunk) {
						t.Logf("%s %+v |Q|=%d iq=%d τ=%v τeff=%v: raw matches differ", costs.Name(), opts, m, c.IQ, tau, tauEff)
						return false
					}
				}
				g, w := got.Stats, want.Stats
				if g.ColumnsVisited > w.ColumnsVisited || g.StepDPCalls > w.StepDPCalls || g.CellsComputed > w.CellsComputed ||
					g.Candidates != w.Candidates || g.ColumnsAvailable != w.ColumnsAvailable {
					t.Logf("%s %v: work counts %+v exceed the oracle's %+v", costs.Name(), opts, g, w)
					return false
				}
				if opts.DisableEarlyTermination && (g.OneSided != 0 || g.ColumnsVisited != w.ColumnsVisited || g.StepDPCalls != w.StepDPCalls) {
					t.Logf("%s %v: the no-pruning ablation pruned: %+v vs %+v", costs.Name(), opts, g, w)
					return false
				}
				oneSided += g.OneSided
				return slices.Equal(got.Results(), want.Results())
			}
			for id := range ds.Trajs {
				p := ds.Path(int32(id))
				for round, tauEff := range thresholds(rng, costs, ds, q, opts, int32(id), tau) {
					var cs []Candidate
					for _, iq := range []int{0, m - 1, m / 2} {
						for j := range p {
							c := Candidate{ID: int32(id), Pos: int32(j), IQ: int32(iq)}
							if round > 0 {
								cs = append(cs, c)
								continue
							}
							// τ′ lands on 0 or just above it.
							if !check(math.Nextafter(costs.Sub(q[iq], p[j]), math.Inf(j%2*2-1)), []Candidate{c}) {
								return false
							}
						}
					}
					if len(cs) > 0 && !check(tauEff, cs) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Fatal(err)
	}
	if oneSided == 0 {
		t.Fatal("no candidate was rejected one-sidedly: the property was never exercised")
	}
}
