package wed_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"subtraj/internal/testutil"
	"subtraj/internal/wed"
)

// rootBand builds the banded root column (insertion prefix sums < tau),
// mirroring trie.reset.
func rootBand(c wed.Costs, qd []wed.Symbol, tau float64) (band []float64, lo, hi int) {
	sum := 0.0
	for j := 0; j <= len(qd) && sum < tau; j++ {
		band = append(band, sum)
		hi = j + 1
		if j < len(qd) {
			sum += c.Ins(qd[j])
		}
	}
	return band, 0, hi
}

// TestStepDPBandedQuick is the banded-equals-full property test: drive
// StepDPBanded with quick-generated weighted cost tables, random query
// suffixes, random data symbols, and random thresholds τ′ — including
// thresholds small enough to empty the band — and check, cell by cell
// along a whole DP chain, the contract the verifier relies on:
//
//  1. every cell whose full-width value is < τ′ lies inside the band and
//     holds the bit-identical value;
//  2. no banded cell ever underestimates its full-width value (cells ≥ τ′
//     may be overestimated, which the verifier never observes);
//  3. with τ′ = +Inf the band is the whole column and every cell matches
//     StepDP exactly.
func TestStepDPBandedQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	f := func(qRaw []uint8, pRaw []uint8, tauRaw uint16) bool {
		nsym := 2 + rng.Intn(4)
		c := testutil.RandTableCosts(rng, nsym)
		n := len(qRaw)
		if n > 8 {
			n = 8
		}
		qd := make([]wed.Symbol, n)
		for i := 0; i < n; i++ {
			qd[i] = wed.Symbol(int(qRaw[i]) % nsym)
		}
		steps := len(pRaw)
		if steps > 10 {
			steps = 10
		}
		// τ′ in [0, 8): small values empty the band immediately (even the
		// root's 0 cell is pruned when τ′ = 0), large ones keep it full.
		tau := float64(tauRaw%16) / 2

		full := make([]float64, n+1)
		for j := 0; j < n; j++ {
			full[j+1] = full[j] + c.Ins(qd[j])
		}
		band, lo, hi := rootBand(c, qd, tau)
		scratch := make([]float64, n+1)
		for s := 0; s < steps; s++ {
			p := wed.Symbol(int(pRaw[s]) % nsym)
			nf := wed.StepDP(c, qd, p, full, nil)
			nlo, nhi, cells := wed.StepDPBanded(c, qd, p, band, lo, hi, tau, scratch)
			if cells < 0 || cells > n+1 {
				return false
			}
			if nlo > nhi || nlo < 0 || nhi > n+1 {
				return false
			}
			for j := 0; j <= n; j++ {
				inBand := j >= nlo && j < nhi
				switch {
				case nf[j] < tau:
					if !inBand || scratch[j] != nf[j] {
						return false
					}
				case inBand && scratch[j] < nf[j]:
					return false // banded value may never underestimate
				}
			}
			full = nf
			band = append(band[:0], scratch[nlo:nhi]...)
			lo, hi = nlo, nhi
		}

		// τ′ = +Inf: banding disabled, full column, bit-equal everywhere.
		inf := math.Inf(1)
		fullCol := make([]float64, n+1)
		for j := 0; j < n; j++ {
			fullCol[j+1] = fullCol[j] + c.Ins(qd[j])
		}
		for s := 0; s < steps; s++ {
			p := wed.Symbol(int(pRaw[s]) % nsym)
			nf := wed.StepDP(c, qd, p, fullCol, nil)
			nlo, nhi, cells := wed.StepDPBanded(c, qd, p, fullCol, 0, n+1, inf, scratch)
			if nlo != 0 || nhi != n+1 || cells != n+1 {
				return false
			}
			for j := 0; j <= n; j++ {
				if scratch[j] != nf[j] {
					return false
				}
			}
			fullCol = nf
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestStepDPBandedEmptyParent pins the empty-band conventions: an empty
// parent band yields an empty (0, 0) child with zero work, and a τ′ that
// prunes every child cell returns the normalised (0, 0) band rather than
// a degenerate lo == hi > 0 interval.
func TestStepDPBandedEmptyParent(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	c := testutil.RandTableCosts(rng, 3)
	qd := []wed.Symbol{0, 1, 2}
	dst := make([]float64, len(qd)+1)
	if lo, hi, cells := wed.StepDPBanded(c, qd, 1, nil, 0, 0, 5, dst); lo != 0 || hi != 0 || cells != 0 {
		t.Fatalf("empty parent: got (%d,%d,%d), want (0,0,0)", lo, hi, cells)
	}
	// τ′ = 0 empties every band: even cell values of 0 are pruned
	// (matches the verifier's strict `< τ′` semantics).
	band, lo, hi := rootBand(c, qd, 0)
	if len(band) != 0 || lo != 0 || hi != 0 {
		t.Fatalf("τ′=0 root band not empty: band=%v [%d,%d)", band, lo, hi)
	}
	// A one-cell parent whose every child cell crosses τ′.
	parent := []float64{0.9}
	levLike := &testutil.RandomCosts{N: 3, ID: []float64{1, 1, 1}, Tab: [][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}}}
	lo, hi, _ = wed.StepDPBanded(levLike, qd, 1, parent, 0, 1, 1, dst)
	if lo != 0 || hi != 0 {
		t.Fatalf("pruned-out child band not normalised: [%d,%d)", lo, hi)
	}
}

// rowsEqualBanded runs StepDPRows and StepDPBanded on the same step and
// reports whether they agree bit for bit: lo, hi, cells and every cell of
// the band. q is the whole query and row its compiled pair for data symbol
// p — sub(p, q[j]) for j < |q| followed by the same values reversed, ins
// likewise — and (qd, from) selects the trie: qd is either q[iq+1:]
// (from = iq+1) or reversed(q[:iq]) (from = 2|q|-iq), the two shapes the
// verifier reads out of one row pair.
func rowsEqualBanded(c wed.Costs, qd []wed.Symbol, p wed.Symbol, row, ins []float64, from int, a []float64, alo, ahi int, tau float64) bool {
	n := len(qd)
	want := make([]float64, n+1)
	wlo, whi, wcells := wed.StepDPBanded(c, qd, p, a, alo, ahi, tau, want)
	got := make([]float64, n+1)
	lo, hi, cells := wed.StepDPRows(row[from:from+n], ins[from:from+n], c.Del(p), a, alo, ahi, tau, got)
	if lo != wlo || hi != whi || cells != wcells {
		return false
	}
	for j := lo; j < hi; j++ {
		if math.Float64bits(got[j-alo]) != math.Float64bits(want[j]) {
			return false
		}
	}
	return true
}

// TestStepDPRowsEqualsBanded pins the compiled-row kernel to the
// interface-dispatch reference: over random weighted cost tables and all
// six models, forward and reversed rows, arbitrary parent bands (random
// edges and values, not only ones a DP could produce), empty bands and
// τ = +Inf, and along whole DP chains from the root band.
func TestStepDPRowsEqualsBanded(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	const nsym = 6
	models := testutil.SixModels(rng, nsym)
	for trial := 0; trial < 3000; trial++ {
		var c wed.Costs = testutil.RandTableCosts(rng, nsym)
		if trial%2 == 1 {
			c = models[trial/2%len(models)]
		}
		m := 1 + rng.Intn(9)
		q := make([]wed.Symbol, m)
		for i := range q {
			q[i] = wed.Symbol(rng.Intn(nsym))
		}
		p := wed.Symbol(rng.Intn(nsym))
		row, ins := make([]float64, 0, 2*m), make([]float64, 0, 2*m)
		for _, qs := range q {
			row, ins = append(row, c.Sub(p, qs)), append(ins, c.Ins(qs))
		}
		for j := m - 1; j >= 0; j-- {
			row, ins = append(row, row[j]), append(ins, ins[j])
		}
		iq := rng.Intn(m)
		qd, from := q[iq+1:], iq+1
		if rng.Intn(2) == 0 {
			qd, from = make([]wed.Symbol, iq), 2*m-iq
			for j := range qd {
				qd[j] = q[iq-1-j]
			}
		}
		n := len(qd)
		scale := wed.SumIns(c, q) / float64(m) // one insertion, whatever the model's units
		tau := math.Inf(1)
		if rng.Intn(4) > 0 {
			tau = scale * float64(rng.Intn(2*m+1)) / 2
		}

		// An arbitrary parent band, empty one time in eight.
		alo, ahi := rng.Intn(n+1), rng.Intn(n+2)
		if alo > ahi {
			alo, ahi = ahi, alo
		}
		if rng.Intn(8) == 0 {
			ahi = alo
		}
		a := make([]float64, ahi-alo)
		for i := range a {
			a[i] = scale * float64(rng.Intn(4*m)) / 4
		}
		if !rowsEqualBanded(c, qd, p, row, ins, from, a, alo, ahi, tau) {
			t.Fatalf("trial %d (%s): kernels disagree on parent band [%d,%d) τ=%v |Qd|=%d", trial, c.Name(), alo, ahi, tau, n)
		}

		// A DP chain from the root band, reusing p's row at every step
		// (a path that repeats one symbol).
		band, lo, hi := rootBand(c, qd, tau)
		scratch := make([]float64, n+1)
		for step := 0; step < 6 && lo < hi; step++ {
			if !rowsEqualBanded(c, qd, p, row, ins, from, band, lo, hi, tau) {
				t.Fatalf("trial %d (%s): kernels disagree at chain step %d", trial, c.Name(), step)
			}
			lo, hi, _ = wed.StepDPBanded(c, qd, p, band, lo, hi, tau, scratch)
			band = append(band[:0], scratch[lo:hi]...)
		}
	}
}
