package verify

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// bruteMasks is Masks by brute force: bit i of a symbol's mask is set iff
// sub(symbol, q[i]) = 0.
type bruteMasks struct {
	costs wed.Costs
	q     []traj.Symbol
}

func (m bruteMasks) Fill(dst []uint64, path []traj.Symbol) {
	copy(dst, zeroMasks(m.costs, m.q, path))
}

// TestEnumerateMatchesAllMatches checks the threshold search's word
// enumeration against Definition 3 by brute force. On lattice worlds — a
// few symbols, noise, noisy copies of Q, copies of Q with ⌈τ⌉ − 1 symbols
// inserted (a match of the longest span L = |Q| + ⌈τ⌉ − 1), pieces of Q at
// either end of a path, paths shorter than Q — under Lev, EDR and NetEDR,
// for |Q| = 1, 63, 64 and shorter, and τ on and between integers, it hands
// Enumerate a trajectory's candidates in random order: for every match an
// aligned one — (j, iq) with sub(P[j], Q[iq]) = 0 on an optimal alignment,
// as subsequence filtering guarantees — duplicates, one whose window abuts
// another's, and now and then a lone candidate far from the others. It
// requires exactly wed.AllMatches's matches: (S, T) and WED bits, in
// (S, T) order. It also requires the columns the two scans must read, no
// more: the forward scan over every merged window, and per end of a match
// one reverse column per start back to the interval's start or L columns.
// |Q| = 65 must fail WordScan.
func TestEnumerateMatchesAllMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	const nsym = 5
	var units []wed.Costs
	for _, c := range testutil.SixModels(rng, nsym) {
		if _, ok := c.(wed.Unit); ok {
			units = append(units, c)
		}
	}
	lens := []int{1, 63, 64, 65, 2, 3, 5, 8, 13}
	var trial, matches, longest, clipLo, clipHi, merged, abut, lone, short, walked int
	f := func(raw []uint8) bool {
		trial++
		costs, n := units[trial%len(units)], lens[trial/len(units)%len(lens)]
		q := noise(rng, nsym, n)
		for i := range q {
			if i < len(raw) {
				q[i] = traj.Symbol(int(raw[i]) % nsym)
			}
		}
		// τ on an integer or between two: either way ⌈τ⌉ = lim ≤ |Q|.
		lim := 1 + rng.Intn(min(n, 6))
		tau := float64(lim)
		if rng.Intn(2) == 0 {
			tau -= 0.5
		}
		reach := n + lim - 1

		ds := traj.NewDataset(traj.VertexRep)
		ds.Add(traj.Trajectory{Path: noise(rng, nsym, 1+rng.Intn(n+2))})
		p := append(edited(rng, nsym, q), noise(rng, nsym, rng.Intn(2*n+8))...)
		ds.Add(traj.Trajectory{Path: append(p, edited(rng, nsym, q[rng.Intn(n):])...)})
		// Q with lim − 1 symbols inserted, inside noise.
		long := slices.Clone(q)
		for k := 0; k < lim-1; k++ {
			at := rng.Intn(len(long) + 1)
			long = slices.Insert(long, at, traj.Symbol(rng.Intn(nsym)))
		}
		p = append(noise(rng, nsym, rng.Intn(4)), long...)
		ds.Add(traj.Trajectory{Path: append(p, noise(rng, nsym, rng.Intn(3*n+6))...)})
		ds.Add(traj.Trajectory{Path: append(edited(rng, nsym, q[:1+rng.Intn(n)]), edited(rng, nsym, q)...)})

		v := New(costs, ds, q, tau, Options{})
		for id := range ds.Trajs {
			id := int32(id)
			p := ds.Path(id)
			if len(p) < n {
				short++
			}
			var want []traj.Match
			for _, m := range wed.AllMatches(costs, q, p, tau) {
				want = append(want, traj.Match{ID: id, S: int32(m.S), T: int32(m.T), WED: m.WED})
				if m.T-m.S+1 == reach {
					longest++
				}
			}
			traj.SortMatches(want)

			// An aligned candidate of every match — (j, iq) with sub(P[j],
			// Q[iq]) = 0 on one of its optimal alignments, what subsequence
			// filtering guarantees a match — drawn at random, or one
			// already drawn three times in four.
			fwd, bwd := map[int32][][]float64{}, map[int32][][]float64{}
			aligned := func(m traj.Match, c Candidate) bool {
				if c.Pos < m.S || c.Pos > m.T || costs.Sub(p[c.Pos], q[c.IQ]) != 0 {
					return false
				}
				if fwd[m.S] == nil {
					fwd[m.S] = prefixDists(costs, p[m.S:min(len(p), int(m.S)+reach)], q)
				}
				if bwd[m.T] == nil {
					bwd[m.T] = prefixDists(costs, reversed(p[max(0, int(m.T)-reach+1):m.T+1]), reversed(q))
				}
				return fwd[m.S][c.Pos-m.S][c.IQ]+bwd[m.T][m.T-c.Pos][n-1-int(c.IQ)] == m.WED
			}
			var group []Candidate
			for _, k := range rng.Perm(len(want)) {
				m := want[k]
				if slices.ContainsFunc(group, func(c Candidate) bool { return aligned(m, c) }) && rng.Intn(4) > 0 {
					continue
				}
				var all []Candidate
				for j := m.S; j <= m.T; j++ {
					for iq := range int32(n) {
						if c := (Candidate{ID: id, Pos: j, IQ: iq}); aligned(m, c) {
							all = append(all, c)
						}
					}
				}
				if len(all) == 0 {
					t.Fatalf("%s q=%v p=%v: match %+v has no aligned candidate", costs.Name(), q, p, m)
				}
				group = append(group, all[rng.Intn(len(all))])
			}
			window := func(c Candidate) (lo, hi int) {
				return int(c.Pos-c.IQ) - lim + 1, int(c.Pos) + n - 1 - int(c.IQ) + lim - 1
			}
			if len(group) == 0 || rng.Intn(3) == 0 { // lone, or far from the rest
				group = append(group, Candidate{ID: id, Pos: rng.Int31n(int32(len(p))), IQ: rng.Int31n(int32(n))})
			}
			if rng.Intn(3) == 0 {
				group = append(group, group[rng.Intn(len(group))])
			}
			_, hi0 := window(group[0])
			if iq := rng.Intn(n); rng.Intn(3) == 0 && hi0+iq+lim < len(p) {
				group = append(group, Candidate{ID: id, Pos: int32(hi0 + iq + lim), IQ: int32(iq)}) // windows that abut
				abut++
			}
			rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })

			// The windows, merged by brute force; cols is what the two
			// scans read.
			covered := make([]bool, len(p))
			for _, c := range group {
				lo, hi := window(c)
				clipLo += b2i(lo < 0)
				clipHi += b2i(hi >= len(p))
				for x := max(0, lo); x <= min(hi, len(p)-1); x++ {
					covered[x] = true
				}
				// Another candidate's window overlaps or abuts this one.
				if slices.ContainsFunc(group, func(o Candidate) bool {
					olo, ohi := window(o)
					return o != c && olo <= hi+1 && lo <= ohi+1
				}) {
					merged++
				}
				if !slices.ContainsFunc(group, func(o Candidate) bool {
					olo, ohi := window(o)
					return o != c && olo <= hi+reach && lo <= ohi+reach
				}) {
					lone++
				}
			}
			start := make([]int, len(p)) // the start of position x's interval
			cols := int64(0)
			for x := range p {
				if covered[x] {
					cols++
					start[x] = x
					if x > 0 && covered[x-1] {
						start[x] = start[x-1]
					}
				}
			}
			ends := make(map[int32]bool)
			for _, m := range want {
				if !ends[m.T] {
					ends[m.T] = true
					cols += int64(min(int(m.T)-start[m.T]+1, reach))
				}
			}

			if WordScan(costs, n) != (n <= wordBits) {
				t.Fatalf("%s |Q|=%d: WordScan = %v", costs.Name(), n, !(n <= wordBits))
			}
			if n > wordBits {
				walked++ // the engine walks it (TestWordGate)
				continue
			}
			v.Reset(costs, ds, q, tau, Options{})
			v.Enumerate(group, bruteMasks{costs, q})
			got := v.Results()
			if !slices.Equal(got, want) {
				t.Logf("%s |Q|=%d τ=%v p=%v candidates %v: Enumerate = %v, want %v", costs.Name(), n, tau, p, group, got, want)
				return false
			}
			st := v.Stats
			wantSt := Stats{
				Candidates: len(group), ColumnsAvailable: int64(len(group) * (len(p) - 1)),
				ColumnsVisited: cols, StepDPCalls: cols,
				CellsComputed: cols * int64(n+1), CellsAvailable: cols * int64(n+1),
				Matches: len(want),
			}
			if st != wantSt {
				t.Logf("%s |Q|=%d τ=%v p=%v candidates %v: stats %+v, want %+v", costs.Name(), n, tau, p, group, st, wantSt)
				return false
			}
			matches += len(want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 240, Rand: rng}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d matches, %d of the longest span; windows clipped at the start %d and at the end %d times, %d merged, %d abutting, %d lone; %d short paths; %d of |Q| = 65",
		matches, longest, clipLo, clipHi, merged, abut, lone, short, walked)
	for _, c := range []struct {
		name string
		n    int
	}{{"match of the longest span", longest}, {"window clipped at the start", clipLo}, {"window clipped at the end", clipHi},
		{"merged window", merged}, {"abutting window", abut}, {"lone candidate", lone}, {"path shorter than Q", short}, {"query of |Q| = 65", walked}} {
		if c.n == 0 {
			t.Errorf("no %s: the case was never exercised", c.name)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func abs(x int) int { return max(x, -x) }

// prefixDists returns d[x][i] = wed.Dist(a[:x], b[:i]) for every x ≤ |a|
// and i ≤ |b|: b's symbols are the query's.
func prefixDists(costs wed.Costs, a, b []traj.Symbol) [][]float64 {
	d := make([][]float64, len(a)+1)
	for x := range d {
		d[x] = make([]float64, len(b)+1)
		for i := range d[x] {
			switch {
			case x == 0 && i == 0:
			case x == 0:
				d[x][i] = d[x][i-1] + costs.Ins(b[i-1])
			case i == 0:
				d[x][i] = d[x-1][i] + costs.Del(a[x-1])
			default:
				d[x][i] = min(d[x-1][i-1]+costs.Sub(a[x-1], b[i-1]), d[x-1][i]+costs.Del(a[x-1]), d[x][i-1]+costs.Ins(b[i-1]))
			}
		}
	}
	return d
}

func reversed(s []traj.Symbol) []traj.Symbol {
	r := slices.Clone(s)
	slices.Reverse(r)
	return r
}
