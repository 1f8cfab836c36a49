package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"subtraj/internal/filter"
	"subtraj/internal/index"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
)

// splitWorld is one generated engine and query of the split property
// tests: random strings over five symbols under a lattice cost table
// (sums tie with each other and with τ), on an arena that covers all of
// the dataset or only a prefix — the rest is then the delta, whose
// candidates are the tail of the ID-sorted array.
type splitWorld struct {
	eng   *Engine
	q     []traj.Symbol
	cq    float64
	delta bool
}

func newSplitWorld(rng *rand.Rand) splitWorld {
	const alpha = 5
	numTraj := []int{1, 2, 12, 40}[rng.Intn(4)] // 1: every candidate in one trajectory
	ds := testutil.RandomDataset(rng, alpha, numTraj, 24)
	costs := testutil.RandTableCosts(rng, alpha)
	baseLen := ds.Len()
	if rng.Intn(2) == 0 {
		baseLen = rng.Intn(ds.Len() + 1)
	}
	prefix := &traj.Dataset{Rep: ds.Rep}
	for i := 0; i < baseLen; i++ {
		prefix.Add(ds.Trajs[i])
	}
	w := splitWorld{eng: NewEngineWithBackend(prefix, index.Build(prefix), costs), delta: baseLen < ds.Len()}
	w.eng.AppendBatch(ds.Trajs[baseLen:])
	w.q = make([]traj.Symbol, 3+rng.Intn(6))
	for i := range w.q {
		w.q[i] = traj.Symbol(rng.Intn(alpha))
	}
	w.cq = SumFilterCost(costs, w.q)
	return w
}

func matchOrder(a, b traj.Match) int {
	return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.S, b.S), cmp.Compare(a.T, b.T))
}

// TestSplitAnyCutEqualsSequential is the property behind the fan-out's
// merge: cut the grouped candidate array at ANY set of points, each moved
// to the next trajectory-group boundary, verify every range with a
// verifier of its own, concatenate in range order — and the result is the
// one-verifier answer bit for bit, in (ID, S, T) order with no sort. The
// cases the split has to survive are counted, so the property is known to
// have met them: a single group, an empty range, a naive cut inside one
// trajectory's candidates, delta IDs as the tail.
func TestSplitAnyCutEqualsSequential(t *testing.T) {
	ForceFanOut(t)
	var oneGroup, emptyRange, straddled, deltaTail, ran, matched int
	f := func(seed int64, rawCuts []uint16, ratio float64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newSplitWorld(rng)
		if math.IsNaN(ratio) || math.IsInf(ratio, 0) {
			return true
		}
		qr := Query{Q: w.q, Tau: (0.05 + 0.9*math.Mod(math.Abs(ratio), 1)) * w.cq}
		plan, err := filter.BuildPlan(w.eng.costs, w.eng.idx, qr.Q, qr.Tau)
		if err != nil {
			return true // infeasible under this table: nothing to split
		}
		cands := w.eng.lookup(&qr, plan, nil)
		filter.GroupByTrajectory(cands)
		want, err := w.eng.verifyRanges(&qr, cands, nil, []int{0, len(cands)}, &QueryStats{})
		if err != nil {
			t.Error(err)
			return false
		}

		if len(rawCuts) > 6 {
			rawCuts = rawCuts[:6]
		}
		cuts := []int{0}
		for _, raw := range rawCuts {
			naive := int(raw) % (len(cands) + 1)
			cut := groupStart(cands, naive)
			if cut != naive {
				straddled++
			}
			if cut > 0 && cut < len(cands) && cands[cut].ID == cands[cut-1].ID {
				t.Errorf("seed %d: cut %d splits trajectory %d", seed, cut, cands[cut].ID)
				return false
			}
			cuts = append(cuts, cut)
		}
		cuts = append(cuts, len(cands))
		slices.Sort(cuts)
		for i := 1; i < len(cuts); i++ {
			if cuts[i] == cuts[i-1] {
				emptyRange++
			}
		}
		if len(cands) > 0 && cands[0].ID == cands[len(cands)-1].ID {
			oneGroup++
		}
		if w.delta && len(cands) > 0 && int(cands[len(cands)-1].ID) >= w.eng.base.NumTrajectories() {
			deltaTail++
		}
		ran++
		if len(want) > 0 {
			matched++
		}

		got, err := w.eng.verifyRanges(&qr, cands, nil, cuts, &QueryStats{})
		if err != nil {
			t.Error(err)
			return false
		}
		if !slices.Equal(got, want) {
			t.Errorf("seed %d cuts %v: %d matches by ranges, %d sequentially, or they differ", seed, cuts, len(got), len(want))
			return false
		}
		if !slices.IsSortedFunc(got, matchOrder) {
			t.Errorf("seed %d cuts %v: concatenation is not in (ID, S, T) order", seed, cuts)
			return false
		}
		// What the engine itself cuts must satisfy the same property.
		for _, n := range []int{2, 3, 7} {
			got, stats, err := w.eng.SearchQuery(Query{Q: qr.Q, Tau: qr.Tau, Parallelism: n})
			if err != nil || stats.Workers != n || !slices.Equal(got, want) {
				t.Errorf("seed %d: SearchQuery on %d workers (%d used, err %v) differs from the sequential answer", seed, n, stats.Workers, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(91))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d splits (%d with matches): %d of one group, %d with an empty range, %d naive cuts inside a trajectory, %d with delta IDs as the tail",
		ran, matched, oneGroup, emptyRange, straddled, deltaTail)
	if min(matched, oneGroup, emptyRange, straddled, deltaTail) == 0 {
		t.Fatal("a named case was never generated")
	}
}

// TestTopKAnyPartitionEqualsRestart is the same property for the top-k
// queue: deal the scanned queue out in ANY partition — random order,
// random piece sizes, empty pieces — work the pieces off concurrently
// against one shared table, and the answer is the brute force's bit for
// bit, and on these lattice tables the restart oracle's too.
func TestTopKAnyPartitionEqualsRestart(t *testing.T) {
	ForceFanOut(t)
	ran := 0
	f := func(seed int64, rawCuts []uint16, rawK uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newSplitWorld(rng)
		if w.cq == 0 {
			return true
		}
		e, k := w.eng, 1+int(rawK)%12
		restart, _, err := e.SearchTopKRestart(w.q, k)
		if err != nil {
			return true // no plan at the ceiling under this table
		}
		want, _ := e.SearchTopKBruteForce(w.q, k)
		if !slices.Equal(restart, want) {
			t.Errorf("seed %d k=%d: restart oracle %v, brute force %v", seed, k, restart, want)
			return false
		}
		ceiling := e.topKCeiling(w.q)
		plan, err := filter.BuildPlan(e.costs, e.idx, w.q, ceiling)
		if err != nil {
			t.Error(err)
			return false
		}
		entries, _ := e.subseqBounds(plan, ceiling, nil)
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		if len(rawCuts) > 5 {
			rawCuts = rawCuts[:5]
		}
		cuts := []int{0, len(entries)}
		for _, raw := range rawCuts {
			cuts = append(cuts, int(raw)%(len(entries)+1))
		}
		slices.Sort(cuts)
		queues := make([]topkQueue, len(cuts)-1)
		for i := range queues {
			queues[i].init(entries[cuts[i]:cuts[i+1]:cuts[i+1]])
		}

		tab := &topkTable{k: k}
		tab.thr.Store(math.Float64bits(ceiling))
		run := topkRun{e: e, q: w.q, masks: plan.Masks(), ceiling: ceiling, tab: tab, stats: &QueryStats{}}
		fanOut(len(queues), func(i int) { run.pass(&queues[i]) })
		ran++
		if got := tab.sorted(); !slices.Equal(got, want) {
			t.Errorf("seed %d k=%d pieces %v: %v, brute force %v", seed, k, cuts, got, want)
			return false
		}
		// And the partition the driver itself deals.
		for _, n := range []int{2, 5} {
			got, stats, err := e.SearchTopKStats(w.q, k, TopKOptions{Parallelism: n})
			if err != nil || stats.Workers != min(n, k) || !slices.Equal(got, want) {
				t.Errorf("seed %d k=%d: SearchTopKStats on %d workers (%d used, err %v) differs from the brute force", seed, k, n, stats.Workers, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(92))}); err != nil {
		t.Fatal(err)
	}
	if ran < 100 {
		t.Fatalf("only %d of 300 worlds had a plan at the ceiling", ran)
	}
}
