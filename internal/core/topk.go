package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subtraj/internal/filter"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/wed"
)

// This file implements the top-k protocol of the paper's effectiveness
// experiments (§6.2.1, Table 3): for the k data trajectories most similar
// to the query, return each trajectory's best subtrajectory match
// (smallest WED, ties broken by shortest span, then ID and position),
// ordered by ascending WED.
//
// The driver is one best-first pass. The filter plan is built once at the
// feasibility ceiling and its postings are scanned once, without
// materialising candidates, into a per-trajectory lower bound on the best
// WED any subtrajectory can reach. Trajectories wait in a priority queue
// keyed by (bound, ID); one is dropped only when its key reaches the
// running threshold — the float just above the k-th best WED, the ceiling
// until k trajectories have answered. Every key is admissible (DESIGN.md
// §1.5): the coverage bound over the τ-subsequence Q′, computed by the
// threshold search's pre-filter scan (filter.Plan.SubseqBounds). A popped
// trajectory gets one Smith–Waterman scan banded at the threshold
// (verify.Verifier.Best) — a bit-parallel one over the plan's match masks
// under a unit-cost model — which yields its exact best below it, in
// wed.AllMatches's bits, and it leaves the queue.
//
// Because a trajectory leaves the queue only with its exact best, or with
// a bound or a scan that puts its best above the k-th best, the answer is
// the unique k-minimum under the total (WED, span, ID, S, T) order
// whatever the visiting order — which is why the queue can be dealt out
// to any number of workers, in any partition, and every Parallelism
// returns the same bits.

// TopKOptions tunes SearchTopKStats; the zero value is automatic
// parallelism and no cancellation.
type TopKOptions struct {
	// Parallelism caps the queue workers, exactly like Query.Parallelism
	// (0 = auto, 1 = sequential; a cap the engine stays under when the
	// queue is short). Every setting returns the identical result slice.
	Parallelism int
	// Ctx cancels the driver cooperatively: it is polled once per
	// trajectory taken off the queue (see Query.Ctx). nil means run to
	// completion.
	Ctx context.Context
}

// SearchTopK returns, for the k data trajectories most similar to the
// query, each trajectory's best subtrajectory match, ordered by ascending
// WED (ties by span, ID, position).
//
// Only trajectories inside the feasibility ceiling τ ≤ min(c(Q),
// wed(ε, Q)) are reported — beyond it the subsequence filter cannot prune
// (no τ-subsequence exists), which bounds the similarity radius this
// index can answer exactly.
func (e *Engine) SearchTopK(q []traj.Symbol, k int) ([]traj.Match, error) {
	res, _, err := e.SearchTopKStats(q, k, TopKOptions{})
	return res, err
}

// SearchTopKStats answers the top-k protocol and returns the driver's
// QueryStats: per-phase durations and verification counters summed over
// the queue workers, the queue counters (TrajQueued, TrajVerified), and
// EffectiveTau — the radius below which the answer is
// provably complete (the k-th best WED once k trajectories answered, the
// feasibility ceiling otherwise).
func (e *Engine) SearchTopKStats(q []traj.Symbol, k int, opts TopKOptions) ([]traj.Match, *QueryStats, error) {
	if len(q) == 0 {
		return nil, nil, ErrEmptyQuery
	}
	if k <= 0 {
		return nil, &QueryStats{}, nil
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, nil, err
	}
	ceiling := e.topKCeiling(q)
	stats := &QueryStats{Rounds: 1}
	start := time.Now()
	plan, err := filter.BuildPlan(e.costs, e.idx, q, ceiling)
	stats.MinCandTime = time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	defer plan.Release()
	stats.SubseqLen, stats.PlusLen, stats.CSum = len(plan.Subseq), len(plan.Subseq), plan.CSum

	// One scan of the postings builds the whole queue; the fan-out is over
	// pieces of it.
	start = time.Now()
	sc := topkScratches.Get().(*topkScratch)
	defer topkScratches.Put(sc)
	var postings int
	sc.queued, postings = e.subseqBounds(plan, ceiling, sc.queued[:0])
	stats.LookupTime = time.Since(start)
	stats.TrajQueued = len(sc.queued)
	stats.CandidatesReused = postings
	// No more workers than results: each works its own queue until it
	// holds a best of its own, so a worker beyond the k-th only adds work
	// (k = 1 loses to the sequential driver at every |Q|).
	limit := min(EffectiveParallelism(opts.Parallelism), k)
	stats.Workers = fanOutWorkers(limit, topKWork(e.ds, sc.queued, k, len(q)))

	tab := &topkTable{k: k}
	tab.thr.Store(math.Float64bits(ceiling))
	run := topkRun{e: e, ctx: opts.Ctx, q: q, masks: plan.Masks(), ceiling: ceiling, tab: tab, stats: stats}
	queues := sc.deal(stats.Workers)
	fanOut(len(queues), func(i int) { run.pass(&queues[i]) })
	run.mu.Lock()
	err = run.err
	run.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	res := tab.sorted()
	stats.Verify.Matches = len(res)
	stats.EffectiveTau = ceiling
	if len(res) >= k {
		stats.EffectiveTau = res[k-1].WED
	}
	return res, stats, nil
}

// topKCeiling returns the feasibility ceiling min(c(Q), wed(ε, Q)),
// nudged below: strict < in Definition 2 means τ = ceiling exactly may
// still be feasible, and the filter needs c(Q) ≥ τ to stay applicable.
func (e *Engine) topKCeiling(q []traj.Symbol) float64 {
	ceiling := SumFilterCost(e.costs, q)
	if s := wed.SumIns(e.costs, q); s < ceiling {
		ceiling = s
	}
	return ceiling * (1 - 1e-12)
}

// topkTable holds the ≤ k best per-trajectory matches found so far. Its
// entries are exact bests and its worst entry only ever improves, so the
// threshold published in thr only ever falls; workers read it without the
// lock, and a stale (larger) value costs extra verification, never a
// wrong entry — offer re-checks under the lock.
type topkTable struct {
	k   int
	thr atomic.Uint64 // Float64bits of the threshold
	mu  sync.Mutex
	// best is unordered; worst indexes its maximum by traj.Better once
	// len(best) == k. Both guarded by mu.
	best  []traj.Match
	worst int
}

func (tb *topkTable) threshold() float64 { return math.Float64frombits(tb.thr.Load()) }

// offer admits trajectory m.ID's exact best if it beats the worst entry.
func (tb *topkTable) offer(m traj.Match) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	switch {
	case len(tb.best) < tb.k:
		tb.best = append(tb.best, m)
		if len(tb.best) < tb.k {
			return
		}
	case traj.Better(m, tb.best[tb.worst]):
		tb.best[tb.worst] = m
	default:
		return
	}
	w := 0
	for i := range tb.best {
		if traj.Better(tb.best[w], tb.best[i]) {
			w = i
		}
	}
	tb.worst = w
	// The float just above the worst WED: a trajectory whose best ties it
	// is still scanned, and loses or wins on span and ID. The scan compares
	// wed.AllMatches's own sums with it, so no slack is needed; it stays
	// below the ceiling it started at.
	thr := math.Nextafter(tb.best[w].WED, math.Inf(1))
	if thr < tb.threshold() {
		tb.thr.Store(math.Float64bits(thr))
	}
}

// sorted returns the table ordered by (WED, span, ID, S, T).
func (tb *topkTable) sorted() []traj.Match {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	out := slices.Clone(tb.best)
	sort.Slice(out, func(i, j int) bool { return traj.Better(out[i], out[j]) })
	return out
}

// before orders the queue: by coverage bound, then ID.
func before(a, b filter.Bound) bool {
	return a.Key < b.Key || (a.Key == b.Key && a.ID < b.ID)
}

// topkScratch is one query's working memory, pooled across queries: the
// queue the postings scan fills — read-only once it has — and the
// workers' private scratch.
type topkScratch struct {
	queued []filter.Bound // the queued trajectories, in the order the scan met them
	heap   []filter.Bound // the queue as deal laid it out, one piece per worker
	queues []topkQueue
}

// topkQueue is one worker's share of the queue with the scratch only it
// writes.
type topkQueue struct {
	heap []filter.Bound // a piece of topkScratch.heap; a binary min-heap by (Key, ID)
	eq   []uint64       // the match masks of the path being verified
}

var topkScratches = sync.Pool{New: func() any { return new(topkScratch) }}

// topKWork estimates a top-k query's verification work in searchWork's
// unit. The queue's length says little — most of it is dropped on its
// bound — and k says most: the driver scans several trajectories per
// result it returns, never more than it queued, and a scan costs |P|·|Q|
// cells. Measured on the SanFran-like city ×0.1 at |Q| = 30, it scans
// 16, 12 and 6 per result at k = 3, 10 and 50 under EDR and NetEDR, and
// 3.3, 2.8 and 1.7 under SURS; under ERP and NetERP fewer than k
// trajectories lie inside the ceiling, and it scans all it queued. The
// estimate counts three per result and so undercounts the unit models,
// but any count from 3 to 15 fans out every k = 10 query of that probe at
// Parallelism 2; it stays at three until an end-to-end run shows another
// does not slow top-k. The first of them in scan order — the likely
// answers, see deal — stand for the ones it will scan.
func topKWork(ds *traj.Dataset, queued []filter.Bound, k, qLen int) float64 {
	n := len(queued)
	if k <= n/3 { // else 3k > n, or overflows for a huge k
		n = 3 * k
	}
	cells := 0
	for _, en := range queued[:n] {
		cells += len(ds.Path(en.ID)) * qLen
	}
	return float64(cells)
}

// subseqBounds appends every trajectory whose coverage bound over Q′ is
// below the ceiling, from one coverage scan per posting source of the
// view — the base, then the delta — and returns the postings read.
func (e *Engine) subseqBounds(plan *filter.Plan, ceiling float64, dst []filter.Bound) (_ []filter.Bound, postings int) {
	for s := 0; s < e.idx.NumShards(); s++ {
		var n int
		dst, n = plan.SubseqBounds(e.idx.Source(s), ceiling, dst)
		postings += n
	}
	return dst, postings
}

// deal lays the queue out as n contiguous pieces of the one heap buffer,
// heapifies each in place and hands each to a topkQueue with scratch of
// its own. Trajectories go to the pieces in turn: the scan meets the ones
// that cover the first subsequence items — the likely answers — first, and
// a worker handed none of them would verify its whole share under the
// ceiling before anyone's k-th best reached it. The answer does not depend
// on the partition (see the file comment); n = 1 is the sequential
// driver's single heap, in scan order.
func (sc *topkScratch) deal(n int) []topkQueue {
	if len(sc.queues) < n {
		sc.queues = append(sc.queues, make([]topkQueue, n-len(sc.queues))...)
	}
	queues := sc.queues[:n]
	total := len(sc.queued)
	sc.heap = slices.Grow(sc.heap[:0], total)[:total]
	for i, at := 0, 0; i < n; i++ {
		size := (total - i + n - 1) / n // how many j < total have j mod n = i
		queues[i].heap = sc.heap[at : at+size : at+size]
		at += size
	}
	for j, en := range sc.queued {
		queues[j%n].heap[j/n] = en
	}
	for i := range queues {
		queues[i].init(queues[i].heap)
	}
	return queues
}

// init makes tq a queue over entries, heapified in place.
func (tq *topkQueue) init(entries []filter.Bound) {
	tq.heap = entries
	for j := len(entries)/2 - 1; j >= 0; j-- {
		tq.siftDown(j)
	}
}

func (tq *topkQueue) siftDown(i int) {
	h := tq.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// pop removes the heap's minimum.
func (tq *topkQueue) pop() {
	n := len(tq.heap) - 1
	tq.heap[0] = tq.heap[n]
	tq.heap = tq.heap[:n]
	tq.siftDown(0)
}

// fill returns the match masks of path's positions, for the word scan.
func (tq *topkQueue) fill(masks verify.Masks, path []traj.Symbol) []uint64 {
	tq.eq = slices.Grow(tq.eq[:0], len(path))[:len(path)]
	masks.Fill(tq.eq, path)
	return tq.eq
}

// topkRun is what the passes of one query share.
type topkRun struct {
	e       *Engine
	ctx     context.Context
	q       []traj.Symbol
	masks   verify.Masks // the plan's, nil unless Best takes the word scan
	ceiling float64
	tab     *topkTable

	mu    sync.Mutex
	stats *QueryStats // every pass adds its work here; guarded by mu
	err   error       // the first pass to be cancelled; guarded by mu
}

// pass works one queue off with its own verifier, sharing only the table
// until it reports its work.
func (r *topkRun) pass(tq *topkQueue) {
	start := time.Now()
	// Only the verifier's compiled rows and two columns are read.
	ver := verify.Get(r.e.costs, r.e.ds, r.q, r.ceiling, verify.Options{})
	defer verify.Put(ver)
	var err error
	var verified int
	//subtrajlint:hotloop
	for len(tq.heap) > 0 {
		if err = ctxErr(r.ctx); err != nil {
			break
		}
		thr, top := r.tab.threshold(), tq.heap[0]
		if top.Key >= thr {
			break // so is every key behind it
		}
		tq.pop()
		verified++
		var eq []uint64
		if r.masks != nil {
			eq = tq.fill(r.masks, r.e.ds.Path(top.ID))
		}
		// Its exact best below thr, or none: then its best is ≥ thr and it
		// could not have entered the table.
		if m, ok := ver.Best(top.ID, thr, eq); ok {
			r.tab.offer(m)
		}
	}
	verifyTime := time.Since(start)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
	}
	st := r.stats
	st.VerifyTime += verifyTime
	st.TrajVerified += verified
	st.Verify.Add(ver.Stats)
}
