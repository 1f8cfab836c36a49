package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"subtraj/internal/filter"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
)

// This file is the intra-query fan-out. The filter/verify split of
// Algorithm 2 is independent along the trajectory axis — a candidate
// (id, j, iq) only ever touches trajectory id — so a query's grouped
// candidate array, which GroupByTrajectory leaves sorted by trajectory
// ID, can be cut at group boundaries into contiguous ID ranges and each
// range verified on its own. Per-range results are disjoint and already
// in (ID, S, T) order, so concatenating them in range order is the
// sequential answer, bit for bit, with no merge sort. Each range's
// verifier compiles its own cost rows — work the fan-out must win back,
// which is why the engine sizes it per query (fanOutWorkers) instead of
// taking it from a setting.

// minWorkPerWorker is the least estimated work — in the unit of searchWork
// and topKWork, about 0.06 µs of sequential verification on the benchmark
// city — the engine gives one fan-out worker: a query runs on
// min(Parallelism cap, work/minWorkPerWorker) workers, so below twice this
// it stays on the caller's goroutine. Placed from the measured break-even
// of one worker against two (8.5k units) and ten alternating pairs per
// benchmark workload (DESIGN.md §1.3): ingest_mixed's reads (≤ 5k) sit
// below the threshold, search_wide (≥ 100k) and topk_k10 (65k–81k) above
// it, and search_default (4k–32k) straddles it — the larger 61% of its
// queries fan out. It is the engine's one fan-out constant and nothing
// sets it.
const minWorkPerWorker = 6_000

// workPerWorker is minWorkPerWorker; a variable only so that the
// equivalence suites can zero it (export_test.go) and reach the fan-out on
// datasets of a few dozen trajectories.
var workPerWorker float64 = minWorkPerWorker

// EffectiveParallelism resolves a Parallelism cap: 0 = auto, one worker
// per CPU. It is the most workers a query may use, not the number it will
// (see fanOutWorkers); concurrency-metering callers — the server's shared
// worker budget — reserve this many and read QueryStats.Workers after.
func EffectiveParallelism(p int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return p
}

// fanOutWorkers sizes a query's fan-out from its estimated work: as many
// workers as the work can keep busy with workPerWorker each, at most limit
// (a resolved Parallelism cap), at least the caller's own goroutine.
func fanOutWorkers(limit int, work float64) int {
	if work >= float64(limit)*workPerWorker {
		return limit
	}
	return max(1, int(work/workPerWorker))
}

// searchWork estimates a threshold search's verification work from what
// the engine holds after lookup. A candidate's two walks each visit
// about one column per band cell before the column minimum passes τ, and
// a column costs its band, so a candidate costs about the square of the
// band's half-width in cells: |Q|·τ/c(Q), at least one, all of |Q| once
// τ reaches c(Q).
func searchWork(cands, qLen int, tau, cQ float64) float64 {
	b := float64(qLen)
	if tau < cQ {
		b = max(1, b*tau/cQ)
	}
	return float64(cands) * b
}

// wordColumnWork is one estimated word column's share of searchWork's
// unit, which is about 60 ns of verification. Over 40 queries each of EDR,
// |Q| ∈ {20, 60} and τ_ratio 0.1–0.8 on the benchmark city, a unit of
// wordWork measured 62–82 ns of word enumeration at τ_ratio 0.5–0.8 and
// more at 0.1–0.3, where fixed costs dominate a 20–50 µs verify far below
// the fan-out. Only τ_ratio 0.8 (0.8–1.2 ms of verification) reaches it,
// and two workers took 7% and 20% off those queries (DESIGN.md §1.4).
const wordColumnWork = 1.0 / 40

// wordWork estimates a word-enumerated search's verification work (see
// verify.Enumerate) in searchWork's unit. Its forward columns are at most
// a window, |Q| + 2⌈τ⌉ − 2, per candidate, and at most the path, per
// trajectory. A window that holds a match holds about 2⌈τ⌉ ends around
// it, each scanning up to L = |Q| + ⌈τ⌉ − 1 columns back: about 2⌈τ⌉
// reverse columns per forward column.
func (e *Engine) wordWork(cands []filter.Candidate, qLen int, tau float64) float64 {
	lim := int(math.Ceil(tau))
	window := qLen + 2*lim - 2
	cols := 0
	for len(cands) > 0 {
		n := groupStart(cands, 1)
		cols += min(n*window, len(e.ds.Path(cands[0].ID)))
		cands = cands[n:]
	}
	return float64(cols*(1+2*lim)) * wordColumnWork
}

// candBufs pools candidate slices so steady-state queries reuse lookup
// buffers instead of growing a fresh slice per query.
var candBufs = sync.Pool{New: func() any { return new([]filter.Candidate) }}

// getCandBuf checks a candidate buffer out of the pool; callers return it
// with candBufs.Put once the candidates are consumed.
//
//subtrajlint:pool-get candBufs.Put
func getCandBuf() *[]filter.Candidate {
	buf := candBufs.Get().(*[]filter.Candidate)
	*buf = (*buf)[:0]
	return buf
}

// lookup appends the query's candidates from every posting source of the
// view — the base, then the delta, so IDs only grow from one source to
// the next — for the query's temporal mode.
func (e *Engine) lookup(qr *Query, plan *filter.Plan, dst []filter.Candidate) []filter.Candidate {
	prefilter := qr.Temporal.Mode != TemporalNone && !qr.Temporal.DisablePrefilter
	for s := 0; s < e.idx.NumShards(); s++ {
		src := e.idx.Source(s)
		switch {
		case prefilter && qr.Temporal.Mode == TemporalDeparture:
			dst = plan.CandidatesByDeparture(src, qr.Temporal.Lo, qr.Temporal.Hi, dst)
		case prefilter:
			dst = plan.CandidatesInWindow(src, qr.Temporal.Lo, qr.Temporal.Hi, dst)
		default:
			dst = plan.Candidates(src, dst)
		}
	}
	return dst
}

// groupStart moves cut forward to the next trajectory-group boundary of
// the grouped candidates (len(cands) if there is none), so a range never
// ends inside one trajectory's candidates.
func groupStart(cands []filter.Candidate, cut int) int {
	for cut > 0 && cut < len(cands) && cands[cut].ID == cands[cut-1].ID {
		cut++
	}
	return cut
}

// cutRanges cuts the grouped candidates into n ≥ 1 ranges of about equal
// candidate count, each ending on a group boundary, and returns the n+1
// cut points (a trajectory with more than its share of the candidates
// leaves the ranges it swallowed empty). One range per worker: every
// further range is another verifier compiling cost rows its neighbours
// already hold.
func cutRanges(cands []filter.Candidate, n int) []int {
	cuts := make([]int, n+1)
	for i := 1; i < n; i++ {
		cuts[i] = max(cuts[i-1], groupStart(cands, i*len(cands)/n))
	}
	cuts[n] = len(cands)
	return cuts
}

// rangeOut is one candidate range's contribution to the answer.
type rangeOut struct {
	matches []traj.Match
	elapsed time.Duration
	vstats  verify.Stats
	// err is the range's cancellation; the merge surfaces the first one
	// and discards the matches.
	err error
}

// verifyRange is the verify loop: one pooled verifier, whose compiled cost
// rows every candidate of the range shares, over a run of whole trajectory
// groups — each group enumerated by words when masks is not nil (see
// SearchQuery), else walked candidate by candidate.
// The whole candidate array on the caller's goroutine is the sequential
// path; the fan-out runs the same loop once per range.
func (e *Engine) verifyRange(qr *Query, cands []filter.Candidate, masks verify.Masks) (out rangeOut) {
	start := time.Now()
	ver := verify.Get(e.costs, e.ds, qr.Q, qr.Tau, qr.Verify)
	// Deferred (not straight-line) Put: a panicking cost model escapes
	// through here (fanOut re-raises it on the caller), and a leaked
	// verifier silently erodes the zero-alloc steady state the CI alloc
	// guard measures.
	defer verify.Put(ver)
	//subtrajlint:hotloop
	for len(cands) > 0 {
		// The cancellation point sits on trajectory-group boundaries:
		// one group is the unit of verification work (its matches merge
		// in one flush), so a deadline interrupts between groups, never
		// inside one — bounded latency without torn per-trajectory state.
		if out.err = ctxErr(qr.Ctx); out.err != nil {
			break
		}
		n := groupStart(cands, 1)
		group := cands[:n]
		cands = cands[n:]
		if masks != nil {
			ver.Enumerate(group, masks)
			continue
		}
		for _, c := range group {
			ver.Verify(c)
		}
	}
	out.matches = ver.Results()
	out.vstats = ver.Stats
	out.elapsed = time.Since(start)
	return out
}

// verifyRanges verifies cands[cuts[i]:cuts[i+1]] for every i, each range
// on a worker of its own, and concatenates the results in range order.
// The cuts are non-decreasing group boundaries, so the ranges hold
// disjoint, ascending trajectory IDs and every per-range list arrives in
// (ID, S, T) order: the concatenation is the canonical order and needs no
// sort. Durations and counters are summed into stats.
func (e *Engine) verifyRanges(qr *Query, cands []filter.Candidate, masks verify.Masks, cuts []int, stats *QueryStats) ([]traj.Match, error) {
	outs := make([]rangeOut, len(cuts)-1)
	fanOut(len(outs), func(i int) {
		outs[i] = e.verifyRange(qr, cands[cuts[i]:cuts[i+1]], masks)
	})
	total := 0
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return nil, o.err
		}
		stats.VerifyTime += o.elapsed
		stats.Verify.Add(o.vstats)
		total += len(o.matches)
	}
	if len(outs) == 1 {
		return outs[0].matches, nil
	}
	res := make([]traj.Match, 0, total)
	for i := range outs {
		res = append(res, outs[i].matches...)
	}
	return res, nil
}

// workerPanic wraps a recovered panic value so atomic.Value always
// stores one concrete type regardless of what the panic carried.
type workerPanic struct{ val any }

// fanOut runs task(i) for every i in [0, n), n ≥ 1: task 0 alone on the
// caller's goroutine — all there is to the sequential path — and
// otherwise each on a goroutine of its own while the caller waits. (The
// caller taking a share itself saves a goroutine and measured 5% slower
// on search_default and search_wide over ten alternating pairs, 1.3 ms
// slower on the benchmark's traced top-k replay.) It returns once all tasks
// have, even when one panics, so no worker outlives the pooled buffers its
// caller hands out. A worker's panic is captured and re-raised on the
// caller's goroutine: a panicking cost model then behaves exactly as on
// the sequential path (net/http's per-request recover catches it) instead
// of killing the process from a bare worker goroutine. Shared by the
// threshold search and the top-k driver.
func fanOut(n int, task func(i int)) {
	if n <= 1 {
		task(0)
		return
	}
	var wg sync.WaitGroup
	var panicked atomic.Value // first worker panic, re-raised on the caller
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.CompareAndSwap(nil, workerPanic{p})
				}
			}()
			task(i)
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.(workerPanic).val)
	}
}
