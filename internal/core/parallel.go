package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"subtraj/internal/filter"
	"subtraj/internal/index"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
)

// This file is the sharded intra-query pipeline: candidate generation and
// verification run per index shard, optionally on several workers. The
// filter/verify split of Algorithm 2 is independent along the trajectory
// axis — a candidate (id, j, iq) only ever touches trajectory id — and the
// §5 trie cache shares state only within one τ-subsequence position, so
// partitioning trajectories across workers changes no result: every
// Parallelism setting returns the same sorted matches with the same WED
// values. Per-worker tries do lose cross-shard column sharing, which shows
// up only in the CMR/TrieNodes stats.

// EffectiveParallelism resolves the Query.Parallelism knob: 0 = auto (one
// worker per CPU), clamped to the shard count since a shard is the unit of
// work. Exported so concurrency-metering callers (the server's shared
// worker budget) reserve exactly the workers the engine will use.
func (e *Engine) EffectiveParallelism(p int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if n := e.idx.NumShards(); p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// candBufs pools candidate slices so steady-state queries reuse lookup
// buffers instead of growing a fresh slice per query (and per shard).
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

// shardCandidates generates one shard's candidate stream for the query's
// temporal mode into dst.
func (e *Engine) shardCandidates(qr *Query, plan *filter.Plan, src index.PostingSource, dst []filter.Candidate) []filter.Candidate {
	temporal := qr.Temporal.Mode != TemporalNone
	switch {
	case temporal && !qr.Temporal.DisablePrefilter && qr.Temporal.Mode == TemporalDeparture:
		return plan.CandidatesByDeparture(src, qr.Temporal.Lo, qr.Temporal.Hi, dst)
	case temporal && !qr.Temporal.DisablePrefilter:
		return plan.CandidatesInWindow(src, qr.Temporal.Lo, qr.Temporal.Hi, dst)
	default:
		return plan.Candidates(src, dst)
	}
}

// runSequential is the Parallelism == 1 path: one candidate slice over
// all shards, one pooled verifier whose tries are shared across every
// candidate — exactly the pre-sharding engine behavior. Candidates are
// grouped by trajectory like the sharded path: the verifier accumulates
// matches per trajectory (one flush per ID) and reads each path once, and
// the grouping is a stable sort that changes no result.
func (e *Engine) runSequential(qr *Query, plan *filter.Plan, stats *QueryStats) ([]traj.Match, error) {
	start := time.Now()
	buf := getCandBuf()
	cands := *buf
	// Deferred (not straight-line) Puts: a panicking cost model escapes
	// through here (fanOutShards re-raises on the sequential path's
	// caller too), and a leaked verifier silently erodes the zero-alloc
	// steady state the CI alloc guard measures.
	defer func() { *buf = cands; candBufs.Put(buf) }()
	for s := 0; s < e.idx.NumShards(); s++ {
		src := e.idx.Source(s)
		cands = e.shardCandidates(qr, plan, src, cands)
		index.ReleaseSource(src)
	}
	filter.GroupByTrajectory(cands)
	stats.LookupTime = time.Since(start)
	stats.Candidates = len(cands)

	start = time.Now()
	ver := verify.Get(e.costs, e.ds, qr.Q, qr.Tau, qr.Verify)
	defer verify.Put(ver)
	var err error
	prevID := int32(-1)
	//subtrajlint:hotloop
	for _, c := range cands {
		// The cancellation point sits on trajectory-group boundaries:
		// one group is the unit of verification work (a shared trie
		// walk), so a deadline interrupts between groups, never inside
		// one — bounded latency without torn per-trajectory state.
		if c.ID != prevID {
			prevID = c.ID
			if err = ctxErr(qr.Ctx); err != nil {
				break
			}
		}
		ver.Verify(verify.Candidate{ID: c.ID, Pos: c.Pos, IQ: c.IQ})
	}
	res := ver.Results()
	stats.VerifyTime = time.Since(start)
	stats.Verify = ver.Stats
	if err != nil {
		return nil, err
	}
	return res, nil
}

// workerPanic wraps a recovered panic value so atomic.Value always
// stores one concrete type regardless of what the panic carried.
type workerPanic struct{ val any }

// fanOutShards runs task(s) for every shard index on up to `workers`
// goroutines. The first worker panic is captured (the dying worker
// drains the task channel so the feeder never blocks) and re-raised on
// the caller's goroutine: a panicking cost model then behaves exactly
// as on the sequential path (net/http's per-request recover catches it)
// instead of killing the process from a bare worker goroutine. Shared
// by the plain sharded search and the top-k driver.
func fanOutShards(numShards, workers int, task func(s int)) {
	tasks := make(chan int)
	var wg sync.WaitGroup
	var panicked atomic.Value // first worker panic, re-raised on the caller
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.CompareAndSwap(nil, workerPanic{p})
					for range tasks {
					}
				}
			}()
			for s := range tasks {
				task(s)
			}
		}()
	}
	for s := 0; s < numShards; s++ {
		tasks <- s
	}
	close(tasks)
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.(workerPanic).val)
	}
}

// shardOut is one shard task's contribution to the merged answer.
type shardOut struct {
	matches []traj.Match
	lookup  time.Duration
	verify  time.Duration
	cands   int
	vstats  verify.Stats
	// err is the shard's cancellation (or other) failure; the merge
	// surfaces the first one and discards the round's matches.
	err error
}

// runSharded fans the shards out over `workers` goroutines. Each task
// generates one shard's candidates (grouped by trajectory for locality),
// verifies them with a pooled per-task verifier, and reports sorted
// per-shard matches; the merge concatenates and re-sorts, which is
// deterministic because shards partition trajectory IDs (per-shard result
// sets are disjoint) and every list arrives in (ID, S, T) order.
func (e *Engine) runSharded(qr *Query, plan *filter.Plan, workers int, stats *QueryStats) ([]traj.Match, error) {
	numShards := e.idx.NumShards()
	outs := make([]shardOut, numShards)
	fanOutShards(numShards, workers, func(s int) {
		outs[s] = e.runShard(qr, plan, s)
	})

	var total int
	for s := range outs {
		o := &outs[s]
		if o.err != nil {
			return nil, o.err
		}
		total += len(o.matches)
		stats.LookupTime += o.lookup
		stats.VerifyTime += o.verify
		stats.Candidates += o.cands
		stats.Verify.Add(o.vstats)
	}
	res := make([]traj.Match, 0, total)
	for s := range outs {
		res = append(res, outs[s].matches...)
	}
	// Shard s owns IDs ≡ s (mod P), so concatenation interleaves IDs;
	// one sort restores the canonical (ID, S, T) order.
	traj.SortMatches(res)
	return res, nil
}

// runShard executes the filter and verify phases over one shard.
func (e *Engine) runShard(qr *Query, plan *filter.Plan, s int) shardOut {
	var out shardOut
	start := time.Now()
	buf := getCandBuf()
	src := e.idx.Source(s)
	cands := e.shardCandidates(qr, plan, src, *buf)
	// Deferred so a panicking worker (re-raised by fanOutShards) cannot
	// leak the buffer or the pooled verifier.
	defer func() { *buf = cands; candBufs.Put(buf) }()
	index.ReleaseSource(src)
	filter.GroupByTrajectory(cands)
	out.lookup = time.Since(start)
	out.cands = len(cands)

	start = time.Now()
	ver := verify.Get(e.costs, e.ds, qr.Q, qr.Tau, qr.Verify)
	defer verify.Put(ver)
	prevID := int32(-1)
	//subtrajlint:hotloop
	for _, c := range cands {
		if c.ID != prevID {
			prevID = c.ID
			if out.err = ctxErr(qr.Ctx); out.err != nil {
				break
			}
		}
		ver.Verify(verify.Candidate{ID: c.ID, Pos: c.Pos, IQ: c.IQ})
	}
	out.matches = ver.Results()
	out.verify = time.Since(start)
	out.vstats = ver.Stats
	return out
}
