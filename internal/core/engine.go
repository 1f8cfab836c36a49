// Package core assembles the paper's primary contribution: the
// filter-and-verify subtrajectory similarity search engine of Algorithm 2.
// A query (Q, wed, τ) is answered by (1) building its filter plan — an
// optimised τ-subsequence chosen with MinCand, its extension for the
// trajectory-level pre-filter and, under a unit-cost model, the query's
// match masks (filter.BuildPlan) — (2) generating candidates from the
// inverted index over the substitution neighbourhoods, and (3) verifying
// each candidate locally, with DP walks in both directions from it — or,
// under a unit-cost model, by enumerating every match of the windows
// around a trajectory's candidates with bit-parallel scans over the plan's
// masks. Temporal
// constraints (§4.3) are supported both as a candidate-level pre-filter
// (TF) and as exact post-verification checks.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"subtraj/internal/filter"
	"subtraj/internal/index"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/wed"
)

// Engine is a search engine over one dataset and one cost model. Building
// is O(total symbols). Its index base never changes after construction;
// trajectories appended later are indexed by a delta on top of it, and
// queries read the two through one immutable view that Append replaces
// rather than modifies (§4.1's incremental update; DESIGN.md §1.11). So
// queries never write engine state and any number may run concurrently.
// Append and Rebase are the writes: serialize them against each other and
// against queries on the same Engine — or query a Snapshot, which later
// writes never reach (the server package's SafeEngine publishes one per
// append behind an atomic pointer).
//
// Cost models are the other mutation surface: MemoNetDist (used by NetEDR /
// NetERP) caches distances internally and synchronizes itself, but
// user-supplied cost models must be safe for concurrent use — note that a
// single query with Parallelism > 1 already calls the verification costs
// (Sub/Ins/Del) from several goroutines.
type Engine struct {
	ds    *traj.Dataset
	costs wed.FilterCosts

	// base indexes ds's first base.NumTrajectories() trajectories and is
	// immutable; delta indexes the rest (nil in a Snapshot, which never
	// appends); idx is what queries read — base itself while the delta
	// is empty, else an index.Epoch over base and a view of delta.
	base  *index.Compact
	delta *index.DeltaMap
	idx   index.Backend

	// BuildTime records index construction time (Table 6).
	BuildTime time.Duration
}

// NewEngine indexes the dataset into a fresh arena (index.Build).
func NewEngine(ds *traj.Dataset, costs wed.FilterCosts) *Engine {
	start := time.Now()
	e := NewEngineWithBackend(ds, index.Build(ds), costs)
	e.BuildTime = time.Since(start)
	return e
}

// NewEngineShards is NewEngine; the count is ignored — there is no shard
// axis to size. Kept only because benchmark/trace.go calls it by name and
// a PR outside the benchmark may not edit it; the next benchmark PR
// retires it.
func NewEngineShards(ds *traj.Dataset, costs wed.FilterCosts, _ int) *Engine {
	return NewEngine(ds, costs)
}

// NewEngineCompact is NewEngine: there is one index. Kept only because
// benchmark/trace.go calls it by name; it goes when the benchmark stops
// calling it.
func NewEngineCompact(ds *traj.Dataset, costs wed.FilterCosts) *Engine { return NewEngine(ds, costs) }

// NewEngineWithBackend wraps a prebuilt arena — an index.Build shared
// between engines, an arena from index.OpenMapped. The arena must index a
// prefix of ds's trajectories; the rest become the delta.
func NewEngineWithBackend(ds *traj.Dataset, base *index.Compact, costs wed.FilterCosts) *Engine {
	e := &Engine{ds: ds, costs: costs}
	e.Rebase(base)
	return e
}

// Dataset returns the indexed dataset.
func (e *Engine) Dataset() *traj.Dataset { return e.ds }

// Backend returns the index view queries read: the base plus whatever
// has been appended since.
func (e *Engine) Backend() index.Backend { return e.idx }

// IndexBytes returns the index's memory footprint: the arena, plus a
// heap estimate for the delta.
func (e *Engine) IndexBytes() int64 { return e.idx.IndexBytes() }

// DeltaLen returns how many trajectories sit in the delta, not yet
// folded into the base.
func (e *Engine) DeltaLen() int { return e.ds.Len() - e.base.NumTrajectories() }

// SaveIndex writes the index — the arena, in the versioned format
// index.OpenPrefix maps back — to w. Appended trajectories live in the
// delta beside the arena, so an engine with appends cannot save: build
// a new engine over its dataset first.
func (e *Engine) SaveIndex(w io.Writer) error {
	if e.DeltaLen() != 0 {
		return errors.New("core: the index has unfolded appends; build a new engine over the dataset before saving")
	}
	return e.base.Save(w)
}

// Costs returns the cost model.
func (e *Engine) Costs() wed.FilterCosts { return e.costs }

// Append indexes one more trajectory (incremental update, §4.1): into
// the delta, O(|t|), leaving the base untouched. Every query reads a
// non-empty delta as a second posting source — its candidates are the
// tail of the ID-sorted candidate array — and scans it for departure
// windows, and nothing here folds it: build a new engine after many
// appends, or Rebase onto index.Build(Dataset()) — what SafeEngine's
// compactor does off-lock.
func (e *Engine) Append(t traj.Trajectory) int32 {
	id := e.add(t)
	e.refreshView()
	return id
}

// AppendBatch is Append for several trajectories under one new view.
func (e *Engine) AppendBatch(ts []traj.Trajectory) []int32 {
	ids := make([]int32, len(ts))
	for i := range ts {
		ids[i] = e.add(ts[i])
	}
	e.refreshView()
	return ids
}

func (e *Engine) add(t traj.Trajectory) int32 {
	if e.delta == nil {
		panic("core: Append on a Snapshot")
	}
	id := e.ds.Add(t)
	e.delta.Append(id, e.ds.Get(id))
	return id
}

// refreshView is the one place a (base, delta) pair becomes the view
// queries read.
func (e *Engine) refreshView() {
	e.idx = e.base
	if e.DeltaLen() > 0 {
		e.idx = index.NewEpoch(e.base, e.delta.View())
	}
}

// Rebase installs base — an index over a prefix of the dataset — as the
// engine's frozen base and restarts the delta at its boundary, indexing
// into it whatever base does not cover: nothing at construction, the few
// appends that landed while a fold built base off-lock, a replayed WAL
// tail over a mapped arena. Contents are unchanged, so results are too.
func (e *Engine) Rebase(base *index.Compact) {
	e.base = base
	e.delta = index.NewDeltaMap(base.NumTrajectories())
	for id := base.NumTrajectories(); id < e.ds.Len(); id++ {
		e.delta.Append(int32(id), e.ds.Get(int32(id)))
	}
	e.refreshView()
}

// Snapshot returns an immutable engine over everything indexed so far: a
// fixed prefix view of the dataset and the current index view. O(1).
// Later Appends and Rebases of e never reach it, so it may be queried
// while they run.
func (e *Engine) Snapshot() *Engine {
	return &Engine{ds: e.ds.Slice(e.ds.Len()), costs: e.costs, base: e.base, idx: e.idx, BuildTime: e.BuildTime}
}

// PrepareTemporal does nothing: the arena is built with its departure
// order. Kept only because benchmark/trace.go calls it; it goes when
// the benchmark stops calling it.
func (e *Engine) PrepareTemporal() {}

// QueryStats instruments one query with the Table 4 breakdown and the
// filtering/verification metrics of §6.4. Under a fanned-out query the
// per-range stats are merged in: durations are summed (total work per
// phase, the Table 4 semantics — wall time is smaller when the fan-out
// spreads that work over several workers), counters are summed, and
// Workers records the pipeline shape.
type QueryStats struct {
	// MinCandTime, LookupTime, VerifyTime decompose the query (Table 4).
	// MinCandTime is the whole of filter.BuildPlan: Q′, its extension to
	// Q⁺ and the match masks.
	MinCandTime time.Duration
	LookupTime  time.Duration
	VerifyTime  time.Duration
	// SubseqLen is |Q'|; PlusLen is |Q⁺|, the positions the pre-filter
	// bounds trajectories over (|Q'| when the plan was not extended).
	SubseqLen, PlusLen int
	// CSum is c(Q') ≥ τ.
	CSum float64
	// Candidates is |C|, the verified candidate count (Figure 11 counts
	// the paper's filter alone: Candidates + CandidatesPruned).
	Candidates int
	// TrajPruned and CandidatesPruned are what the trajectory-level
	// pre-filter dropped before any DP: trajectories with a Q' candidate
	// whose bound over Q⁺ reached τ, and their Q' candidates.
	TrajPruned, CandidatesPruned int
	// Verify carries the UPR counters (Table 5) plus the cell-level band
	// counters (CellsComputed/CellsAvailable) of the τ-banded
	// verification. Every candidate is walked on its own — every
	// trajectory, under the word enumeration — so they equal the
	// sequential run's at every worker count.
	Verify verify.Stats
	// Workers is the number of goroutines that verified this query: 1
	// when it ran on the caller's, which is where the engine keeps every
	// query whose estimated work is below the fan-out threshold whatever
	// Parallelism allows (see fanOutWorkers).
	Workers int

	// The remaining fields are produced only by the top-k driver
	// (SearchTopKStats); they stay zero for plain searches.
	//
	// TrajQueued is the number of trajectories whose coverage bound put
	// them on the best-first queue; TrajVerified how many of those were
	// scanned (the rest were dropped on their bound).
	TrajQueued, TrajVerified int
	// Rounds is always 1 and CandidatesReused counts the postings the
	// driver read. Both survive from the τ-growth driver only because
	// benchmark/trace.go reads them by name (its core.topk_rounds and
	// core.topk_reused_ratio rows) and a change that claims a gain may not
	// edit the benchmark; the next benchmark change retires them. Top-k
	// generates no candidates, so Candidates stays 0 there.
	Rounds           int
	CandidatesReused int
	// EffectiveTau is the radius below which the reported answer is
	// provably complete: the k-th best WED once k trajectories answered,
	// the feasibility ceiling when fewer lie inside it.
	EffectiveTau float64
}

// TemporalMode selects the §4.3 constraint form.
type TemporalMode uint8

const (
	// TemporalNone applies no temporal constraint.
	TemporalNone TemporalMode = iota
	// TemporalOverlap keeps matches with [T_s, T_t] ∩ I ≠ ∅.
	TemporalOverlap
	// TemporalContain keeps matches with [T_s, T_t] ⊆ I.
	TemporalContain
	// TemporalDeparture keeps matches of trajectories departing inside
	// I (T_1 ∈ I). Its pre-filter is the binary search on
	// departure-sorted postings lists that §4.3 describes.
	TemporalDeparture
)

// Query bundles the search arguments of Definition 3 plus options.
type Query struct {
	Q   []traj.Symbol
	Tau float64
	// Ctx, when non-nil, cancels the query cooperatively: the engine
	// checks it between candidate groups in the verify loop (on every
	// fan-out worker) and per trajectory the top-k queue pops, returning
	// an error wrapping ctx.Err() — a slow query under a server deadline
	// stops within one trajectory group's verification instead of
	// running to completion. nil means run to completion.
	Ctx context.Context
	// Verify selects the verification mode/ablations; the zero value is
	// local verification: the word enumeration of each trajectory under a
	// unit-cost model and |Q| ≤ 64, else the walk of each candidate.
	Verify verify.Options
	// Parallelism caps the number of workers verifying this query: 0 =
	// auto (GOMAXPROCS), 1 = the sequential path (one verifier, cost rows
	// compiled once for every candidate), N > 1 = up to N workers over
	// contiguous ID ranges of the candidate array. It is a cap, not a
	// command: the engine sizes the fan-out from the query's estimated
	// work and keeps a small query on the caller's goroutine. Every
	// setting returns the identical sorted match set with identical WED
	// values, candidate counts and verify counters; only throughput
	// differs.
	Parallelism int
	// Temporal constrains matches to the window [Lo, Hi] under Mode.
	Temporal struct {
		Mode   TemporalMode
		Lo, Hi float64
		// DisablePrefilter skips the candidate-level interval prune
		// (the paper's "no-TF" configuration of Figure 12), checking
		// the constraint only after verification.
		DisablePrefilter bool
	}
}

// ErrEmptyQuery is returned for zero-length queries.
var ErrEmptyQuery = errors.New("core: empty query")

// ctxErr maps a context's cancellation into the engine's error space.
// A nil context (the default for library callers) never cancels. The
// returned error wraps ctx.Err(), so errors.Is(err,
// context.DeadlineExceeded) / context.Canceled hold and servers can map
// deadline expiry to 504.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: search canceled: %w", err)
	}
	return nil
}

// ErrTauTooLarge is wrapped by SearchQuery when τ > wed(ε, Q): beyond that
// threshold the empty subtrajectory "matches" and the problem is ill-posed
// (§2.3). Like filter.ErrInfeasible it marks a caller error — the query
// parameters, not the engine, are at fault — so servers map it to a 4xx.
var ErrTauTooLarge = errors.New("core: τ exceeds wed(ε, Q)")

// Search answers the subtrajectory similarity search of Definition 3 with
// default options. Matches are sorted by (ID, S, T) — every search path
// returns this canonical order (see traj.SortMatches), so repeated runs
// and different Parallelism settings are byte-for-byte comparable.
func (e *Engine) Search(q []traj.Symbol, tau float64) ([]traj.Match, error) {
	res, _, err := e.SearchQuery(Query{Q: q, Tau: tau})
	return res, err
}

// Threshold converts the paper's threshold ratio into an absolute τ for
// query q: τ = ratio · Σ_{q∈Q} c(q) (§6.1).
func (e *Engine) Threshold(q []traj.Symbol, ratio float64) float64 {
	return ratio * SumFilterCost(e.costs, q)
}

// SearchRatio is Search with τ derived from the threshold ratio.
func (e *Engine) SearchRatio(q []traj.Symbol, ratio float64) ([]traj.Match, error) {
	return e.Search(q, e.Threshold(q, ratio))
}

// SearchQuery answers a fully specified query and returns instrumentation.
func (e *Engine) SearchQuery(qr Query) ([]traj.Match, *QueryStats, error) {
	if len(qr.Q) == 0 {
		return nil, nil, ErrEmptyQuery
	}
	if wed.SumIns(e.costs, qr.Q) < qr.Tau {
		// Guard of §2.3: otherwise the empty subtrajectory "matches"
		// and the problem is ill-posed.
		return nil, nil, fmt.Errorf("%w: τ = %g, wed(ε, Q) = %g; query would match empty subtrajectories", ErrTauTooLarge, qr.Tau, wed.SumIns(e.costs, qr.Q))
	}
	stats := &QueryStats{}

	start := time.Now()
	plan, err := filter.BuildPlan(e.costs, e.idx, qr.Q, qr.Tau)
	stats.MinCandTime = time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	defer plan.Release()
	stats.SubseqLen, stats.PlusLen = len(plan.Subseq), len(plan.Subseq)+len(plan.Extra)
	stats.CSum = plan.CSum

	if err := ctxErr(qr.Ctx); err != nil {
		return nil, nil, err
	}
	// Under the default options, a unit-cost model and |Q| ≤ 64, every
	// trajectory is verified by two word scans over the windows around its
	// candidates (verify.Enumerate) instead of a walk per candidate, over
	// the masks the plan built.
	var masks verify.Masks
	if qr.Verify == (verify.Options{}) {
		masks = plan.Masks()
	}
	// One lookup over every posting source into one pooled buffer, one
	// grouping pass, then the fan-out — sized by the work the grouped
	// array stands for — over ID ranges of it.
	start = time.Now()
	buf := getCandBuf()
	cands := *buf
	// Deferred so a panicking cost model cannot leak the buffer.
	defer func() { *buf = cands; candBufs.Put(buf) }()
	cands = e.lookup(&qr, plan, cands)
	filter.GroupByTrajectory(cands)
	stats.LookupTime = time.Since(start)
	stats.Candidates = len(cands)
	stats.TrajPruned, stats.CandidatesPruned = plan.PrunedTrajectories, plan.PrunedCandidates

	work := searchWork(len(cands), len(qr.Q), qr.Tau, plan.CQ)
	if masks != nil {
		work = e.wordWork(cands, len(qr.Q), qr.Tau)
	}
	stats.Workers = fanOutWorkers(EffectiveParallelism(qr.Parallelism), work)
	res, err := e.verifyRanges(&qr, cands, masks, cutRanges(cands, stats.Workers), stats)
	if err != nil {
		return nil, nil, err
	}
	if qr.Temporal.Mode != TemporalNone {
		res = e.applyTemporal(res, qr.Temporal.Mode, qr.Temporal.Lo, qr.Temporal.Hi)
	}
	stats.Verify.Matches = len(res)
	return res, stats, nil
}

// applyTemporal keeps matches satisfying the exact constraint on the
// matched span's timestamps.
func (e *Engine) applyTemporal(res []traj.Match, mode TemporalMode, lo, hi float64) []traj.Match {
	out := res[:0]
	for _, m := range res {
		ts, te, ok := e.matchSpan(m)
		if !ok {
			continue // no temporal data: cannot satisfy a temporal constraint
		}
		keep := false
		switch mode {
		case TemporalOverlap:
			keep = ts <= hi && te >= lo
		case TemporalContain:
			keep = ts >= lo && te <= hi
		case TemporalDeparture:
			dep, ok := e.ds.Get(m.ID).Departure()
			keep = ok && dep >= lo && dep <= hi
		}
		if keep {
			out = append(out, m)
		}
	}
	return out
}

// matchSpan returns the [T_s, T_t] interval of a match. Under edge
// representation the matched edges span vertices S..T+1.
func (e *Engine) matchSpan(m traj.Match) (lo, hi float64, ok bool) {
	t := e.ds.Get(m.ID)
	if len(t.Times) == 0 {
		return 0, 0, false
	}
	s, x := int(m.S), int(m.T)
	if e.ds.Rep == traj.EdgeRep {
		x++
	}
	if x >= len(t.Times) {
		x = len(t.Times) - 1
	}
	return t.Times[s], t.Times[x], true
}

// SumFilterCost returns c(Q) = Σ c(q): the scale used to derive τ from the
// paper's τ_ratio (τ := τ_ratio · Σ c(q)).
func SumFilterCost(costs wed.FilterCosts, q []traj.Symbol) float64 {
	var s float64
	for _, sym := range q {
		s += costs.FilterCost(sym)
	}
	return s
}
