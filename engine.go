package subtraj

import (
	"errors"
	"fmt"
	"io"

	"subtraj/internal/core"
	"subtraj/internal/index"
	"subtraj/internal/traj"
)

// Engine answers subtrajectory similarity queries over one dataset and one
// WED cost model. Build once, query many times; Append supports
// incremental updates. Queries never write engine state, so any number
// may run concurrently; Append is the one write, and needs a SafeEngine
// (or the caller's own serialization) to run beside them.
type Engine struct {
	inner *core.Engine
}

// NewEngine indexes the dataset under the cost model. The dataset's
// representation must match the cost model's alphabet (vertex models: Lev,
// EDR, ERP, NetEDR, NetERP; edge models: Lev, SURS) — the engine cannot
// check this, so mixing them silently searches the wrong alphabet.
func NewEngine(ds *Dataset, costs FilterCosts) (*Engine, error) {
	if ds == nil || costs == nil {
		return nil, errors.New("subtraj: nil dataset or cost model")
	}
	return &Engine{inner: core.NewEngine(ds, costs)}, nil
}

// SaveIndex writes the engine's index — the arena, in the versioned
// format OpenMappedEngine maps back — to w. Appended trajectories live in
// a delta beside the arena, so an engine with appends cannot save:
// build a new engine over its dataset first.
func (e *Engine) SaveIndex(w io.Writer) error {
	c, ok := e.inner.Backend().(*index.Compact)
	if !ok {
		return errors.New("subtraj: the index has unfolded appends; build a new engine over the dataset before saving")
	}
	return c.Save(w)
}

// ErrStaleIndex is wrapped by OpenMappedEngine's error when the path holds
// no index file, or one of an older format version: build the engine with
// NewEngine and save its index again.
var ErrStaleIndex = index.ErrStale

// OpenMappedEngine builds an engine over ds from an index file written by
// SaveIndex, mapped zero-copy (the postings live in the page cache, not
// the Go heap). The file must index a prefix of ds's trajectories — all
// of them, or the first n when ds has grown since the save — and the
// trajectories after it are indexed as appends. A file built over other
// trajectories is refused by the dataset hash in its header; a missing
// file or one of an older format version is refused with an error that
// wraps ErrStaleIndex, so a caller knows to rebuild. The mapping is
// released when the process exits or the returned close function is
// called (after which the engine must not be used).
func OpenMappedEngine(ds *Dataset, costs FilterCosts, path string) (*Engine, func() error, error) {
	if ds == nil || costs == nil {
		return nil, nil, errors.New("subtraj: nil dataset or cost model")
	}
	c, err := index.OpenPrefix(path, ds)
	if err != nil {
		return nil, nil, fmt.Errorf("subtraj: %w; rebuild the index from this dataset", err)
	}
	eng := &Engine{inner: core.NewEngineWithBackend(ds, c, costs)}
	return eng, c.Close, nil
}

// IndexBytes returns the index's memory footprint: the arena, plus a heap
// estimate for appended trajectories.
func (e *Engine) IndexBytes() int64 { return e.inner.IndexBytes() }

// Inner exposes the internal engine for the experiment harness.
func (e *Engine) Inner() *core.Engine { return e.inner }

// Dataset returns the indexed dataset.
func (e *Engine) Dataset() *Dataset { return e.inner.Dataset() }

// Costs returns the engine's cost model.
func (e *Engine) Costs() FilterCosts { return e.inner.Costs() }

// Append indexes one more trajectory and returns its ID — the paper's
// incremental update (§4.1). The index built at construction is never
// modified: appended trajectories go into a delta beside it that every
// query reads after the base, and stay there. An Engine does not fold
// that delta back; after many appends rebuild the engine, or use a
// SafeEngine, whose background compactor folds it.
func (e *Engine) Append(t Trajectory) int32 { return e.inner.Append(t) }

// Search returns every match with wed(P[s..t], Q) < tau (Definition 3),
// sorted by (ID, S, T), each carrying its exact distance.
func (e *Engine) Search(q []Symbol, tau float64) ([]Match, error) {
	return e.inner.Search(q, tau)
}

// SearchRatio derives τ from the paper's threshold ratio:
// τ = ratio · Σ_{q∈Q} c(q) (§6.1).
func (e *Engine) SearchRatio(q []Symbol, ratio float64) ([]Match, error) {
	return e.inner.Search(q, e.Threshold(q, ratio))
}

// Threshold converts a τ_ratio into an absolute τ for query q.
func (e *Engine) Threshold(q []Symbol, ratio float64) float64 {
	return ratio * core.SumFilterCost(e.inner.Costs(), q)
}

// SearchStats searches with explicit verification options and returns
// instrumentation (candidate counts, time breakdown, UPR/CMR).
func (e *Engine) SearchStats(q []Symbol, tau float64, vopts VerifyOptions) ([]Match, *QueryStats, error) {
	return e.inner.SearchQuery(core.Query{Q: q, Tau: tau, Verify: vopts})
}

// SearchParallel is Search with an explicit worker cap: 0 = auto (one
// worker per CPU), 1 = sequential, N > 1 = up to N workers verifying
// contiguous ranges of the candidates concurrently. It is a cap: the
// engine sizes the fan-out from the query's estimated work and answers
// small queries on the calling goroutine. Every setting returns the
// identical (ID, S, T)-sorted match set.
func (e *Engine) SearchParallel(q []Symbol, tau float64, parallelism int) ([]Match, error) {
	res, _, err := e.inner.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: parallelism})
	return res, err
}

// TemporalWindow is a query time interval I = [Lo, Hi] in dataset seconds.
type TemporalWindow struct {
	Lo, Hi float64
	// Contain requires [T_s, T_t] ⊆ I; the default requires overlap,
	// [T_s, T_t] ∩ I ≠ ∅ (§4.3).
	Contain bool
	// Departure requires the matched trajectory to depart inside I
	// (T_1 ∈ I); its pre-filter binary-searches departure-sorted
	// postings lists (§4.3). Takes precedence over Contain.
	Departure bool
	// NoPrefilter disables the candidate-level temporal prune, checking
	// the constraint only after verification (the paper's "no-TF").
	NoPrefilter bool
}

// SearchTemporal answers a temporally constrained query: matches must
// satisfy the window constraint on the timestamps at their endpoints.
func (e *Engine) SearchTemporal(q []Symbol, tau float64, w TemporalWindow) ([]Match, *QueryStats, error) {
	qr := core.Query{Q: q, Tau: tau}
	qr.Temporal.Lo, qr.Temporal.Hi = w.Lo, w.Hi
	qr.Temporal.DisablePrefilter = w.NoPrefilter
	switch {
	case w.Departure:
		qr.Temporal.Mode = core.TemporalDeparture
	case w.Contain:
		qr.Temporal.Mode = core.TemporalContain
	default:
		qr.Temporal.Mode = core.TemporalOverlap
	}
	return e.inner.SearchQuery(qr)
}

// SearchTopK returns the best-matching subtrajectory of each of the k
// most similar trajectories, ordered by ascending WED (§6.2.1's top-k
// protocol). See core.Engine.SearchTopK for the searchable-radius caveat.
func (e *Engine) SearchTopK(q []Symbol, k int) ([]Match, error) {
	return e.inner.SearchTopK(q, k)
}

// SearchTopKStats is SearchTopK with options and the driver's QueryStats
// (queue counters, final effective τ — see core.Engine.SearchTopKStats).
func (e *Engine) SearchTopKStats(q []Symbol, k int, opts TopKOptions) ([]Match, *QueryStats, error) {
	return e.inner.SearchTopKStats(q, k, opts)
}

// SearchExact answers the exact path query (the paper's §1 baseline):
// every subtrajectory equal to Q symbol for symbol, found via the rarest
// query symbol's postings with no dynamic programming.
func (e *Engine) SearchExact(q []Symbol) ([]Match, error) {
	return e.inner.SearchExact(q)
}

// CountExact returns the exact occurrence count of Q — path popularity
// estimation (§1).
func (e *Engine) CountExact(q []Symbol) (int, error) {
	return e.inner.CountExact(q)
}

// BestPerTrajectory reduces a match set to the paper's effectiveness-
// experiment convention (§6.2.1): one match per trajectory — the smallest
// WED, ties broken by the shortest subtrajectory, then by position.
func BestPerTrajectory(ms []Match) map[int32]Match {
	best := make(map[int32]Match)
	for _, m := range ms {
		b, ok := best[m.ID]
		if !ok || traj.Better(m, b) {
			best[m.ID] = m
		}
	}
	return best
}
