package subtraj

import (
	"errors"
	"fmt"

	"subtraj/internal/core"
	"subtraj/internal/index"
	"subtraj/internal/server"
	"subtraj/internal/traj"
)

// Re-exported engine types, aliased like the data model in subtraj.go.
type (
	// Engine answers subtrajectory similarity queries over one dataset
	// and one WED cost model. Build once, query many times; Append
	// supports incremental updates. Queries never write engine state, so
	// any number may run concurrently; Append is the one write, and needs
	// a SafeEngine (or the caller's own serialization) to run beside
	// them.
	Engine = core.Engine
	// SafeEngine makes an Engine safe for concurrent use: queries read an
	// immutable published snapshot through one atomic load, Append takes
	// a narrow ingest mutex and publishes the next snapshot, and a
	// background fold absorbs the append delta into the frozen base (see
	// DESIGN.md §1.11). cmd/wedserve serves HTTP traffic through it.
	SafeEngine = server.SafeEngine
	// Query is one search (Q, τ) of Definition 3 with its options: the
	// §4.3 temporal window, verification mode, worker cap and
	// cancellation. Engine.SearchQuery and SafeEngine.SearchQuery answer
	// it with instrumentation.
	Query = core.Query
	// TemporalMode selects the §4.3 constraint form of Query.Temporal.
	TemporalMode = core.TemporalMode
)

// Temporal constraint forms (§4.3).
const (
	// TemporalNone applies no temporal constraint.
	TemporalNone = core.TemporalNone
	// TemporalOverlap keeps matches with [T_s, T_t] ∩ I ≠ ∅.
	TemporalOverlap = core.TemporalOverlap
	// TemporalContain keeps matches with [T_s, T_t] ⊆ I.
	TemporalContain = core.TemporalContain
	// TemporalDeparture keeps matches of trajectories departing inside
	// I (T_1 ∈ I), pre-filtered on departure-sorted postings lists.
	TemporalDeparture = core.TemporalDeparture
)

// NewEngine indexes the dataset under the cost model. The dataset's
// representation must match the cost model's alphabet (vertex models: Lev,
// EDR, ERP, NetEDR, NetERP; edge models: Lev, SURS) — the engine cannot
// check this, so mixing them silently searches the wrong alphabet.
func NewEngine(ds *Dataset, costs FilterCosts) (*Engine, error) {
	if ds == nil || costs == nil {
		return nil, errors.New("subtraj: nil dataset or cost model")
	}
	return core.NewEngine(ds, costs), nil
}

// NewSafeEngine wraps e. The wrapper must be the only user of e from then
// on; keeping a copy of e and querying it directly reintroduces the race.
func NewSafeEngine(e *Engine) *SafeEngine { return server.NewSafeEngine(e) }

// ErrStaleIndex is wrapped by OpenMappedEngine's error when the path holds
// no index file, or one of an older format version: build the engine with
// NewEngine and save its index again.
var ErrStaleIndex = index.ErrStale

// OpenMappedEngine builds an engine over ds from an index file written by
// Engine.SaveIndex, mapped zero-copy (the postings live in the page cache,
// not the Go heap). The file must index a prefix of ds's trajectories — all
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
	return core.NewEngineWithBackend(ds, c, costs), c.Close, nil
}

// BestPerTrajectory reduces a match set to the paper's effectiveness-
// experiment convention (§6.2.1): one match per trajectory — the smallest
// WED, ties broken by the shortest subtrajectory, then by position.
func BestPerTrajectory(ms []Match) map[int32]Match { return traj.BestPerTrajectory(ms) }
