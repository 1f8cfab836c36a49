package subtraj

import (
	"subtraj/internal/core"
	"subtraj/internal/server"
)

// SafeEngine is a thread-safe façade over an Engine: queries read an
// immutable published snapshot through one atomic load (no lock at all
// on the read path), Append takes a narrow ingest mutex and publishes
// the next snapshot, and a background fold periodically absorbs the
// append delta into the frozen base (see DESIGN.md §1.11). Use it
// whenever more than one goroutine touches the same engine — the plain
// Engine has no synchronization at all. cmd/wedserve serves HTTP
// traffic through exactly this wrapper.
type SafeEngine struct {
	inner *server.SafeEngine
}

// NewSafeEngine wraps e. The wrapper must be the only user of e from then
// on; keeping a copy of e and querying it directly reintroduces the race.
func NewSafeEngine(e *Engine) *SafeEngine {
	return &SafeEngine{inner: server.NewSafeEngine(e.inner)}
}

// Inner exposes the internal wrapper for the server package and the
// experiment harness.
func (s *SafeEngine) Inner() *server.SafeEngine { return s.inner }

// Generation counts Appends; caches use it as a validity tag.
func (s *SafeEngine) Generation() uint64 { return s.inner.Generation() }

// Append indexes one more trajectory and returns its ID. The error is
// always nil on a volatile engine; on a durable one (server.OpenDurable)
// it surfaces write-ahead-log failures, in which case nothing was
// applied.
func (s *SafeEngine) Append(t Trajectory) (int32, error) { return s.inner.Append(t) }

// AppendBatch indexes several trajectories under one ingest-mutex
// acquisition (the GPS ingestion path) and returns their IDs in order.
// On a durable engine the batch is logged as one atomic frame; on error
// nothing was applied.
func (s *SafeEngine) AppendBatch(ts []Trajectory) ([]int32, error) { return s.inner.AppendBatch(ts) }

// Search returns every match with wed(P[s..t], Q) < tau.
func (s *SafeEngine) Search(q []Symbol, tau float64) ([]Match, error) {
	return s.inner.Search(q, tau)
}

// SearchRatio derives τ from the paper's threshold ratio.
func (s *SafeEngine) SearchRatio(q []Symbol, ratio float64) ([]Match, error) {
	return s.inner.Search(q, s.Threshold(q, ratio))
}

// Threshold converts a τ_ratio into an absolute τ for query q.
func (s *SafeEngine) Threshold(q []Symbol, ratio float64) float64 {
	return s.inner.Threshold(q, ratio)
}

// SearchStats searches with explicit verification options and returns
// instrumentation.
func (s *SafeEngine) SearchStats(q []Symbol, tau float64, vopts VerifyOptions) ([]Match, *QueryStats, error) {
	return s.inner.SearchQuery(core.Query{Q: q, Tau: tau, Verify: vopts})
}

// SearchTemporal answers a temporally constrained query (see
// Engine.SearchTemporal).
func (s *SafeEngine) SearchTemporal(q []Symbol, tau float64, w TemporalWindow) ([]Match, *QueryStats, error) {
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
	return s.inner.SearchQuery(qr)
}

// SearchTopK returns the best-matching subtrajectory of each of the k
// most similar trajectories (see Engine.SearchTopK).
func (s *SafeEngine) SearchTopK(q []Symbol, k int) ([]Match, error) {
	return s.inner.SearchTopK(q, k)
}

// SearchTopKStats is SearchTopK with options and the driver's QueryStats
// (see Engine.SearchTopKStats), against one snapshot — the whole queue is
// worked off a single generation.
func (s *SafeEngine) SearchTopKStats(q []Symbol, k int, opts TopKOptions) ([]Match, *QueryStats, error) {
	return s.inner.SearchTopKStats(q, k, opts)
}

// SearchExact answers the exact path query.
func (s *SafeEngine) SearchExact(q []Symbol) ([]Match, error) {
	return s.inner.SearchExact(q)
}

// CountExact returns the exact occurrence count of Q.
func (s *SafeEngine) CountExact(q []Symbol) (int, error) {
	return s.inner.CountExact(q)
}
