// Package server turns the in-process search engine into a long-running,
// concurrent query-serving subsystem: a thread-safe engine wrapper
// (SafeEngine), a bounded worker pool capping in-flight verifications, a
// generation-tagged LRU result cache, and an HTTP JSON API with running
// statistics. It is the seam later scaling work (sharding, replication,
// persistence) plugs into: everything above SafeEngine sees a safe,
// observable query service rather than a single-threaded library.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"subtraj/internal/core"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// SafeEngine makes a core.Engine safe for concurrent use with epoch
// snapshots instead of a reader/writer lock (DESIGN.md §1.11). Every
// query loads the current immutable engineState through one atomic
// pointer and runs entirely against it — the read path acquires no
// mutex, ever. Appends serialize on a narrow ingest mutex, go through
// the writer engine — which extends the master dataset and its delta
// index — and publish a fresh core.Engine.Snapshot; a background
// compactor periodically folds the delta into a new base so delta cost
// stays bounded. Durable engines share the same discipline: the WAL
// append and the dataset extension both happen under the ingest mutex,
// so the log's generation and the published one move together; a
// checkpoint is a fold that also persists its arena (fold).
//
// Every Append bumps the published generation; result caches key their
// entries on it so stale answers die with the generation instead of
// needing an explicit invalidation channel. Compaction and checkpoints
// change the index representation but not its contents, so they publish
// at the current generation and cached results stay valid.
type SafeEngine struct {
	// state is the currently published snapshot. Searches Load it once
	// and never look back; the writer Stores a fresh state after every
	// mutation. Never nil after construction.
	state atomic.Pointer[engineState]

	// ingestMu serializes all writers: appends and a fold's publish
	// step. No index build or arena write runs under it. Searches never
	// touch it.
	ingestMu sync.Mutex
	writer   *core.Engine // guarded by ingestMu — owns the master dataset, the base and the delta

	// initialLen is the dataset length at construction; the published
	// generation is ds.Len()−initialLen, i.e. appends observed by this
	// wrapper. Immutable after construction.
	initialLen int

	// compactAppends is the delta size that triggers a background fold
	// (0 = never compact automatically). Atomic so tests and servers may
	// retune it while ingest is live.
	compactAppends atomic.Int64
	folding        atomic.Bool // the single-flight flag of fold
	compactions    atomic.Int64
	lastCompactNS  atomic.Int64
	publishes      atomic.Int64

	// dur, when non-nil, makes every append write-ahead durable: the
	// batch is framed into the WAL (and fsynced per policy) before it is
	// applied to the in-memory engine, so an acknowledged append survives
	// a crash. Nil = volatile engine, appends behave exactly as before.
	// Written once by OpenDurable before the engine is shared, then
	// read-only — so it is deliberately NOT guarded by ingestMu.
	dur *Durability
}

// engineState is one published snapshot: an immutable engine over a
// fixed prefix of the master dataset, and the generation it shows.
type engineState struct {
	eng *core.Engine
	gen uint64
}

// NewSafeEngine wraps eng. The wrapper must be the only user of eng from
// then on: bypassing it reintroduces the data race it exists to prevent.
// eng becomes the writer — its dataset the master dataset, its base and
// delta the first published view (so construction publishes snapshot
// zero without copying anything).
//
//subtrajlint:locked ingestMu — s is private to this constructor
func NewSafeEngine(eng *core.Engine) *SafeEngine {
	s := &SafeEngine{writer: eng, initialLen: eng.Dataset().Len()}
	s.publishLocked()
	return s
}

// publishLocked stores a snapshot of the writer as the new published
// state. O(1) whatever the delta size: the writer's delta map already
// indexes the unfolded tail and a snapshot shares its bounded view.
// That, plus the delta answering temporal windows by scan instead of a
// per-publish sort, is what keeps a sustained append stream from
// starving searches of CPU.
//
//subtrajlint:locked ingestMu — every caller holds the ingest mutex (or is the constructor)
func (s *SafeEngine) publishLocked() {
	eng := s.writer.Snapshot()
	s.state.Store(&engineState{eng: eng, gen: uint64(eng.Dataset().Len() - s.initialLen)})
	s.publishes.Add(1)
}

// Unsafe returns the currently published engine for single-threaded
// phases (bulk loading before serving starts). Callers must not mutate
// through it concurrently with the wrapper's own methods — a published
// engine is an immutable snapshot, and writes through it are invisible
// to the wrapper until its next publish.
func (s *SafeEngine) Unsafe() *core.Engine { return s.state.Load().eng }

// Generation returns the number of Appends applied so far. Two calls
// returning the same value bracket a window in which the dataset did not
// change, which is what makes it usable as a cache-validity tag.
func (s *SafeEngine) Generation() uint64 { return s.state.Load().gen }

// Append indexes one more trajectory and returns its ID. On a durable
// engine the record hits the write-ahead log first; a WAL failure
// returns an error and the engine state is unchanged (the append is
// neither applied nor acknowledged).
func (s *SafeEngine) Append(t traj.Trajectory) (int32, error) {
	ids, err := s.AppendBatch([]traj.Trajectory{t})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// AppendBatch indexes several trajectories under one ingest-mutex
// acquisition and publishes one snapshot covering all of them, so the
// generation advances by len(ts) and each appended trajectory
// invalidates caches exactly as if appended alone. Concurrent searches
// are never blocked: they keep answering from the previous snapshot
// until the new one is stored. The GPS ingestion path appends each
// matched trace's segments through this.
//
// On a durable engine the whole batch is logged as one atomic WAL frame
// before any of it is applied: after a crash either every trajectory of
// the batch is recovered or none is. A WAL failure fails the batch
// without applying anything.
func (s *SafeEngine) AppendBatch(ts []traj.Trajectory) ([]int32, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	s.ingestMu.Lock()
	if s.dur != nil {
		if err := s.dur.log.Append(ts); err != nil {
			s.ingestMu.Unlock()
			return nil, fmt.Errorf("server: durable append: %w", err)
		}
	}
	ids := s.writer.AppendBatch(ts)
	s.publishLocked()
	s.ingestMu.Unlock()
	s.maybeFold()
	return ids, nil
}

// NumTrajectories returns the published dataset size.
func (s *SafeEngine) NumTrajectories() int { return s.state.Load().eng.Dataset().Len() }

// DeltaLen returns how many appended trajectories the published
// snapshot's delta holds (0 right after a compaction or checkpoint).
func (s *SafeEngine) DeltaLen() int { return s.state.Load().eng.DeltaLen() }

// FoldedLen returns how many trajectories the published snapshot's
// frozen base covers.
func (s *SafeEngine) FoldedLen() int {
	eng := s.state.Load().eng
	return eng.Dataset().Len() - eng.DeltaLen()
}

// Costs returns the engine's cost model (immutable after construction).
func (s *SafeEngine) Costs() wed.FilterCosts { return s.state.Load().eng.Costs() }

// Threshold converts a τ_ratio into an absolute τ for query q.
func (s *SafeEngine) Threshold(q []traj.Symbol, ratio float64) float64 {
	return s.state.Load().eng.Threshold(q, ratio)
}

// Search answers a similarity search against the current snapshot.
func (s *SafeEngine) Search(q []traj.Symbol, tau float64) ([]traj.Match, error) {
	res, _, err := s.SearchQuery(core.Query{Q: q, Tau: tau})
	return res, err
}

// SearchQuery answers a fully specified query against the current
// snapshot, with no lock on the read path. A TemporalDeparture query
// never waits on an index rebuild: the arena holds its departure order,
// and the delta answers windows by a bounded filtered scan.
func (s *SafeEngine) SearchQuery(qr core.Query) ([]traj.Match, *core.QueryStats, error) {
	return s.state.Load().eng.SearchQuery(qr)
}

// SearchTopK answers the top-k protocol against the current snapshot.
func (s *SafeEngine) SearchTopK(q []traj.Symbol, k int) ([]traj.Match, error) {
	res, _, err := s.SearchTopKStats(q, k, core.TopKOptions{})
	return res, err
}

// SearchTopKStats answers the top-k protocol against the current
// snapshot and returns the driver's QueryStats (queue counters, final
// effective τ — see core.Engine.SearchTopKStats). The whole queue is
// worked off one snapshot, so appends landing meanwhile cannot skew the
// threshold.
func (s *SafeEngine) SearchTopKStats(q []traj.Symbol, k int, opts core.TopKOptions) ([]traj.Match, *core.QueryStats, error) {
	return s.state.Load().eng.SearchTopKStats(q, k, opts)
}

// IndexBytes returns the published index's memory footprint.
func (s *SafeEngine) IndexBytes() int64 { return s.state.Load().eng.IndexBytes() }

// PrepareTemporal does nothing: the arena is built with its departure
// order. Kept only because benchmark/trace.go calls it; it goes when
// the benchmark stops calling it.
func (s *SafeEngine) PrepareTemporal() {}

// SearchExact answers the exact path query against the current snapshot.
func (s *SafeEngine) SearchExact(q []traj.Symbol) ([]traj.Match, error) {
	return s.state.Load().eng.SearchExact(q)
}

// CountExact returns the exact occurrence count against the current
// snapshot.
func (s *SafeEngine) CountExact(q []traj.Symbol) (int, error) {
	return s.state.Load().eng.CountExact(q)
}
