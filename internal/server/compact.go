package server

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"subtraj/internal/index"
)

// ErrFoldBusy is returned when a fold — a compaction or a checkpoint — is
// already in progress; callers retry later (the delta the running fold
// misses is picked up by the next one).
var ErrFoldBusy = errors.New("server: a compaction or checkpoint is already in progress")

// CompactionResult reports one completed fold.
type CompactionResult struct {
	// Generation is the published generation the fold landed at.
	Generation uint64 `json:"generation"`
	// Folded is how many trajectories the new frozen base covers.
	Folded int `json:"folded"`
	// DeltaBefore is the delta size the fold started from.
	DeltaBefore int `json:"delta_before"`
	// DurationMS is the wall time of the fold, almost all of it spent
	// outside the ingest mutex.
	DurationMS float64 `json:"duration_ms"`
}

// SetCompactAppends sets the delta size that triggers a background fold
// after an append (0 disables automatic compaction). Safe to call while
// ingest is live.
func (s *SafeEngine) SetCompactAppends(n int) { s.compactAppends.Store(int64(n)) }

// CompactAppends returns the automatic-compaction threshold.
func (s *SafeEngine) CompactAppends() int { return int(s.compactAppends.Load()) }

// Compactions returns how many folds have completed.
func (s *SafeEngine) Compactions() int64 { return s.compactions.Load() }

// Publishes returns how many snapshots have been published (including
// snapshot zero at construction).
func (s *SafeEngine) Publishes() int64 { return s.publishes.Load() }

// LastCompactionMS returns the wall time of the most recent fold in
// milliseconds (0 before the first).
func (s *SafeEngine) LastCompactionMS() float64 {
	return float64(s.lastCompactNS.Load()) / 1e6
}

// maybeFold starts a background fold after an append: a checkpoint when
// the engine is durable and its WAL has grown CheckpointBytes since the
// last checkpoint, else a compaction when the delta has outgrown
// CompactAppends. Single-flight: while one fold runs, appends keep growing
// the delta and the WAL and the next fold picks up the remainder.
func (s *SafeEngine) maybeFold() {
	if s.folding.Load() {
		return
	}
	d := s.dur
	persist := d != nil && d.ckptBytes > 0 && d.log.StatsSnapshot().Bytes-d.ckptMark.Load() >= d.ckptBytes
	if n := s.compactAppends.Load(); !persist && (n <= 0 || int64(s.DeltaLen()) < n) {
		return
	}
	go func() {
		// Only a checkpoint fails other than busy, and only a durable
		// engine checkpoints, so d is non-nil wherever it is read.
		_, ck, err := s.fold(persist)
		switch {
		case errors.Is(err, ErrFoldBusy):
		case err != nil:
			d.logger.Error("background checkpoint failed", "err", err)
		case ck != nil:
			d.logger.Info("checkpoint complete",
				"generation", ck.Generation,
				"index_bytes", ck.IndexBytes,
				"duration_ms", ck.DurationMS)
		}
	}()
}

// Compact folds the published delta into a fresh frozen base and
// publishes the result; see fold. Returns ErrFoldBusy if a fold is
// already running.
func (s *SafeEngine) Compact() (*CompactionResult, error) {
	res, _, err := s.fold(false)
	return res, err
}

// fold is the one way the index is rebuilt, for a compaction and for a
// checkpoint (persist) alike:
//
//  1. take the single-flight flag;
//  2. build a fresh arena over the published snapshot's dataset prefix,
//     outside the ingest mutex, so searches and appends proceed;
//  3. under the ingest mutex, rebase the writer onto it — re-indexing the
//     appends that landed during the build — and publish. The fold moves
//     no data, so it publishes at the current generation and cached
//     results stay valid;
//  4. a checkpoint then writes the arena to index.compact, outside the
//     mutex again.
//
// A crash before step 4's rename leaves the previous arena on disk, over
// a shorter prefix of the log; recovery maps an arena over any prefix of
// the dataset (index.OpenPrefix), so that window is a delta to re-index,
// not a rebuild.
func (s *SafeEngine) fold(persist bool) (*CompactionResult, *CheckpointResult, error) {
	if !s.folding.CompareAndSwap(false, true) {
		return nil, nil, ErrFoldBusy
	}
	defer s.folding.Store(false)
	start := time.Now()

	st := s.state.Load()
	var mark int64
	if persist {
		mark = s.dur.log.StatsSnapshot().Bytes
	}
	view := st.eng.Dataset()
	res := &CompactionResult{Generation: st.gen, Folded: view.Len(), DeltaBefore: st.eng.DeltaLen()}
	if res.DeltaBefore == 0 && !persist {
		return res, nil, nil
	}
	// st.eng's dataset is a fixed prefix view, so the build races with
	// nothing.
	base := index.Build(view)

	crashPoint("compact-fold")

	s.ingestMu.Lock()
	s.writer.Rebase(base)
	s.publishLocked()
	res.Generation = s.state.Load().gen
	s.ingestMu.Unlock()

	if !persist {
		s.compactions.Add(1)
		s.lastCompactNS.Store(int64(time.Since(start)))
		res.DurationMS = float64(time.Since(start)) / 1e6
		return res, nil, nil
	}
	size, err := s.dur.writeIndex(base)
	if err != nil {
		s.dur.ckptErrs.Add(1)
		return nil, nil, fmt.Errorf("server: checkpoint index: %w", err)
	}
	s.dur.ckptMark.Store(mark)
	s.dur.checkpoints.Add(1)
	// The log holds every append since the directory was created, so the
	// view's durable generation is what recovery replayed plus what this
	// process appended before the view.
	ck := &CheckpointResult{
		Generation: uint64(s.dur.replayed.Load()) + st.gen,
		IndexBytes: size,
		DurationMS: float64(time.Since(start)) / 1e6,
	}
	return res, ck, nil
}

// crashHook, when set, is called at named points of the write path so
// crash tests can kill the process at adversarial moments (between fold
// and publish, for instance) and prove recovery replays the WAL without
// loss or duplication. Nil in production.
var crashHook atomic.Pointer[func(string)]

// SetCrashHook installs f as the process-wide crash-point hook (nil to
// clear). Test-only; cmd/wedserve wires it to SUBTRAJ_CRASH_POINT.
func SetCrashHook(f func(string)) {
	if f == nil {
		crashHook.Store(nil)
		return
	}
	crashHook.Store(&f)
}

func crashPoint(name string) {
	if f := crashHook.Load(); f != nil {
		(*f)(name)
	}
}
