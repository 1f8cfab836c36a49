package server

import (
	"errors"
	"sync/atomic"
	"time"
)

// ErrCompactionBusy is returned when a fold is already in progress;
// callers retry later (the delta the running fold misses is picked up
// by the next one).
var ErrCompactionBusy = errors.New("server: compaction already in progress")

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

// maybeCompact starts a background fold when the published delta has
// outgrown the configured threshold. Single-flight: while one fold
// runs, appends keep growing the delta and the next fold picks up the
// remainder.
func (s *SafeEngine) maybeCompact() {
	n := s.compactAppends.Load()
	if n <= 0 || s.compactInFlight.Load() {
		return
	}
	if int64(s.DeltaLen()) < n {
		return
	}
	go func() {
		// ErrCompactionBusy means another fold won the race — fine.
		_, _ = s.Compact()
	}()
}

// Compact folds the published delta into a fresh frozen base and
// publishes the result. The expensive part — building the new base over
// a fixed prefix of the dataset — happens entirely outside the ingest
// mutex, so searches AND appends proceed during the fold; only the
// final publish (rebasing the writer, which re-indexes whatever small
// delta accumulated meanwhile, and swapping the state pointer) runs
// under the mutex. The fold does not change the dataset contents, so it
// publishes at the current generation and cached results stay valid.
//
// Returns ErrCompactionBusy if a fold is already running.
func (s *SafeEngine) Compact() (*CompactionResult, error) {
	if !s.compactInFlight.CompareAndSwap(false, true) {
		return nil, ErrCompactionBusy
	}
	defer s.compactInFlight.Store(false)
	start := time.Now()

	st := s.state.Load()
	deltaBefore := st.eng.DeltaLen()
	if deltaBefore == 0 {
		return &CompactionResult{Generation: st.gen, Folded: st.eng.Dataset().Len()}, nil
	}

	// Fold off-lock: the new base covers exactly the prefix this
	// snapshot sees. st.eng's dataset is a fixed prefix view, so the
	// build races with nothing.
	view := st.eng.Dataset()
	base := st.eng.Backend().Rebuild(view)
	if st.eng.Backend().TemporalReady() {
		// The old base's temporal view was built; build the new one's
		// off-lock too so readiness never flaps backwards.
		base.BuildTemporal()
	}

	crashPoint("compact-fold")

	s.ingestMu.Lock()
	s.writer.Rebase(base)
	s.publishLocked()
	pub := s.state.Load()
	s.ingestMu.Unlock()

	s.compactions.Add(1)
	s.lastCompactNS.Store(int64(time.Since(start)))
	return &CompactionResult{
		Generation:  pub.gen,
		Folded:      view.Len(),
		DeltaBefore: deltaBefore,
		DurationMS:  float64(time.Since(start)) / 1e6,
	}, nil
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
