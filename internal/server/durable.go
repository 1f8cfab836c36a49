package server

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"subtraj/internal/core"
	"subtraj/internal/index"
	"subtraj/internal/obs"
	"subtraj/internal/traj"
	"subtraj/internal/wal"
	"subtraj/internal/wed"
)

// This file is the crash-safety layer: a SafeEngine whose appends are
// write-ahead logged, checkpointed, and recoverable. The durable state
// lives in one directory:
//
//	wal.log        every trajectory appended since the directory was
//	               created; nothing but a torn tail is ever cut from it
//	index.compact  the mmap-able arena over a prefix of base + log, written
//	               by the last checkpoint (absent or of an older format
//	               version, it is rebuilt)
//
// The base workload (the trajectories loaded before OpenDurable) is the
// caller's responsibility to reproduce — it is the deterministic part;
// the durable directory persists only what arrived over the wire.
//
// The log is the only record of the appended trajectories; the arena is
// derived from them. Recovery replays the log, truncating a torn tail to
// the last valid frame — acknowledged records are always before the tear
// because acks follow the (policy-dependent) fsync — and maps the arena
// over whatever prefix of the result it covers.
const (
	walFile   = "wal.log"
	indexFile = "index.compact"
)

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync wal.SyncPolicy
	// SyncInterval is the flush period for wal.SyncInterval (default 100ms).
	SyncInterval time.Duration
	// CheckpointBytes triggers an automatic background checkpoint when the
	// WAL has grown by it since the last checkpoint (0 = only explicit
	// /v1/checkpoint requests).
	CheckpointBytes int64
	// Logger receives recovery and background-checkpoint reports
	// (nil = slog.Default()).
	Logger *slog.Logger
}

// RecoveryInfo reports what OpenDurable found and did.
type RecoveryInfo struct {
	// ReplayedRecords is the number of WAL records applied to the base
	// workload: every append the log holds.
	ReplayedRecords int64
	// TailTruncated reports that the WAL ended in a torn or corrupt frame
	// that recovery cut off; TruncateReason says why.
	TailTruncated  bool
	TruncateReason string
	// WALBytes is the surviving log size.
	WALBytes int64
	// IndexMapped reports that the arena was mmapped from index.compact
	// rather than rebuilt from the dataset.
	IndexMapped bool
}

// ErrNotDurable is returned by Checkpoint on a volatile engine.
var ErrNotDurable = errors.New("server: engine has no durability (no --wal-dir)")

// Durability is the write-ahead state attached to a durable SafeEngine:
// the WAL writer, the checkpoint trigger, and the counters the metrics
// and health endpoints expose.
type Durability struct {
	dir       string
	log       *wal.Writer
	ckptBytes int64
	logger    *slog.Logger

	// ckptMark is the log size when the last checkpoint's fold started:
	// the next background checkpoint fires ckptBytes past it.
	ckptMark    atomic.Int64
	checkpoints atomic.Int64
	ckptErrs    atomic.Int64
	replayed    atomic.Int64
	fsyncHist   atomic.Pointer[obs.Histogram]
}

// Dir returns the durable directory.
func (d *Durability) Dir() string { return d.dir }

// WALStats snapshots the log's counters.
func (d *Durability) WALStats() wal.Stats { return d.log.StatsSnapshot() }

// SyncPolicy returns the WAL fsync policy name.
func (d *Durability) SyncPolicy() string { return d.log.Policy().String() }

// Checkpoints returns the number of completed checkpoints this process.
func (d *Durability) Checkpoints() int64 { return d.checkpoints.Load() }

// CheckpointErrors returns the number of failed checkpoint attempts.
func (d *Durability) CheckpointErrors() int64 { return d.ckptErrs.Load() }

// ReplayedRecords returns how many WAL records startup recovery applied.
func (d *Durability) ReplayedRecords() int64 { return d.replayed.Load() }

// SetFsyncObserver routes WAL fsync durations into h (the server's
// subtraj_wal_fsync_seconds histogram). The WAL writer outlives any one
// Server, so the hook indirects through an atomic pointer.
func (d *Durability) SetFsyncObserver(h *obs.Histogram) { d.fsyncHist.Store(h) }

func (d *Durability) observeFsync(took time.Duration) {
	if h := d.fsyncHist.Load(); h != nil {
		h.Observe(took.Seconds())
	}
}

// Close flushes and closes the WAL.
func (d *Durability) Close() error { return d.log.Close() }

// Durable returns the engine's durability state, or nil for a volatile
// engine.
func (s *SafeEngine) Durable() *Durability { return s.dur }

// OpenDurable builds a durable SafeEngine over the base dataset plus
// everything the durable directory remembers: the WAL is replayed into
// ds — any torn tail physically truncated, failing closed on a record
// whose timestamps do not fit its path (traj.CheckTimes) — and the
// checkpointed arena is mapped as the base, the trajectories after its
// prefix becoming the delta (or, with none of this format version, an
// arena is built over the result). The returned engine logs every
// subsequent append write-ahead.
//
// ds must hold exactly the reproducible base workload (the trajectories
// present before the durable directory was first used); OpenDurable
// appends the recovered tail to it. A checkpointed arena that is not over
// a prefix of the recovered dataset — a restart with another base
// workload — is an error, not a silent rebuild. So is a directory in the
// layout of older builds, which kept part of the appended tail outside
// the log: serving from the log alone would drop it.
func OpenDurable(dir string, ds *traj.Dataset, costs wed.FilterCosts, opts DurableOptions) (*SafeEngine, *RecoveryInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: durable dir: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.traj")); err == nil {
		return nil, nil, fmt.Errorf("server: %s holds snapshot.traj, written by an older build that rotated the WAL into it; this build recovers from the WAL alone, so delete the durable directory to restart from the base workload", dir)
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	baseLen := ds.Len()

	// 1. Replay the whole log into the dataset, truncate any torn tail,
	// and resume appending at the end. Every replayed record passes the
	// rule a live append passed.
	dur := &Durability{dir: dir, ckptBytes: opts.CheckpointBytes, logger: opts.Logger}
	wopts := wal.Options{Policy: opts.Sync, Interval: opts.SyncInterval, OnFsync: dur.observeFsync}
	w, winfo, err := wal.OpenOrCreate(filepath.Join(dir, walFile), wopts, func(r wal.Record) error {
		t := traj.Trajectory{Path: r.Path, Times: r.Times}
		if err := t.CheckTimes(ds.Rep); err != nil {
			return err
		}
		ds.Add(t)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("server: wal: %w", err)
	}
	if winfo.BaseGen != 0 {
		_ = w.Close()
		return nil, nil, fmt.Errorf("server: %s starts at generation %d: an older build rotated it, and the %d records before are not in it; delete the durable directory to restart from the base workload",
			filepath.Join(dir, walFile), winfo.BaseGen, winfo.BaseGen)
	}
	dur.log = w
	info := &RecoveryInfo{
		ReplayedRecords: int64(ds.Len() - baseLen),
		TailTruncated:   winfo.Truncated,
		TruncateReason:  winfo.Reason,
		WALBytes:        w.StatsSnapshot().Bytes,
	}
	dur.replayed.Store(info.ReplayedRecords)

	// 2. Index. A checkpoint's arena covers a prefix of base + log — all
	// of it, or less when appends followed the checkpoint — so the
	// trajectories after it become the delta over it. With no arena the
	// mark stays 0: the first append past CheckpointBytes of log writes one.
	var eng *core.Engine
	c, err := index.OpenPrefix(filepath.Join(dir, indexFile), ds)
	switch {
	case errors.Is(err, index.ErrStale):
		eng = core.NewEngine(ds, costs)
	case errors.Is(err, index.ErrForeign):
		_ = w.Close()
		return nil, nil, fmt.Errorf("server: %s was built over other trajectories than the %d this base workload and %s hold: -dataset, -scale, -load and -model must match the run that wrote %s",
			filepath.Join(dir, indexFile), ds.Len(), walFile, dir)
	case err != nil:
		_ = w.Close()
		return nil, nil, fmt.Errorf("server: %w; delete it to rebuild the index from the recovered dataset", err)
	default:
		eng = core.NewEngineWithBackend(ds, c, costs)
		info.IndexMapped = true
		dur.ckptMark.Store(info.WALBytes)
	}

	s := NewSafeEngine(eng)
	s.dur = dur
	return s, info, nil
}

// CheckpointResult reports one completed checkpoint.
type CheckpointResult struct {
	// Generation is the durable generation the persisted arena covers:
	// every appended trajectory up to it is indexed by index.compact.
	Generation uint64 `json:"generation"`
	// IndexBytes is the persisted arena's size.
	IndexBytes int64 `json:"index_bytes,omitempty"`
	// DurationMS is the wall time of the whole checkpoint, the arena
	// build and write included; appends wait only for the rebase and
	// publish, as they do for a compaction.
	DurationMS float64 `json:"duration_ms"`
}

// Checkpoint persists the index: it is the fold (SafeEngine.fold) that
// also writes its arena to index.compact. It never touches the WAL, which
// stays the record of every append. Appends stall only for the fold's
// rebase and publish, and searches keep answering from the published
// snapshot throughout. A crash anywhere in it leaves the previous arena,
// over a shorter prefix, which recovery maps with the rest as its delta.
//
// At most one fold runs at a time; concurrent calls get ErrFoldBusy.
func (s *SafeEngine) Checkpoint() (*CheckpointResult, error) {
	if s.dur == nil {
		return nil, ErrNotDurable
	}
	_, res, err := s.fold(true)
	return res, err
}

// writeIndex persists the arena (tmp + fsync + rename + directory fsync)
// and returns its size. The log is flushed first, so no arena on disk
// covers a record the log could still lose to a power cut.
func (d *Durability) writeIndex(c *index.Compact) (int64, error) {
	if err := d.log.Sync(); err != nil {
		return 0, err
	}
	tmp := filepath.Join(d.dir, indexFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	if err = c.Save(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		crashPoint("checkpoint-index")
		err = os.Rename(tmp, filepath.Join(d.dir, indexFile))
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(d.dir)
	return c.IndexBytes(), nil
}

// syncDir fsyncs a directory so a rename is durable. Best-effort: some
// filesystems reject directory fsync, and the rename itself is already
// atomic.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		_ = f.Close()
	}
}
