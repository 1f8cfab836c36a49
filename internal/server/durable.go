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
//	wal.log        append log of trajectories added since the last
//	               checkpoint (header baseGen = that checkpoint's
//	               generation barrier)
//	snapshot.traj  every appended trajectory up to the last checkpoint,
//	               in the same framed codec as the WAL (baseGen 0, so
//	               record generations are 1..barrier)
//	index.compact  the mmap-able arena over a prefix of base + snapshot
//	               (absent or of an older format, it is rebuilt)
//
// The base workload (the trajectories loaded before OpenDurable) is the
// caller's responsibility to reproduce — it is the deterministic part;
// the durable directory persists only what arrived over the wire.
//
// Recovery replays snapshot then WAL, skipping WAL records at or below
// the snapshot's generation: a crash between the snapshot rename and the
// WAL rotation leaves both files describing overlapping generations, and
// the skip makes replay idempotent across that window. A torn WAL tail
// is truncated to the last valid frame — acknowledged records are always
// before the tear because acks follow the (policy-dependent) fsync.
const (
	walFile      = "wal.log"
	snapshotFile = "snapshot.traj"
	indexFile    = "index.compact"

	// snapshotFrameRecords bounds one snapshot frame, keeping every frame
	// far under the WAL's 64 MiB cap regardless of trajectory size.
	snapshotFrameRecords = 512
)

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync wal.SyncPolicy
	// SyncInterval is the flush period for wal.SyncInterval (default 100ms).
	SyncInterval time.Duration
	// CheckpointBytes triggers an automatic background checkpoint when the
	// WAL grows past it (0 = only explicit /v1/checkpoint requests).
	CheckpointBytes int64
	// Logger receives recovery and background-checkpoint reports
	// (nil = slog.Default()).
	Logger *slog.Logger
}

// RecoveryInfo reports what OpenDurable found and did.
type RecoveryInfo struct {
	// SnapshotRecords is the number of trajectories restored from
	// snapshot.traj.
	SnapshotRecords int64
	// ReplayedRecords is the number of WAL records applied on top.
	ReplayedRecords int64
	// SkippedRecords counts WAL records already covered by the snapshot
	// (non-zero only after a crash inside the checkpoint window).
	SkippedRecords int64
	// TailTruncated reports that the WAL ended in a torn or corrupt frame
	// that recovery cut off; TruncateReason says why.
	TailTruncated  bool
	TruncateReason string
	// WALBytes is the surviving log size.
	WALBytes int64
	// CheckpointGen is the snapshot's generation barrier.
	CheckpointGen uint64
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
	baseLen   int // dataset prefix from the reproducible base workload
	ckptBytes int64
	logger    *slog.Logger

	checkpoints atomic.Int64
	ckptErrs    atomic.Int64
	lastCkptGen atomic.Uint64
	replayed    atomic.Int64
	snapRecords atomic.Int64
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

// LastCheckpointGen returns the generation barrier of the newest durable
// snapshot (recovered or written this process).
func (d *Durability) LastCheckpointGen() uint64 { return d.lastCkptGen.Load() }

// ReplayedRecords returns how many WAL records startup recovery applied.
func (d *Durability) ReplayedRecords() int64 { return d.replayed.Load() }

// SnapshotRecords returns how many trajectories the startup snapshot held.
func (d *Durability) SnapshotRecords() int64 { return d.snapRecords.Load() }

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
// everything the durable directory remembers: snapshot.traj and then the
// WAL are replayed into ds — skipping WAL records the snapshot already
// covers, with any torn tail physically truncated, and failing closed on
// a record whose timestamps do not fit its path (traj.CheckTimes) — and
// the checkpointed arena is mapped as the base, the trajectories after
// its prefix becoming the delta (or, with none of this format version,
// an arena is built over the result). The returned engine logs every
// subsequent append write-ahead.
//
// ds must hold exactly the reproducible base workload (the trajectories
// present before the durable directory was first used); OpenDurable
// appends the recovered tail to it. A checkpointed arena that is not over
// a prefix of the recovered dataset — a restart with another base
// workload — is an error, not a silent rebuild: the snapshot it was cut
// with belongs to that workload too.
func OpenDurable(dir string, ds *traj.Dataset, costs wed.FilterCosts, opts DurableOptions) (*SafeEngine, *RecoveryInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: durable dir: %w", err)
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	baseLen := ds.Len()
	info := &RecoveryInfo{}

	// Every replayed record passes the rule a live append passed.
	add := func(r wal.Record) error {
		t := traj.Trajectory{Path: r.Path, Times: r.Times}
		if err := t.CheckTimes(ds.Rep); err != nil {
			return err
		}
		ds.Add(t)
		return nil
	}

	// 1. Snapshot: the durable prefix of the appended tail.
	snapGen := uint64(0)
	snapPath := filepath.Join(dir, snapshotFile)
	if _, err := os.Stat(snapPath); err == nil {
		sinfo, err := wal.ReplayFile(snapPath, add)
		if err != nil {
			return nil, nil, fmt.Errorf("server: snapshot %s: %w", snapPath, err)
		}
		if sinfo.Truncated {
			// A snapshot is written to a tmp file and renamed, so a torn
			// one means the rename itself was betrayed (disk corruption) —
			// refuse to serve a silently shortened dataset.
			return nil, nil, fmt.Errorf("server: snapshot %s is torn (%s at byte %d); delete the durable directory to restart from the base workload",
				snapPath, sinfo.Reason, sinfo.GoodBytes)
		}
		snapGen = sinfo.EndGen
		info.SnapshotRecords = sinfo.Records
	}
	info.CheckpointGen = snapGen

	// 2. WAL: replay the records newer than the snapshot into the
	// dataset, truncate any torn tail, and resume appending at the end.
	snapLen := ds.Len()
	dur := &Durability{
		dir:       dir,
		baseLen:   baseLen,
		ckptBytes: opts.CheckpointBytes,
		logger:    opts.Logger,
	}
	dur.snapRecords.Store(info.SnapshotRecords)
	dur.lastCkptGen.Store(snapGen)
	wopts := wal.Options{Policy: opts.Sync, Interval: opts.SyncInterval, OnFsync: dur.observeFsync}
	var skipped int64
	w, winfo, err := wal.OpenOrCreate(filepath.Join(dir, walFile), snapGen, wopts, func(r wal.Record) error {
		if r.Gen <= snapGen {
			skipped++ // checkpoint-window overlap: snapshot already has it
			return nil
		}
		return add(r)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("server: wal: %w", err)
	}
	if winfo.BaseGen > snapGen {
		_ = w.Close()
		return nil, nil, fmt.Errorf("server: wal starts at generation %d but the snapshot covers only %d: records in between are lost; delete the durable directory to restart from the base workload",
			winfo.BaseGen, snapGen)
	}
	dur.log = w
	replayed := int64(ds.Len() - snapLen)
	dur.replayed.Store(replayed)
	info.ReplayedRecords = replayed
	info.SkippedRecords = skipped
	info.TailTruncated = winfo.Truncated
	info.TruncateReason = winfo.Reason
	info.WALBytes = w.StatsSnapshot().Bytes

	// 3. Index. A checkpoint's arena covers a prefix of base + snapshot —
	// all of it, or less when a crash beat the arena rename — so the
	// trajectories after it become the delta over it.
	var eng *core.Engine
	c, err := index.OpenPrefix(filepath.Join(dir, indexFile), ds)
	switch {
	case errors.Is(err, index.ErrStale):
		eng = core.NewEngine(ds, costs)
	case errors.Is(err, index.ErrForeign):
		_ = w.Close()
		return nil, nil, fmt.Errorf("server: %s was built over other trajectories than the %d this base workload and %s hold: -dataset, -scale, -load and -model must match the run that wrote %s",
			filepath.Join(dir, indexFile), snapLen, snapshotFile, dir)
	case err != nil:
		_ = w.Close()
		return nil, nil, fmt.Errorf("server: %w; delete it to rebuild the index from the recovered dataset", err)
	default:
		eng = core.NewEngineWithBackend(ds, c, costs)
		info.IndexMapped = true
	}

	s := NewSafeEngine(eng)
	s.dur = dur
	return s, info, nil
}

// CheckpointResult reports one completed checkpoint.
type CheckpointResult struct {
	// Generation is the barrier: every appended trajectory with durable
	// generation ≤ Generation now lives in the snapshot.
	Generation uint64 `json:"generation"`
	// Records is the snapshot's trajectory count.
	Records int64 `json:"records"`
	// SnapshotBytes / IndexBytes are the persisted file sizes.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	IndexBytes    int64 `json:"index_bytes,omitempty"`
	// DurationMS is the wall time of the whole checkpoint, the arena
	// build and both file writes included; appends wait only for the
	// snapshot write and the WAL rotation.
	DurationMS float64 `json:"duration_ms"`
}

// Checkpoint persists the appended tail and the index, and truncates the
// WAL: it is the fold (SafeEngine.fold) that also goes to disk. Appends
// stall only while the snapshot is cut under the ingest mutex — the WAL
// generation and the appended tail cannot move then, so the durable
// barrier and the publish barrier are one generation — and searches keep
// answering from the published snapshot throughout. The order makes
// every crash window recoverable:
//
//  1. snapshot.traj is written to a tmp file and renamed — a crash
//     before the rename leaves the old snapshot + full WAL; after it,
//     the new snapshot overlaps the not-yet-rotated WAL, and recovery's
//     generation skip de-duplicates.
//  2. the WAL is rotated (truncated to a fresh header whose baseGen is
//     the barrier) — only after the snapshot is durably in place.
//  3. the arena, built before the cut over at most the snapshot's
//     trajectories, is persisted the same way — a crash before its rename
//     leaves an older arena, over a shorter prefix, which recovery maps
//     with the rest as its delta.
//
// At most one fold runs at a time; concurrent calls get ErrFoldBusy.
func (s *SafeEngine) Checkpoint() (*CheckpointResult, error) {
	if s.dur == nil {
		return nil, ErrNotDurable
	}
	_, res, err := s.fold(true)
	return res, err
}

// cut writes a checkpoint's barrier: every appended trajectory of ds (the
// writer's dataset) to snapshot.traj, then the WAL restarted past them.
// The caller holds the ingest mutex, so neither can move meanwhile.
func (d *Durability) cut(ds *traj.Dataset) (*CheckpointResult, error) {
	barrier := d.log.Gen()
	tail := ds.Trajs[d.baseLen:]
	if uint64(len(tail)) != barrier {
		// Logged and applied counts must agree — both happen under the
		// same ingest mutex. A mismatch means the invariant is broken;
		// refuse to write a snapshot that would misnumber generations.
		return nil, fmt.Errorf("server: checkpoint barrier %d != appended tail %d", barrier, len(tail))
	}
	snapBytes, err := d.writeSnapshot(tail)
	if err != nil {
		return nil, fmt.Errorf("server: checkpoint snapshot: %w", err)
	}
	if err := d.log.Rotate(barrier); err != nil {
		return nil, fmt.Errorf("server: checkpoint wal rotation: %w", err)
	}
	d.lastCkptGen.Store(barrier)
	d.snapRecords.Store(int64(len(tail)))
	return &CheckpointResult{Generation: barrier, Records: int64(len(tail)), SnapshotBytes: snapBytes}, nil
}

// writeSnapshot persists the appended tail as a framed log (tmp + fsync +
// rename + directory fsync) and returns the file size.
func (d *Durability) writeSnapshot(tail []traj.Trajectory) (int64, error) {
	tmp := filepath.Join(d.dir, snapshotFile+".tmp")
	w, err := wal.Create(tmp, 0, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		return 0, err
	}
	for len(tail) > 0 && err == nil {
		n := min(snapshotFrameRecords, len(tail))
		err = w.Append(tail[:n])
		tail = tail[n:]
	}
	if err == nil {
		err = w.Sync()
	}
	size := w.StatsSnapshot().Bytes
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return size, d.commit(tmp, snapshotFile, err)
}

// writeIndex persists the arena the same way and returns the file size.
func (d *Durability) writeIndex(c *index.Compact) (int64, error) {
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
	return c.IndexBytes(), d.commit(tmp, indexFile, err)
}

// commit ends an atomic file write: if the write (err) succeeded, tmp is
// renamed over name and the directory fsynced; otherwise, or if the
// rename fails, tmp is removed and the error returned.
func (d *Durability) commit(tmp, name string, err error) error {
	if err == nil {
		err = os.Rename(tmp, filepath.Join(d.dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(d.dir)
	return nil
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
