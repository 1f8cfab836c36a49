package server

import (
	"bufio"
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
//	index.compact  mmap-able compact arena over base + snapshot (compact
//	               backends only; absent or stale it is re-frozen)
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
	// Compact selects the compact-arena backend with an mmap-able
	// checkpoint snapshot; false builds the pointer backend and persists
	// only snapshot + WAL.
	Compact bool
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
	// IndexMapped reports that the compact arena was mmapped from
	// index.compact rather than re-frozen from the dataset.
	IndexMapped bool
}

// ErrNotDurable is returned by Checkpoint on a volatile engine.
var ErrNotDurable = errors.New("server: engine has no durability (no --wal-dir)")

// ErrCheckpointBusy is returned when a checkpoint is already running.
var ErrCheckpointBusy = errors.New("server: checkpoint already in progress")

// Durability is the write-ahead state attached to a durable SafeEngine:
// the WAL writer, the checkpoint trigger, and the counters the metrics
// and health endpoints expose.
type Durability struct {
	dir       string
	log       *wal.Writer
	baseLen   int // dataset prefix from the reproducible base workload
	compact   bool
	ckptBytes int64
	logger    *slog.Logger

	checkpoints  atomic.Int64
	ckptErrs     atomic.Int64
	lastCkptGen  atomic.Uint64
	ckptInFlight atomic.Bool
	replayed     atomic.Int64
	snapRecords  atomic.Int64
	fsyncHist    atomic.Pointer[obs.Histogram]
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
// covers, with any torn tail physically truncated — and the index is
// built over the result (or mmapped, the WAL records becoming its
// delta). The returned engine logs every subsequent append write-ahead.
//
// ds must hold exactly the reproducible base workload (the trajectories
// present before the durable directory was first used); OpenDurable
// appends the recovered tail to it.
func OpenDurable(dir string, ds *traj.Dataset, costs wed.FilterCosts, opts DurableOptions) (*SafeEngine, *RecoveryInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: durable dir: %w", err)
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	baseLen := ds.Len()
	info := &RecoveryInfo{}

	// 1. Snapshot: the durable prefix of the appended tail.
	snapGen := uint64(0)
	snapPath := filepath.Join(dir, snapshotFile)
	if _, err := os.Stat(snapPath); err == nil {
		sinfo, err := wal.ReplayFile(snapPath, func(r wal.Record) error {
			ds.Add(traj.Trajectory{Path: r.Path, Times: r.Times})
			return nil
		})
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
		compact:   opts.Compact,
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
		ds.Add(traj.Trajectory{Path: r.Path, Times: r.Times})
		return nil
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

	// 3. Index. A checkpoint's arena covers base + snapshot, so the
	// replayed records become the delta over it; every other base is
	// built over the whole recovered dataset.
	var eng *core.Engine
	if opts.Compact {
		if c, err := index.OpenMapped(filepath.Join(dir, indexFile)); err == nil {
			if c.NumTrajectories() == snapLen {
				eng = core.NewEngineWithBackend(ds, c, costs)
				info.IndexMapped = true
			} else {
				// Stale arena (crash between snapshot rename and index
				// rename): ignore it and re-freeze.
				_ = c.Close()
			}
		}
		if eng == nil {
			eng = core.NewEngineCompact(ds, costs)
		}
	} else {
		eng = core.NewEngine(ds, costs)
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
	// DurationMS is the wall time holding the ingest mutex.
	DurationMS float64 `json:"duration_ms"`
}

// Checkpoint persists the appended tail and truncates the WAL, all under
// the ingest mutex — appends stall for the duration, but searches keep
// answering from the published snapshot (the epoch design turned the old
// stop-the-world pause into a writer-only one). Holding the ingest mutex
// is what makes the checkpoint barrier exact: the WAL generation and the
// appended tail cannot move while the snapshot is cut, so the durable
// barrier and the publish barrier are the same generation discipline.
// The order makes every crash window recoverable:
//
//  1. snapshot.traj is written to a tmp file and renamed — a crash
//     before the rename leaves the old snapshot + full WAL; after it,
//     the new snapshot overlaps the not-yet-rotated WAL, and recovery's
//     generation skip de-duplicates.
//  2. compact backends re-freeze the arena and persist it the same way,
//     then rebase the engine onto the fresh arena, which empties the
//     delta — a stale or missing arena is merely a slower restart.
//  3. the WAL is rotated (truncated to a fresh header whose baseGen is
//     the barrier) — only after the snapshot is durably in place.
//
// At most one checkpoint runs at a time; concurrent calls get
// ErrCheckpointBusy.
func (s *SafeEngine) Checkpoint() (*CheckpointResult, error) {
	d := s.dur
	if d == nil {
		return nil, ErrNotDurable
	}
	if !d.ckptInFlight.CompareAndSwap(false, true) {
		return nil, ErrCheckpointBusy
	}
	defer d.ckptInFlight.Store(false)
	start := time.Now()
	s.ingestMu.Lock()
	res, err := d.checkpointLocked(s)
	s.ingestMu.Unlock()
	if err != nil {
		d.ckptErrs.Add(1)
		return nil, err
	}
	res.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	d.checkpoints.Add(1)
	d.lastCkptGen.Store(res.Generation)
	return res, nil
}

//subtrajlint:locked ingestMu — Checkpoint holds the ingest mutex around this call
func (d *Durability) checkpointLocked(s *SafeEngine) (*CheckpointResult, error) {
	barrier := d.log.Gen()
	ds := s.writer.Dataset()
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
	res := &CheckpointResult{Generation: barrier, Records: int64(len(tail)), SnapshotBytes: snapBytes}
	if d.compact {
		c := index.FreezeDataset(ds)
		n, err := d.writeIndex(c)
		if err != nil {
			return nil, fmt.Errorf("server: checkpoint index: %w", err)
		}
		res.IndexBytes = n
		// Install the fresh arena as the new frozen base and publish a
		// snapshot over it (same generation — contents are unchanged, so
		// cached results stay valid).
		s.writer.Rebase(c)
		s.publishLocked()
	}
	if err := d.log.Rotate(barrier); err != nil {
		return nil, fmt.Errorf("server: checkpoint wal rotation: %w", err)
	}
	d.snapRecords.Store(res.Records)
	return res, nil
}

// writeSnapshot persists the appended tail as a framed log (tmp + rename
// + directory fsync) and returns the file size.
func (d *Durability) writeSnapshot(tail []traj.Trajectory) (int64, error) {
	tmp := filepath.Join(d.dir, snapshotFile+".tmp")
	w, err := wal.Create(tmp, 0, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		return 0, err
	}
	for len(tail) > 0 {
		n := min(snapshotFrameRecords, len(tail))
		if err := w.Append(tail[:n]); err != nil {
			_ = w.Close()
			os.Remove(tmp)
			return 0, err
		}
		tail = tail[n:]
	}
	if err := w.Sync(); err != nil {
		_ = w.Close()
		os.Remove(tmp)
		return 0, err
	}
	size := w.StatsSnapshot().Bytes
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, snapshotFile)); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(d.dir)
	return size, nil
}

// writeIndex persists the compact arena (tmp + rename + directory fsync)
// and returns the file size.
func (d *Durability) writeIndex(c *index.Compact) (int64, error) {
	tmp := filepath.Join(d.dir, indexFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := c.Save(bw); err == nil {
		err = bw.Flush()
	} else {
		bw.Flush()
	}
	if err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return 0, err
	}
	st, _ := f.Stat()
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, indexFile)); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(d.dir)
	var size int64
	if st != nil {
		size = st.Size()
	}
	return size, nil
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

// maybeCheckpoint kicks off a background checkpoint when the WAL has
// outgrown the configured trigger. Single-flight: while one runs (or the
// trigger is disabled) this is a cheap atomic load.
func (s *SafeEngine) maybeCheckpoint() {
	d := s.dur
	if d == nil || d.ckptBytes <= 0 || d.ckptInFlight.Load() {
		return
	}
	if d.log.StatsSnapshot().Bytes < d.ckptBytes {
		return
	}
	go func() {
		res, err := s.Checkpoint()
		switch {
		case errors.Is(err, ErrCheckpointBusy):
		case err != nil:
			d.logger.Error("background checkpoint failed", "err", err)
		default:
			d.logger.Info("checkpoint complete",
				"generation", res.Generation,
				"records", res.Records,
				"snapshot_bytes", res.SnapshotBytes,
				"index_bytes", res.IndexBytes,
				"duration_ms", res.DurationMS)
		}
	}()
}
