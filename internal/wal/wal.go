// Package wal implements the durable ingest log: a versioned, CRC-32C-
// framed, length-prefixed append-only file holding one record per appended
// trajectory (path symbols, per-vertex timestamps, and the durable
// generation the append produced). The server logs every Append here
// *before* applying it to the in-memory engine, so a crash loses at most
// the un-fsynced suffix — never an acknowledged write.
//
// File layout:
//
//	header  = magic "SBTJWAL1" | u32 version | u64 baseGen      (20 bytes)
//	frame   = u32 payloadLen | u32 crc32c(payload) | payload
//	payload = u64 prevGen | uvarint count | count × record
//	record  = uvarint len(Path) | len(Path) × uvarint(symbol)
//	        | uvarint len(Times) | len(Times) × u64 float bits
//
// All fixed-width integers are little-endian. One frame carries one
// Append or one whole AppendBatch — the frame is the atomicity unit, so
// a batch is replayed all-or-nothing. prevGen is the writer's durable
// generation before the frame; replay verifies it matches the running
// generation, which makes frames self-ordering (a frame replayed out of
// sequence, or a log whose header was corrupted, fails closed instead of
// silently misnumbering trajectories).
//
// Replay validates every frame (length bounds, checksum, exact payload
// consumption, generation continuity) and stops cleanly at the first
// invalid byte: the valid prefix is applied, the tail is reported (and
// truncated by OpenOrCreate) — torn writes degrade to lost-suffix, never
// to silent corruption.
//
// A log only grows. Cutting off a torn tail is the one truncation, so a
// log opened with OpenOrCreate holds every record appended since it was
// created, and its header's baseGen stays 0.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"subtraj/internal/traj"
)

const (
	magic      = "SBTJWAL1"
	version    = 1
	headerSize = len(magic) + 4 + 8
	frameHead  = 4 + 4 // payloadLen + crc32c

	// maxFrameBytes bounds a single frame's payload. A frame larger than
	// this is invalid by construction (Append rejects it), so replay can
	// treat an oversized length prefix as corruption instead of
	// attempting a multi-gigabyte allocation from a torn length field.
	maxFrameBytes = 64 << 20
)

// castagnoli is the CRC-32C polynomial table; SSE4.2 hardware CRC on
// amd64, so framing costs ~1 cycle/byte.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy says when Append calls fsync.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every frame. Required for the exact
	// acked-prefix crash guarantee: an acknowledged append is on disk.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs when at least Options.Interval has elapsed
	// since the last fsync (checked on each Append; Close flushes the
	// remainder at shutdown). A crash loses at most one interval.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache. A crash loses the
	// unflushed suffix; replay still stops cleanly at the torn edge.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or never)", s)
	}
}

// Record is one replayed trajectory append. Gen is the durable generation
// the append produced: the first record of a log whose header holds
// baseGen is baseGen+1, and so on. A log from OpenOrCreate starts at 0,
// so Gen is the append's position among every append the log has held.
type Record struct {
	Gen   uint64
	Path  []traj.Symbol
	Times []float64
}

// File is the seam between the writer and the filesystem. Production
// passes *os.File; tests inject fault models (torn writes, short writes,
// failing fsync) to prove the recovery guarantees.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Options configures a Writer.
type Options struct {
	Policy SyncPolicy
	// Interval is the SyncInterval fsync cadence (default 100ms).
	Interval time.Duration
	// OnFsync, when set, observes each fsync's wall duration (the
	// server bridges it into the wal_fsync_seconds histogram).
	OnFsync func(time.Duration)
}

func (o Options) interval() time.Duration {
	if o.Interval <= 0 {
		return 100 * time.Millisecond
	}
	return o.Interval
}

// Stats is a point-in-time snapshot of a Writer.
type Stats struct {
	Gen     uint64 // durable generation after the last logged frame
	Bytes   int64  // committed log size, header included
	Records int64  // records in the log
	Syncs   int64  // fsyncs issued
}

// Writer appends framed record groups to a log file. Methods are safe for
// concurrent use, though the server serializes Appends under its write
// lock anyway. After any write or fsync failure whose rollback also
// fails, the writer is broken: every later Append returns the original
// error, because the on-disk tail state is unknown and acknowledging
// more writes on top of it could reorder or alias generations.
type Writer struct {
	mu       sync.Mutex
	f        File      // guarded by mu (the handle is fixed; its write offset is not)
	gen      uint64    // guarded by mu
	off      int64     // guarded by mu
	records  int64     // guarded by mu
	syncs    int64     // guarded by mu
	dirty    bool      // guarded by mu; frames written since the last fsync
	lastSync time.Time // guarded by mu
	broken   error     // guarded by mu
	opts     Options   // immutable after construction
	buf      []byte    // guarded by mu; frame assembly buffer, reused across Appends
}

// Create creates (or truncates) a log at path whose records continue from
// baseGen, writing and fsyncing the header before returning.
func Create(path string, baseGen uint64, opts Options) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", path, err)
	}
	w, err := NewWriter(f, baseGen, opts)
	if err != nil {
		_ = f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// NewWriter starts a fresh log on f (assumed empty), writing and fsyncing
// the header. It is the injection point for fault-model Files in tests.
//
//subtrajlint:locked mu — w is private to this constructor; nothing else can see it yet
func NewWriter(f File, baseGen uint64, opts Options) (*Writer, error) {
	w := &Writer{f: f, gen: baseGen, opts: opts, lastSync: time.Now()}
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], version)
	binary.LittleEndian.PutUint64(hdr[len(magic)+4:], baseGen)
	if _, err := f.Write(hdr); err != nil {
		return nil, fmt.Errorf("wal: write header: %w", err)
	}
	if err := w.fsync(); err != nil {
		return nil, fmt.Errorf("wal: sync header: %w", err)
	}
	w.off = int64(headerSize)
	return w, nil
}

// Policy returns the writer's sync policy (fixed at construction).
func (w *Writer) Policy() SyncPolicy { return w.opts.Policy }

// Gen returns the durable generation after the last logged frame.
func (w *Writer) Gen() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// StatsSnapshot returns current writer statistics.
func (w *Writer) StatsSnapshot() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{Gen: w.gen, Bytes: w.off, Records: w.records, Syncs: w.syncs}
}

// Append logs ts as one atomic frame and makes it durable per the sync
// policy. On success the writer's generation advances by len(ts). On
// failure nothing is acknowledged: the writer rolls the file back to the
// pre-frame offset (or breaks permanently if it cannot).
func (w *Writer) Append(ts []traj.Trajectory) error {
	if len(ts) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return fmt.Errorf("wal: writer broken by earlier failure: %w", w.broken)
	}

	payload := w.buf[:0]
	payload = binary.LittleEndian.AppendUint64(payload, w.gen)
	payload = binary.AppendUvarint(payload, uint64(len(ts)))
	for i := range ts {
		payload = appendRecord(payload, &ts[i])
	}
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("wal: frame payload %d bytes exceeds limit %d; split the batch", len(payload), maxFrameBytes)
	}
	// Assemble the whole frame and issue it as one Write so a torn write
	// can only produce a short frame, which replay detects.
	frame := make([]byte, 0, frameHead+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	w.buf = payload[:0]

	if n, err := w.f.Write(frame); err != nil || n != len(frame) {
		if err == nil {
			err = io.ErrShortWrite
		}
		w.rollback(err)
		return fmt.Errorf("wal: append: %w", err)
	}
	w.off += int64(len(frame))
	w.dirty = true
	w.gen += uint64(len(ts))
	w.records += int64(len(ts))

	switch w.opts.Policy {
	case SyncAlways:
		if err := w.fsync(); err != nil {
			// The kernel may or may not have persisted the frame; after a
			// failed fsync the dirty-page state is unknowable (the error
			// may even have been dropped on those pages). Un-acknowledge
			// the frame and break the writer.
			w.gen -= uint64(len(ts))
			w.records -= int64(len(ts))
			w.off -= int64(len(frame))
			w.rollback(err)
			return fmt.Errorf("wal: fsync: %w", err)
		}
	case SyncInterval:
		if time.Since(w.lastSync) >= w.opts.interval() {
			if err := w.fsync(); err != nil {
				w.broken = err
				return fmt.Errorf("wal: fsync: %w", err)
			}
		}
	}
	return nil
}

// rollback restores the file to the last committed offset after a failed
// write; if the filesystem refuses even that, the writer is broken.
//
//subtrajlint:locked mu — called only from Append with w.mu held
func (w *Writer) rollback(cause error) {
	if err := w.f.Truncate(w.off); err != nil {
		w.broken = cause
		return
	}
	if err := w.seekTo(w.off); err != nil {
		w.broken = cause
	}
}

// seekTo repositions the write offset after a truncation. An os.File
// keeps its offset past the truncation point — a later write would leave
// a zero-filled gap that replay reads as a torn frame — so files that
// can seek must. In-memory doubles that append at their own length are
// already positioned correctly.
//
//subtrajlint:locked mu — called with w.mu held
func (w *Writer) seekTo(off int64) error {
	if sk, ok := w.f.(io.Seeker); ok {
		_, err := sk.Seek(off, io.SeekStart)
		return err
	}
	return nil
}

// fsync flushes to stable storage, timing the call. Callers hold w.mu.
//
//subtrajlint:locked mu — callers hold w.mu
func (w *Writer) fsync() error {
	start := time.Now()
	err := w.f.Sync()
	d := time.Since(start)
	if w.opts.OnFsync != nil {
		w.opts.OnFsync(d)
	}
	if err != nil {
		return err
	}
	w.syncs++
	w.dirty = false
	w.lastSync = start
	return nil
}

// Sync flushes any unsynced frames. A checkpoint calls it before it
// persists an arena, so no arena on disk covers a record the log could
// still lose. A no-op when nothing is dirty.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return fmt.Errorf("wal: writer broken by earlier failure: %w", w.broken)
	}
	if !w.dirty {
		return nil
	}
	if err := w.fsync(); err != nil {
		w.broken = err
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// Close flushes and closes the log.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var serr error
	if w.dirty && w.broken == nil {
		serr = w.fsync()
	}
	cerr := w.f.Close()
	if serr != nil {
		return fmt.Errorf("wal: close sync: %w", serr)
	}
	return cerr
}

// appendRecord encodes one trajectory (without its generation: the frame
// header's prevGen plus position numbers the records).
func appendRecord(b []byte, t *traj.Trajectory) []byte {
	b = binary.AppendUvarint(b, uint64(len(t.Path)))
	for _, s := range t.Path {
		b = binary.AppendUvarint(b, uint64(uint32(s)))
	}
	b = binary.AppendUvarint(b, uint64(len(t.Times)))
	for _, v := range t.Times {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// ReplayInfo reports what a replay scan found.
type ReplayInfo struct {
	BaseGen   uint64 // the header's baseGen
	EndGen    uint64 // generation after the last valid frame
	Records   int64  // records in the valid prefix
	GoodBytes int64  // byte length of the valid prefix (header included)
	FileBytes int64  // total file length scanned
	Truncated bool   // an invalid/torn tail follows the valid prefix
	Reason    string // what stopped the scan ("" on a clean end-of-log)
}

// ErrBadHeader means the log's header is unreadable — nothing after it
// can be trusted, so recovery must fail loudly rather than truncate.
var ErrBadHeader = errors.New("wal: bad log header")

// ReplayBytes scans an in-memory log image, calling apply for each record
// in each valid frame, in order. It stops at the first invalid frame and
// reports (not repairs) the torn tail. An apply error aborts the scan and
// is returned wrapped; header corruption returns ErrBadHeader.
func ReplayBytes(data []byte, apply func(Record) error) (ReplayInfo, error) {
	var info ReplayInfo
	info.FileBytes = int64(len(data))
	if len(data) < headerSize || string(data[:len(magic)]) != magic {
		return info, fmt.Errorf("%w: missing or short magic", ErrBadHeader)
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != version {
		return info, fmt.Errorf("%w: version %d (want %d)", ErrBadHeader, v, version)
	}
	info.BaseGen = binary.LittleEndian.Uint64(data[len(magic)+4:])
	info.EndGen = info.BaseGen
	info.GoodBytes = int64(headerSize)

	off := headerSize
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHead {
			info.Truncated, info.Reason = true, "torn frame header"
			break
		}
		plen := int(binary.LittleEndian.Uint32(rest))
		if plen > maxFrameBytes {
			info.Truncated, info.Reason = true, fmt.Sprintf("frame length %d exceeds limit", plen)
			break
		}
		if len(rest) < frameHead+plen {
			info.Truncated, info.Reason = true, "torn frame payload"
			break
		}
		payload := rest[frameHead : frameHead+plen]
		if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(rest[4:]); got != want {
			info.Truncated, info.Reason = true, "frame checksum mismatch"
			break
		}
		recs, err := decodeFrame(payload, info.EndGen)
		if err != nil {
			info.Truncated, info.Reason = true, err.Error()
			break
		}
		for _, r := range recs {
			if err := apply(r); err != nil {
				return info, fmt.Errorf("wal: replay apply (gen %d): %w", r.Gen, err)
			}
		}
		info.Records += int64(len(recs))
		info.EndGen += uint64(len(recs))
		off += frameHead + plen
		info.GoodBytes = int64(off)
	}
	return info, nil
}

// decodeFrame validates and decodes one checksummed payload whose records
// must continue from prevGen. Every decode error fails the whole frame.
func decodeFrame(payload []byte, prevGen uint64) ([]Record, error) {
	if len(payload) < 8 {
		return nil, errors.New("frame payload shorter than generation")
	}
	if g := binary.LittleEndian.Uint64(payload); g != prevGen {
		return nil, fmt.Errorf("frame generation %d does not continue from %d", g, prevGen)
	}
	b := payload[8:]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, errors.New("bad record count")
	}
	b = b[n:]
	// Each record costs ≥ 2 bytes (two zero-length uvarints), so a count
	// beyond len(b)/2 cannot be satisfied — reject before allocating.
	if count > uint64(len(b))/2 {
		return nil, fmt.Errorf("record count %d exceeds payload", count)
	}
	recs := make([]Record, 0, count)
	for i := uint64(0); i < count; i++ {
		var r Record
		var err error
		r, b, err = decodeRecord(b)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		r.Gen = prevGen + i + 1
		recs = append(recs, r)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after last record", len(b))
	}
	return recs, nil
}

func decodeRecord(b []byte) (Record, []byte, error) {
	var r Record
	plen, n := binary.Uvarint(b)
	if n <= 0 {
		return r, b, errors.New("bad path length")
	}
	b = b[n:]
	if plen > uint64(len(b)) { // each symbol is ≥ 1 byte
		return r, b, fmt.Errorf("path length %d exceeds payload", plen)
	}
	if plen > 0 {
		r.Path = make([]traj.Symbol, plen)
		for i := range r.Path {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return r, b, fmt.Errorf("bad symbol %d", i)
			}
			if v > math.MaxUint32 {
				return r, b, fmt.Errorf("symbol %d out of range", i)
			}
			r.Path[i] = traj.Symbol(uint32(v))
			b = b[n:]
		}
	}
	tlen, n := binary.Uvarint(b)
	if n <= 0 {
		return r, b, errors.New("bad times length")
	}
	b = b[n:]
	if tlen > uint64(len(b))/8 {
		return r, b, fmt.Errorf("times length %d exceeds payload", tlen)
	}
	if tlen > 0 {
		r.Times = make([]float64, tlen)
		for i := range r.Times {
			r.Times[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
	return r, b, nil
}

// OpenOrCreate opens the log at path for appending, creating it fresh at
// generation 0 when absent (or when only a torn header exists — a header
// that never finished its fsync cannot precede any record). An existing
// log is scanned: every valid record is passed to apply, an invalid tail
// is physically truncated away, and the returned writer continues from
// the surviving end. info.BaseGen is the header's; a log this function
// created holds 0 there.
func OpenOrCreate(path string, opts Options, apply func(Record) error) (*Writer, ReplayInfo, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0) {
		w, cerr := Create(path, 0, opts)
		return w, ReplayInfo{GoodBytes: int64(headerSize)}, cerr
	}
	if err != nil {
		return nil, ReplayInfo{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if len(data) < headerSize && isPrefixOfMagic(data) {
		// Torn header from a crash inside Create: no frame can follow an
		// unfinished header, so recreating loses nothing.
		w, cerr := Create(path, 0, opts)
		return w, ReplayInfo{GoodBytes: int64(headerSize)}, cerr
	}
	info, err := ReplayBytes(data, apply)
	if err != nil {
		return nil, info, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, info, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if info.GoodBytes < info.FileBytes {
		if err := f.Truncate(info.GoodBytes); err != nil {
			_ = f.Close()
			return nil, info, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, info, fmt.Errorf("wal: sync after truncate: %w", err)
		}
	}
	if _, err := f.Seek(info.GoodBytes, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, info, fmt.Errorf("wal: seek: %w", err)
	}
	w := &Writer{f: f, gen: info.EndGen, off: info.GoodBytes, records: info.Records, opts: opts, lastSync: time.Now()}
	return w, info, nil
}

func isPrefixOfMagic(data []byte) bool {
	if len(data) > len(magic) {
		return len(data) < headerSize && string(data[:len(magic)]) == magic
	}
	return string(data) == magic[:len(data)]
}
