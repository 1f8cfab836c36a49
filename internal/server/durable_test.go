package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"subtraj/internal/mapmatch"
	"subtraj/internal/traj"
	"subtraj/internal/wal"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// openDurableTest opens a durable engine over a freshly generated copy of
// the tiny workload — generating anew per call is exactly what a real
// restart does with its reproducible base dataset.
func openDurableTest(t testing.TB, dir string, opts DurableOptions) (*SafeEngine, *RecoveryInfo, *workload.Workload) {
	t.Helper()
	w := workload.Generate(workload.Tiny(7))
	safe, info, err := OpenDurable(dir, w.Data, wed.NewLev(), opts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return safe, info, w
}

// tinyBaseLen is the tiny workload's base trajectory count — the
// recovery tests compare recovered totals against it because OpenDurable
// mutates the dataset it is handed.
// closeDurable closes the engine's durability layer and fails the test on
// error: a WAL close that cannot flush means the assertions after a
// reopen would be checking an undefined on-disk state. ErrClosed is
// tolerated so a deferred safety-net close can follow an explicit,
// already-checked one.
func closeDurable(t testing.TB, s *SafeEngine) {
	t.Helper()
	if err := s.Durable().Close(); err != nil && !errors.Is(err, os.ErrClosed) {
		t.Fatal(err)
	}
}

func tinyBaseLen() int { return workload.Generate(workload.Tiny(7)).Data.Len() }

func appendPath(t testing.TB, safe *SafeEngine, syms ...traj.Symbol) int32 {
	t.Helper()
	id, err := safe.Append(traj.Trajectory{Path: syms})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return id
}

// TestDurableAppendSurvivesReopen: acknowledged appends come back after a
// close/reopen, and the recovered trajectories are searchable.
func TestDurableAppendSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	safe, info, w := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
	if info.SnapshotRecords != 0 || info.ReplayedRecords != 0 {
		t.Fatalf("fresh dir reported recovery: %+v", info)
	}
	base := w.Data.Len()
	p1 := []traj.Symbol{3, 1, 4, 1, 5}
	appendPath(t, safe, p1...)
	if _, err := safe.AppendBatch([]traj.Trajectory{
		{Path: []traj.Symbol{2, 7, 1}, Times: []float64{10, 20, 30}},
		{Path: []traj.Symbol{8, 2, 8}},
	}); err != nil {
		t.Fatal(err)
	}
	closeDurable(t, safe)

	re, info, _ := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
	defer closeDurable(t, re)
	if info.ReplayedRecords != 3 {
		t.Fatalf("ReplayedRecords = %d, want 3 (%+v)", info.ReplayedRecords, info)
	}
	if got := re.NumTrajectories(); got != base+3 {
		t.Fatalf("recovered %d trajectories, want %d", got, base+3)
	}
	ms, err := re.SearchExact(p1)
	if err != nil || len(ms) == 0 {
		t.Fatalf("recovered append not searchable: ms=%v err=%v", ms, err)
	}
	tr := re.Unsafe().Dataset().Get(int32(base + 1))
	if len(tr.Times) != 3 || tr.Times[1] != 20 {
		t.Fatalf("recovered timestamps corrupted: %v", tr.Times)
	}
}

// TestDurableTornTailTruncated: a torn final frame loses exactly that
// frame — earlier (acknowledged) records survive and the tail is
// physically truncated so the next run starts clean.
func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	safe, _, _ := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
	appendPath(t, safe, 1, 2, 3)
	appendPath(t, safe, 4, 5, 6)
	// An unsynced batch the "crash" tears mid-write: chop bytes off the
	// last frame. The batch must vanish atomically.
	if _, err := safe.AppendBatch([]traj.Trajectory{
		{Path: []traj.Symbol{7, 7}}, {Path: []traj.Symbol{9, 9}},
	}); err != nil {
		t.Fatal(err)
	}
	closeDurable(t, safe)
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	re, info, _ := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
	defer closeDurable(t, re)
	if !info.TailTruncated {
		t.Fatalf("torn tail not reported: %+v", info)
	}
	if info.ReplayedRecords != 2 {
		t.Fatalf("ReplayedRecords = %d, want 2 (batch must vanish atomically)", info.ReplayedRecords)
	}
	if got, want := re.NumTrajectories(), tinyBaseLen()+2; got != want {
		t.Fatalf("trajectories = %d, want %d", got, want)
	}
	// The tail was physically truncated: a third open sees a clean log.
	closeDurable(t, re)
	re2, info2, _ := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
	defer closeDurable(t, re2)
	if info2.TailTruncated || info2.ReplayedRecords != 2 {
		t.Fatalf("second reopen not clean: %+v", info2)
	}
}

// TestCheckpointRotatesAndRecovers: a checkpoint moves the appended tail
// into the snapshot, persists the arena, truncates the WAL, and a reopen
// reassembles snapshot + post-checkpoint WAL records — over the mapped
// arena with the replayed record as its delta, or, when the arena file is
// gone, over an arena rebuilt from everything recovered.
func TestCheckpointRotatesAndRecovers(t *testing.T) {
	for _, rebuilt := range []bool{false, true} {
		name := map[bool]string{false: "compact", true: "rebuilt"}[rebuilt]
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := DurableOptions{Sync: wal.SyncAlways}
			safe, _, _ := openDurableTest(t, dir, opts)
			appendPath(t, safe, 1, 2, 3)
			appendPath(t, safe, 4, 5)
			res, err := safe.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if res.Generation != 2 || res.Records != 2 || res.IndexBytes == 0 {
				t.Fatalf("checkpoint result %+v, want gen 2, records 2 and an arena", res)
			}
			if ws := safe.Durable().WALStats(); ws.Records != 0 || ws.BaseGen != 2 {
				t.Fatalf("WAL not rotated: %+v", ws)
			}
			post := []traj.Symbol{6, 7, 8, 9}
			appendPath(t, safe, post...)
			closeDurable(t, safe)
			if rebuilt {
				if err := os.Remove(filepath.Join(dir, indexFile)); err != nil {
					t.Fatal(err)
				}
			}

			re, info, _ := openDurableTest(t, dir, opts)
			defer closeDurable(t, re)
			if info.SnapshotRecords != 2 || info.ReplayedRecords != 1 || info.SkippedRecords != 0 {
				t.Fatalf("recovery info %+v, want snapshot 2 + replayed 1", info)
			}
			if info.IndexMapped == rebuilt {
				t.Fatalf("reopen mapped the checkpointed arena: %v, want %v (%+v)", info.IndexMapped, !rebuilt, info)
			}
			if wantDelta := map[bool]int{false: 1, true: 0}[rebuilt]; re.DeltaLen() != wantDelta {
				t.Fatalf("recovered delta holds %d trajectories, want %d", re.DeltaLen(), wantDelta)
			}
			if got, want := re.NumTrajectories(), tinyBaseLen()+3; got != want {
				t.Fatalf("trajectories = %d, want %d", got, want)
			}
			if ms, err := re.SearchExact(post); err != nil || len(ms) == 0 {
				t.Fatalf("post-checkpoint append lost: ms=%v err=%v", ms, err)
			}
			if ms, err := re.SearchExact([]traj.Symbol{1, 2, 3}); err != nil || len(ms) == 0 {
				t.Fatalf("checkpointed append lost: ms=%v err=%v", ms, err)
			}
		})
	}
}

// TestDurableRejectsForeignArena: a durable directory reopened over a base
// workload of the same length that differs in one symbol holds an arena
// of the right size over the wrong paths. Recovery must refuse it and
// name the flags that have to match, not serve it.
func TestDurableRejectsForeignArena(t *testing.T) {
	dir := t.TempDir()
	safe, _, _ := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
	appendPath(t, safe, 1, 2, 3)
	if _, err := safe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeDurable(t, safe)

	w := workload.Generate(workload.Tiny(7))
	p := slices.Clone(w.Data.Trajs[0].Path)
	p[0]++
	w.Data.Trajs[0].Path = p
	_, _, err := OpenDurable(dir, w.Data, wed.NewLev(), DurableOptions{Sync: wal.SyncAlways})
	if err == nil || !strings.Contains(err.Error(), "-dataset") {
		t.Fatalf("a foreign arena opened: %v, want an error naming the flags", err)
	}
}

// TestCheckpointCrashWindowIdempotent: a crash after the snapshot rename
// but before the WAL rotation leaves both files covering the same
// generations; replay must skip the overlap instead of duplicating.
func TestCheckpointCrashWindowIdempotent(t *testing.T) {
	dir := t.TempDir()
	safe, _, _ := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
	appendPath(t, safe, 1, 2, 3)
	appendPath(t, safe, 4, 5, 6)
	// Save the pre-checkpoint WAL, checkpoint (which rotates it), then
	// put the old WAL back — exactly the on-disk state of a crash inside
	// the checkpoint window.
	walPath := filepath.Join(dir, walFile)
	preWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := safe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeDurable(t, safe)
	if err := os.WriteFile(walPath, preWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	re, info, _ := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
	defer closeDurable(t, re)
	if info.SnapshotRecords != 2 || info.SkippedRecords != 2 || info.ReplayedRecords != 0 {
		t.Fatalf("overlap not skipped: %+v", info)
	}
	if got, want := re.NumTrajectories(), tinyBaseLen()+2; got != want {
		t.Fatalf("trajectories = %d, want %d (duplicated replay?)", got, want)
	}
}

// TestDurableHTTPSurface: append and checkpoint over HTTP, durability
// visible in /healthz and /v1/stats; /v1/checkpoint on a volatile engine
// answers 501.
func TestDurableHTTPSurface(t *testing.T) {
	dir := t.TempDir()
	safe, _, _ := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
	defer closeDurable(t, safe)
	srv := New(safe, Config{CacheSize: 16, MaxConcurrent: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, out := post(t, ts.URL+"/v1/append", map[string]any{"path": []int{1, 2, 3}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d body %v", resp.StatusCode, out)
	}
	resp, out = post(t, ts.URL+"/v1/checkpoint", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d body %v", resp.StatusCode, out)
	}
	var health healthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if !health.Durable || health.DurableGeneration != 1 {
		t.Fatalf("healthz durability block wrong: %+v", health)
	}
	var stats StatsSnapshot
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if !stats.Durability.Enabled || stats.Durability.Checkpoints != 1 ||
		stats.Durability.LastCheckpointGen != 1 || stats.Durability.WALRecords != 0 {
		t.Fatalf("stats durability block wrong: %+v", stats.Durability)
	}
	if stats.Durability.SyncPolicy != "always" {
		t.Fatalf("sync policy = %q", stats.Durability.SyncPolicy)
	}

	// Volatile server: checkpoint is 501, durability reads all-zero.
	_, vts, _ := newTestServer(t)
	resp, out = post(t, vts.URL+"/v1/checkpoint", map[string]any{})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("volatile checkpoint: status %d body %v", resp.StatusCode, out)
	}
}

// TestAppendFailsWhenWALBroken: once the log cannot accept a record the
// append must be refused (not applied half-durably) and surface a 500.
func TestAppendFailsWhenWALBroken(t *testing.T) {
	dir := t.TempDir()
	safe, _, _ := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
	srv := New(safe, Config{CacheSize: 16, MaxConcurrent: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	before := safe.NumTrajectories()
	closeDurable(t, safe) // closed WAL: every append must now fail
	if _, err := safe.Append(traj.Trajectory{Path: []traj.Symbol{1, 2}}); err == nil {
		t.Fatal("append on closed WAL succeeded")
	}
	resp, out := post(t, ts.URL+"/v1/append", map[string]any{"path": []int{1, 2}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("append on broken WAL: status %d body %v", resp.StatusCode, out)
	}
	if got := safe.NumTrajectories(); got != before {
		t.Fatalf("failed append mutated the dataset: %d -> %d", before, got)
	}
}

type postCase struct {
	path string
	body map[string]any
}

// admissionCases are one engine query and one map-matching request: both
// go through the server's single pool admission, so both must be shed
// and time out alike.
func admissionCases(t *testing.T, w *workload.Workload) []postCase {
	return []postCase{
		{"/v1/search", map[string]any{"q": sampleQuery(t, w.Data, 6, 3), "tau_ratio": 0.2}},
		{"/v1/match", map[string]any{"trace": [][2]float64{{0, 0}, {100, 0}}}},
	}
}

// TestPoolShedding: a saturated pool sheds queued requests with a fast
// 503 + Retry-After instead of pinning them behind an unbounded queue —
// engine queries and map matching alike.
func TestPoolShedding(t *testing.T) {
	safe, w := newTestEngine(t)
	srv := New(safe, Config{CacheSize: -1, MaxConcurrent: 1, QueueWait: 5 * time.Millisecond,
		MaxSymbol: int32(w.Graph.NumVertices()), Matcher: mapmatch.New(w.Graph, mapmatch.Config{})})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the only slot directly, then watch requests shed.
	if err := srv.pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.pool.release()
	for i, c := range admissionCases(t, w) {
		resp, out := post(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503 (body %v)", c.path, resp.StatusCode, out)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: shed response missing Retry-After", c.path)
		}
		if got := srv.pool.shed.Load(); got != int64(i+1) {
			t.Fatalf("%s: shed counter = %d, want %d", c.path, got, i+1)
		}
		if srv.Snapshot().Pool.Shed != int64(i+1) {
			t.Fatalf("%s: shed not visible in /v1/stats", c.path)
		}
	}
}

// TestPanicRecoveredTo500: a panicking handler — the instrument
// middleware is the same wrapper every endpoint gets, and core's fanOut
// re-raises worker panics into it — answers 500 JSON with the
// request ID and bumps the panic counter; the process survives.
func TestPanicRecoveredTo500(t *testing.T) {
	safe, _ := newTestEngine(t)
	srv := New(safe, Config{CacheSize: 16, MaxConcurrent: 2})
	h := srv.instrument("search", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/v1/search", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if id := rec.Header().Get("X-Request-ID"); id == "" {
		t.Fatal("panic response lost the request ID header")
	}
	if got := srv.metrics.panics.Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	// A second request goes through normally: nothing was poisoned.
	rec2 := httptest.NewRecorder()
	srv.instrument("healthz", srv.handleHealthz)(rec2, httptest.NewRequest("GET", "/healthz", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("follow-up request status %d", rec2.Code)
	}
}

// TestRequestTimeoutMapsTo504: an expired request deadline comes back as
// 504, not 500 or 503 — whether it is caught at admission or at the
// engine's cancellation points, and for map matching as for queries.
func TestRequestTimeoutMapsTo504(t *testing.T) {
	safe, w := newTestEngine(t)
	srv := New(safe, Config{CacheSize: -1, MaxConcurrent: 4, RequestTimeout: time.Nanosecond,
		MaxSymbol: int32(w.Graph.NumVertices()), Matcher: mapmatch.New(w.Graph, mapmatch.Config{})})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, c := range admissionCases(t, w) {
		resp, out := post(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504 (body %v)", c.path, resp.StatusCode, out)
		}
	}
}

// TestCheckpointBusySingleFlight: the second of two concurrent
// checkpoints reports ErrCheckpointBusy rather than stacking up.
func TestCheckpointBusySingleFlight(t *testing.T) {
	dir := t.TempDir()
	safe, _, _ := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
	defer closeDurable(t, safe)
	appendPath(t, safe, 1, 2)
	d := safe.Durable()
	if !d.ckptInFlight.CompareAndSwap(false, true) {
		t.Fatal("flag already set")
	}
	if _, err := safe.Checkpoint(); !errors.Is(err, ErrCheckpointBusy) {
		t.Fatalf("err = %v, want ErrCheckpointBusy", err)
	}
	d.ckptInFlight.Store(false)
	if _, err := safe.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after release: %v", err)
	}
}
