package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"subtraj/internal/core"
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
	if info.ReplayedRecords != 0 {
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

// TestCheckpointPersistsArenaAndRecovers: a checkpoint persists the arena
// and leaves the WAL whole, and a reopen replays every logged record —
// over the mapped arena with the post-checkpoint record as its delta, or,
// when the arena file is gone, over an arena rebuilt from everything
// recovered.
func TestCheckpointPersistsArenaAndRecovers(t *testing.T) {
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
			if res.Generation != 2 || res.IndexBytes == 0 {
				t.Fatalf("checkpoint result %+v, want an arena over generation 2", res)
			}
			if ws := safe.Durable().WALStats(); ws.Records != 2 || ws.Gen != 2 {
				t.Fatalf("the checkpoint touched the WAL: %+v", ws)
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
			if info.ReplayedRecords != 3 {
				t.Fatalf("recovery info %+v, want all 3 records replayed", info)
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

// TestDurableRejectsOlderLayout: older builds rotated the WAL into
// snapshot.traj at every checkpoint, so their log alone misses the
// checkpointed appends. A directory holding snapshot.traj, or a log whose
// header starts past generation 0, must fail to open with advice to
// delete it — never serve a dataset short of those appends.
func TestDurableRejectsOlderLayout(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, dir string)
	}{
		{"snapshot", func(t *testing.T, dir string) {
			safe, _, _ := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
			appendPath(t, safe, 1, 2, 3)
			closeDurable(t, safe)
			if err := os.WriteFile(filepath.Join(dir, "snapshot.traj"), []byte("SBTJWAL1"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"rotated log", func(t *testing.T, dir string) {
			w, err := wal.Create(filepath.Join(dir, walFile), 2, wal.Options{Policy: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append([]traj.Trajectory{{Path: []traj.Symbol{4, 5, 6}}}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.setup(t, dir)
			w := workload.Generate(workload.Tiny(7))
			safe, _, err := OpenDurable(dir, w.Data, wed.NewLev(), DurableOptions{Sync: wal.SyncAlways})
			if err == nil {
				closeDurable(t, safe)
				t.Fatalf("an older layout opened with %d trajectories", safe.NumTrajectories())
			}
			if !strings.Contains(err.Error(), "delete the durable directory") {
				t.Fatalf("error %q does not say to delete the directory", err)
			}
		})
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
		stats.Durability.Generation != 1 || stats.Durability.WALRecords != 1 {
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

// TestCheckpointBusySingleFlight: a checkpoint that finds a fold or
// checkpoint running reports ErrFoldBusy rather than stacking up.
func TestCheckpointBusySingleFlight(t *testing.T) {
	dir := t.TempDir()
	safe, _, _ := openDurableTest(t, dir, DurableOptions{Sync: wal.SyncAlways})
	defer closeDurable(t, safe)
	appendPath(t, safe, 1, 2)
	if !safe.folding.CompareAndSwap(false, true) {
		t.Fatal("flag already set")
	}
	if _, err := safe.Checkpoint(); !errors.Is(err, ErrFoldBusy) {
		t.Fatalf("err = %v, want ErrFoldBusy", err)
	}
	if _, err := safe.Compact(); !errors.Is(err, ErrFoldBusy) {
		t.Fatalf("compact err = %v, want ErrFoldBusy", err)
	}
	safe.folding.Store(false)
	if _, err := safe.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after release: %v", err)
	}
}

// TestAppendDuringCheckpointBuild: a checkpoint builds its arena outside
// the ingest mutex, so an append returns while the build is held at the
// compact-fold point. The arena then covers the first append only, and a
// reopen maps it with the append that raced the build as its delta.
func TestAppendDuringCheckpointBuild(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Sync: wal.SyncAlways}
	safe, _, _ := openDurableTest(t, dir, opts)
	defer closeDurable(t, safe)
	appendPath(t, safe, 1, 2, 3)

	reached, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	SetCrashHook(func(point string) {
		if point == "compact-fold" {
			once.Do(func() { close(reached); <-release })
		}
	})
	defer SetCrashHook(nil)
	type result struct {
		res *CheckpointResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := safe.Checkpoint()
		done <- result{res, err}
	}()
	select {
	case <-reached:
	case r := <-done:
		t.Fatalf("checkpoint finished without reaching compact-fold: %+v, %v", r.res, r.err)
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint never reached compact-fold")
	}

	appended := make(chan error, 1)
	go func() {
		_, err := safe.Append(traj.Trajectory{Path: []traj.Symbol{4, 5, 6}})
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("an append waited for the checkpoint's arena build")
	}
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.res.Generation != 1 || safe.DeltaLen() != 1 {
		t.Fatalf("checkpoint %+v with delta %d, want an arena over generation 1 and the raced append in the delta", r.res, safe.DeltaLen())
	}
	closeDurable(t, safe)

	re, info, _ := openDurableTest(t, dir, opts)
	defer closeDurable(t, re)
	if !info.IndexMapped || re.DeltaLen() != 1 || re.NumTrajectories() != tinyBaseLen()+2 {
		t.Fatalf("reopen: mapped %v, delta %d, %d trajectories; want the arena mapped, delta 1, %d", info.IndexMapped, re.DeltaLen(), re.NumTrajectories(), tinyBaseLen()+2)
	}
}

// TestRecoveryMapsOlderArena: a crash before a checkpoint's arena rename
// leaves the previous checkpoint's arena beside a log that has grown
// since. Recovery maps that arena — it indexes a prefix of the recovered
// dataset — and indexes everything after it as the delta, answering
// exactly as an engine built over the whole dataset.
func TestRecoveryMapsOlderArena(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Sync: wal.SyncAlways}
	safe, _, _ := openDurableTest(t, dir, opts)
	extra := workload.Generate(workload.Tiny(8)).Data.Trajs[:8]
	first, second := extra[:3], extra[3:]
	if _, err := safe.AppendBatch(first); err != nil {
		t.Fatal(err)
	}
	if _, err := safe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	older, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := safe.AppendBatch(second); err != nil {
		t.Fatal(err)
	}
	if _, err := safe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeDurable(t, safe)
	if err := os.WriteFile(filepath.Join(dir, indexFile), older, 0o644); err != nil {
		t.Fatal(err)
	}

	re, info, _ := openDurableTest(t, dir, opts)
	defer closeDurable(t, re)
	if !info.IndexMapped || info.ReplayedRecords != int64(len(extra)) || re.DeltaLen() != len(second) {
		t.Fatalf("recovery %+v with delta %d, want the older arena mapped under %d replayed records and a delta of %d",
			info, re.DeltaLen(), len(extra), len(second))
	}

	ref := workload.Generate(workload.Tiny(7)).Data
	for _, tr := range extra {
		ref.Add(tr)
	}
	fresh := core.NewEngine(ref, wed.NewLev())
	for seed := int64(1); seed <= 4; seed++ {
		q := sampleQuery(t, ref, 8, seed)
		qr := core.Query{Q: q, Tau: re.Threshold(q, 0.3)}
		if seed%2 == 0 {
			qr.Temporal.Mode, qr.Temporal.Lo, qr.Temporal.Hi = core.TemporalOverlap, 0, 1800
		}
		want, _, err := fresh.SearchQuery(qr)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := re.SearchQuery(qr)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: recovered engine answers %v (%v), fresh engine %v", seed, got, err, want)
		}
		wantK, err := fresh.SearchTopK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if gotK, err := re.SearchTopK(q, 5); err != nil || !reflect.DeepEqual(gotK, wantK) {
			t.Fatalf("seed %d: recovered top-k %v (%v), fresh %v", seed, gotK, err, wantK)
		}
	}
}

// TestDurableRejectsBadTimes: a WAL record whose timestamps do not fit its
// path fails recovery, naming the record, instead of reaching a query.
func TestDurableRejectsBadTimes(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Create(filepath.Join(dir, walFile), 0, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	bad := []traj.Trajectory{{Path: []traj.Symbol{1, 2}}, {Path: []traj.Symbol{1, 2, 3}, Times: []float64{7}}}
	if err := w.Append(bad); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ws := workload.Generate(workload.Tiny(7))
	if _, _, err := OpenDurable(dir, ws.Data, wed.NewLev(), DurableOptions{}); err == nil || !strings.Contains(err.Error(), "gen 2") {
		t.Fatalf("OpenDurable = %v, want an error naming record 2", err)
	}
}

// TestCheckpointArenaWriteFails pins a checkpoint's one failure mode: the
// fold has published its rebased, content-equal base before the arena
// write fails. The error is returned and counted, the new base stays
// published, ingest and search carry on, a reopen recovers every append
// from the log alone, and a retry succeeds once the cause is gone.
func TestCheckpointArenaWriteFails(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Sync: wal.SyncAlways}
	safe, _, _ := openDurableTest(t, dir, opts)
	appendPath(t, safe, 1, 2, 3)
	// A non-empty directory where the arena's tmp file goes: creating
	// the file fails, and nothing can clear the obstacle meanwhile.
	obstacle := filepath.Join(dir, indexFile+".tmp")
	if err := os.MkdirAll(filepath.Join(obstacle, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := safe.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with the arena's tmp path blocked")
	}
	if d := safe.Durable(); d.CheckpointErrors() != 1 || d.Checkpoints() != 0 {
		t.Fatalf("checkpoints %d, errors %d; want 0 and 1", d.Checkpoints(), d.CheckpointErrors())
	}
	if safe.DeltaLen() != 0 || safe.FoldedLen() != tinyBaseLen()+1 {
		t.Fatalf("delta %d, folded %d: the rebased base is not published", safe.DeltaLen(), safe.FoldedLen())
	}
	post := []traj.Symbol{6, 7, 8, 9}
	appendPath(t, safe, post...)
	for _, q := range [][]traj.Symbol{{1, 2, 3}, post} {
		if ms, err := safe.SearchExact(q); err != nil || len(ms) == 0 {
			t.Fatalf("search %v after the failed checkpoint: ms=%v err=%v", q, ms, err)
		}
	}
	closeDurable(t, safe)

	re, info, _ := openDurableTest(t, dir, opts)
	defer closeDurable(t, re)
	if info.IndexMapped || info.ReplayedRecords != 2 || re.NumTrajectories() != tinyBaseLen()+2 {
		t.Fatalf("reopen %+v with %d trajectories, want both appends over a rebuilt arena", info, re.NumTrajectories())
	}
	if err := os.RemoveAll(obstacle); err != nil {
		t.Fatal(err)
	}
	res, err := re.Checkpoint()
	if err != nil {
		t.Fatalf("retry after clearing the obstacle: %v", err)
	}
	if res.Generation != 2 || re.Durable().CheckpointErrors() != 0 {
		t.Fatalf("retry %+v, errors %d; want an arena over generation 2", res, re.Durable().CheckpointErrors())
	}
	if _, err := os.Stat(filepath.Join(dir, indexFile)); err != nil {
		t.Fatalf("no arena after the retry: %v", err)
	}
}

// TestCheckpointTrigger: with CheckpointBytes N, a background checkpoint
// fires each time the log has grown N bytes past the last checkpoint —
// counted from the log size recovered with a mapped arena after a reopen —
// not on every append once the log's total size passes N.
func TestCheckpointTrigger(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	opts := DurableOptions{Sync: wal.SyncAlways, CheckpointBytes: n}
	// settle waits for the count to reach want, then until a checkpoint
	// the last append may have started has finished, and reads the
	// count. A checkpoint that must not fire has no event to wait on:
	// 20 ms is ample for a goroutine the append started to take the
	// fold flag.
	settle := func(s *SafeEngine, want int64) int64 {
		deadline := time.Now().Add(10 * time.Second)
		for s.Durable().Checkpoints() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		for s.folding.Load() {
			time.Sleep(time.Millisecond)
		}
		return s.Durable().Checkpoints()
	}
	safe, _, _ := openDurableTest(t, dir, opts)
	d := safe.Durable()
	var mark int64 // fresh directory, no arena: the trigger counts from 0
	var want int64
	for i := 0; i < 24; i++ {
		appendPath(t, safe, 10, 11, 12, 13, 14, 15, 16, 17, 18, traj.Symbol(20+i))
		if size := d.WALStats().Bytes; size-mark >= n {
			want++
			mark = size
		}
		if got := settle(safe, want); got != want {
			t.Fatalf("after append %d (log %d bytes): %d checkpoints, want %d", i, d.WALStats().Bytes, got, want)
		}
	}
	if want < 3 || d.WALStats().Bytes < 3*n {
		t.Fatalf("only %d checkpoints over a %d-byte log: the test does not cross the trigger", want, d.WALStats().Bytes)
	}
	closeDurable(t, safe)

	re, info, _ := openDurableTest(t, dir, opts)
	defer closeDurable(t, re)
	if !info.IndexMapped {
		t.Fatalf("reopen rebuilt the arena: %+v", info)
	}
	appendPath(t, re, 10, 11, 12)
	if got := settle(re, 0); got != 0 {
		t.Fatalf("one append after a reopen over a mapped arena started %d checkpoints", got)
	}
}

// TestCheckpointSyncsLog: the arena must never cover a record the log
// could still lose, so a checkpoint flushes a log whose policy left
// frames unsynced before it persists the arena.
func TestCheckpointSyncsLog(t *testing.T) {
	safe, _, _ := openDurableTest(t, t.TempDir(), DurableOptions{Sync: wal.SyncNever})
	defer closeDurable(t, safe)
	appendPath(t, safe, 1, 2, 3)
	before := safe.Durable().WALStats().Syncs
	if _, err := safe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := safe.Durable().WALStats().Syncs; after != before+1 {
		t.Fatalf("log fsyncs %d -> %d across a checkpoint, want one flush", before, after)
	}
}
