package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/mapmatch"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wal"
	"subtraj/internal/wed"
)

// TestEpochLifecycleHammer exercises the full epoch-snapshot lifecycle
// at once, under -race: concurrent searches of every kind, direct
// appends, GPS trace ingest through /v1/ingest, background compaction,
// durable checkpoints, and /metrics + /v1/stats scrapes. It asserts the
// two system-wide invariants the design owes its users:
//
//   - monotonicity: the published generation and trajectory count never
//     move backwards, no matter how folds and checkpoints republish;
//   - zero lost appends: every acknowledged append (direct or via
//     ingest) is counted by exactly one generation step, so the final
//     generation equals the acknowledged total.
func TestEpochLifecycleHammer(t *testing.T) {
	dir := t.TempDir()
	ds := testutil.GoldenDataset()
	baseLen := ds.Len()
	safe, _, err := OpenDurable(dir, ds, wed.NewLev(), DurableOptions{
		Sync:            wal.SyncNever, // hammer throughput; fsync is PR 8's concern
		CheckpointBytes: 1 << 15,       // small: force background checkpoints mid-run
	})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer safe.Durable().Close()
	safe.SetCompactAppends(24) // small: force background folds mid-run

	srv := New(safe, Config{
		CacheSize:     32,
		MaxConcurrent: 8,
		MaxSymbol:     int32(testutil.GoldenRows * testutil.GoldenCols),
		Matcher:       mapmatch.New(testutil.GoldenNet(), mapmatch.Config{MaxGap: 300}),
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	q := sampleQuery(t, ds, 6, 3)
	tau := safe.Threshold(q, 0.3)

	const (
		searchers = 4
		appenders = 3
		rounds    = 40
	)
	var (
		wg      sync.WaitGroup // bounded workers
		watchWG sync.WaitGroup // monotonicity watchers, stopped after the workers drain
		acked   atomic.Int64   // appends acknowledged to a client
		stop    = make(chan struct{})
	)

	// Monotonicity watchers: generation and size may only grow, across
	// appends AND across republishes by folds and checkpoints.
	monotone := func(read func() int64, what string) {
		defer watchWG.Done()
		var last int64 = -1
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := read()
			if v < last {
				t.Errorf("%s moved backwards: %d -> %d", what, last, v)
				return
			}
			last = v
		}
	}
	watchWG.Add(2)
	go monotone(func() int64 { return int64(safe.Generation()) }, "generation")
	go monotone(func() int64 { return int64(safe.NumTrajectories()) }, "trajectories")

	// Searchers: every query kind against the lock-free snapshot.
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch i % 5 {
				case 0:
					if _, err := safe.Search(q, tau); err != nil {
						t.Errorf("Search: %v", err)
					}
				case 1:
					if _, err := safe.SearchTopK(q, 3); err != nil {
						t.Errorf("SearchTopK: %v", err)
					}
				case 2:
					qr := core.Query{Q: q, Tau: tau, Parallelism: 2}
					qr.Temporal.Mode = core.TemporalDeparture
					qr.Temporal.Lo, qr.Temporal.Hi = 0, 1e12
					if _, _, err := safe.SearchQuery(qr); err != nil {
						t.Errorf("SearchQuery(departure): %v", err)
					}
				case 3:
					if _, err := safe.SearchExact(q); err != nil {
						t.Errorf("SearchExact: %v", err)
					}
				case 4:
					if _, err := safe.CountExact(q); err != nil {
						t.Errorf("CountExact: %v", err)
					}
				}
			}
		}(g)
	}

	// Direct appenders (the WAL-logged write path).
	rng := rand.New(rand.NewSource(42))
	paths := make([][]traj.Symbol, appenders*rounds)
	for i := range paths {
		paths[i] = append([]traj.Symbol(nil), ds.Path(int32(rng.Intn(baseLen)))...)
	}
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := safe.Append(traj.Trajectory{Path: paths[g*rounds+i]}); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				acked.Add(1)
			}
		}(g)
	}

	// Trace ingest over HTTP: the GPS pipeline appends matched segments
	// through the same batch path; its response acknowledges how many.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			trace, _ := goldenTrace(10, i%len(testutil.GoldenPaths()), int64(i))
			resp, out := post(t, ts.URL+"/v1/ingest", map[string]any{"traces": []any{trace}})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("ingest: status %d", resp.StatusCode)
				return
			}
			var appended int
			if err := json.Unmarshal(out["appended"], &appended); err != nil {
				t.Errorf("ingest response: %v", err)
				return
			}
			acked.Add(int64(appended))
		}
	}()

	// Explicit compaction and checkpoint callers on top of the
	// background triggers; busy errors mean someone else is folding.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := safe.Compact(); err != nil && err != ErrFoldBusy {
				t.Errorf("Compact: %v", err)
			}
			if _, err := safe.Checkpoint(); err != nil && err != ErrFoldBusy {
				t.Errorf("Checkpoint: %v", err)
			}
		}
	}()

	// Scraper: /metrics exposition and /v1/stats while everything runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastGen uint64
		for i := 0; i < 8; i++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Errorf("metrics scrape: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for _, fam := range []string{"subtraj_delta_trajectories", "subtraj_compactions_total", "subtraj_snapshot_publishes_total", "subtraj_folded_trajectories"} {
				if !strings.Contains(string(body), fam) {
					t.Errorf("metrics scrape missing %s", fam)
					return
				}
			}
			var st StatsSnapshot
			getJSON(t, ts.URL+"/v1/stats", &st)
			if st.Engine.Generation < lastGen {
				t.Errorf("stats generation moved backwards: %d -> %d", lastGen, st.Engine.Generation)
				return
			}
			lastGen = st.Engine.Generation
			if st.Ingest.FoldedTrajectories+st.Ingest.DeltaTrajectories != st.Engine.Trajectories {
				t.Errorf("stats partition mismatch: folded %d + delta %d != %d",
					st.Ingest.FoldedTrajectories, st.Ingest.DeltaTrajectories, st.Engine.Trajectories)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	watchWG.Wait()

	// Zero lost appends: the acknowledged total IS the generation.
	if got, want := safe.Generation(), uint64(acked.Load()); got != want {
		t.Errorf("generation %d != acknowledged appends %d", got, want)
	}
	if got, want := safe.NumTrajectories(), baseLen+int(acked.Load()); got != want {
		t.Errorf("trajectories %d != base %d + acked %d", got, baseLen, acked.Load())
	}

	// A final fold must preserve both, and fold everything.
	for {
		if _, err := safe.Compact(); err == nil {
			break
		} else if err != ErrFoldBusy {
			t.Fatalf("final compact: %v", err)
		}
	}
	if safe.DeltaLen() != 0 {
		t.Errorf("delta %d after final compact, want 0", safe.DeltaLen())
	}
	if got, want := safe.FoldedLen(), baseLen+int(acked.Load()); got != want {
		t.Errorf("folded %d after final compact, want %d", got, want)
	}
	if srv.Snapshot().Ingest.SnapshotPublishes < int64(acked.Load()) {
		t.Errorf("publishes %d < acked appends %d", srv.Snapshot().Ingest.SnapshotPublishes, acked.Load())
	}
}
