package server

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"subtraj/internal/core"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// newTestEngine builds a small engine over the tiny synthetic workload
// with Levenshtein costs (alphabet-agnostic, so appends of arbitrary
// vertex paths are always valid).
func newTestEngine(t testing.TB) (*SafeEngine, *workload.Workload) {
	t.Helper()
	w := workload.Generate(workload.Tiny(7))
	eng := core.NewEngine(w.Data, wed.NewLev())
	return NewSafeEngine(eng), w
}

func sampleQuery(t testing.TB, ds *traj.Dataset, qlen int, seed int64) []traj.Symbol {
	t.Helper()
	q, err := workload.SampleQuery(ds, qlen, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("SampleQuery: %v", err)
	}
	return q
}

// TestSafeEngineConcurrentAppendSearch hammers the wrapper with
// concurrent appends and every query kind. Run under -race this is the
// acceptance test for the synchronization design: the unwrapped engine
// fails it immediately.
func TestSafeEngineConcurrentAppendSearch(t *testing.T) {
	safe, w := newTestEngine(t)
	q := sampleQuery(t, w.Data, 8, 1)
	tau := safe.Threshold(q, 0.3)

	const (
		searchers = 8
		appenders = 3
		rounds    = 40
	)
	var wg sync.WaitGroup
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
					qr := core.Query{Q: q, Tau: tau}
					qr.Temporal.Mode = core.TemporalDeparture
					qr.Temporal.Lo, qr.Temporal.Hi = 0, 1e9
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
	rng := rand.New(rand.NewSource(99))
	paths := make([][]traj.Symbol, appenders*rounds)
	for i := range paths {
		paths[i] = append([]traj.Symbol(nil), w.Data.Path(int32(rng.Intn(w.Data.Len())))...)
	}
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				safe.Append(traj.Trajectory{Path: paths[g*rounds+i]})
			}
		}(g)
	}
	wg.Wait()

	if got, want := safe.Generation(), uint64(appenders*rounds); got != want {
		t.Errorf("Generation = %d, want %d", got, want)
	}
	if got, want := safe.NumTrajectories(), 60+appenders*rounds; got != want {
		t.Errorf("NumTrajectories = %d, want %d", got, want)
	}
}

// TestTemporalSearchUnderAppendLoad is the liveness regression test for
// temporal queries under a sustained append stream. Under the old
// RWMutex design a departure-mode query could lose the
// RLock→build→retry race against appends and needed a bounded-retry
// workaround; with epoch snapshots each query runs against an immutable
// published state whose temporal view is prebuilt, so there is nothing
// to retry and nothing to starve. Phase two tightens the check into a
// structural one: with the ingest mutex HELD (every writer blocked),
// temporal queries must still complete — proving the read path acquires
// no lock at all, not merely that it wins races.
func TestTemporalSearchUnderAppendLoad(t *testing.T) {
	safe, w := newTestEngine(t)
	q := sampleQuery(t, w.Data, 6, 2)
	tau := safe.Threshold(q, 0.3)

	const (
		appenders = 4
		searchers = 4
		rounds    = 50
	)
	paths := make([][]traj.Symbol, appenders*rounds)
	rng := rand.New(rand.NewSource(11))
	for i := range paths {
		paths[i] = append([]traj.Symbol(nil), w.Data.Path(int32(rng.Intn(w.Data.Len())))...)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				select {
				case <-stop:
					return
				default:
				}
				safe.Append(traj.Trajectory{Path: paths[g*rounds+i]})
			}
		}(g)
	}
	var searchWG sync.WaitGroup
	for g := 0; g < searchers; g++ {
		searchWG.Add(1)
		go func() {
			defer searchWG.Done()
			for i := 0; i < rounds; i++ {
				qr := core.Query{Q: q, Tau: tau}
				qr.Temporal.Mode = core.TemporalDeparture
				qr.Temporal.Lo, qr.Temporal.Hi = 0, 1e12
				if _, _, err := safe.SearchQuery(qr); err != nil {
					t.Errorf("temporal search: %v", err)
					return
				}
			}
		}()
	}
	// Every temporal query must finish even while appends keep coming;
	// only after they all return do we let the appenders drain.
	searchWG.Wait()
	close(stop)
	wg.Wait()

	// Phase two: zero write-lock acquisitions on the read path. Hold the
	// ingest mutex — the ONLY mutex the wrapper owns — and require every
	// query kind to complete anyway. A read path that touched the mutex
	// (as the old design's temporal upgrade did) would deadlock here and
	// trip the watchdog.
	safe.ingestMu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			qr := core.Query{Q: q, Tau: tau}
			qr.Temporal.Mode = core.TemporalDeparture
			qr.Temporal.Lo, qr.Temporal.Hi = 0, 1e12
			if _, _, err := safe.SearchQuery(qr); err != nil {
				t.Errorf("temporal search under held ingest mutex: %v", err)
				return
			}
			if _, err := safe.SearchTopK(q, 3); err != nil {
				t.Errorf("topk under held ingest mutex: %v", err)
				return
			}
			safe.Generation()
			safe.NumTrajectories()
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("read path blocked while the ingest mutex was held — a query acquired a write lock")
	}
	safe.ingestMu.Unlock()
}

// TestSafeEngineAppendVisible checks an appended trajectory is findable
// and bumps the generation.
func TestSafeEngineAppendVisible(t *testing.T) {
	safe, w := newTestEngine(t)
	path := append([]traj.Symbol(nil), w.Data.Path(0)...)
	gen := safe.Generation()
	id, err := safe.Append(traj.Trajectory{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if safe.Generation() != gen+1 {
		t.Fatalf("Generation did not advance")
	}
	ms, err := safe.SearchExact(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.ID == id {
			found = true
		}
	}
	if !found {
		t.Errorf("appended trajectory %d not in exact matches %v", id, ms)
	}
}
