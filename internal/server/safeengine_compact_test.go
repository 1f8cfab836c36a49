package server

import (
	"reflect"
	"sync"
	"testing"

	"subtraj/internal/core"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// TestSafeEngineCompactOverlay serves a compact snapshot of half the
// workload, streams the other half in through SafeEngine.Append (landing
// in the delta over the arena), and checks the mixed snapshot+tail
// engine answers plain, temporal, top-k, and exact queries identically to
// a flat pointer engine over the full dataset.
func TestSafeEngineCompactOverlay(t *testing.T) {
	w := workload.Generate(workload.Tiny(13))
	full := w.Data
	half := traj.NewDataset(traj.VertexRep)
	n := full.Len()
	for id := 0; id < n/2; id++ {
		tr := full.Get(int32(id))
		half.Add(traj.Trajectory{Path: tr.Path, Times: tr.Times})
	}
	safe := NewSafeEngine(core.NewEngineCompact(half, wed.NewLev()))
	for id := n / 2; id < n; id++ {
		tr := full.Get(int32(id))
		safe.Append(traj.Trajectory{Path: tr.Path, Times: tr.Times})
	}
	if safe.IndexKind() != "compact" {
		t.Fatalf("IndexKind = %q, want compact", safe.IndexKind())
	}
	if safe.NumTrajectories() != n {
		t.Fatalf("NumTrajectories = %d, want %d", safe.NumTrajectories(), n)
	}

	ref := core.NewEngine(full, wed.NewLev())
	q := sampleQuery(t, full, 8, 5)
	tau := safe.Threshold(q, 0.3)

	want, _, err := ref.SearchQuery(core.Query{Q: q, Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := safe.SearchQuery(core.Query{Q: q, Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed snapshot+tail search differs:\n got %v\nwant %v", got, want)
	}

	qr := core.Query{Q: q, Tau: tau}
	qr.Temporal.Mode = core.TemporalDeparture
	qr.Temporal.Lo, qr.Temporal.Hi = 0, 1e9
	wantT, _, err := ref.SearchQuery(qr)
	if err != nil {
		t.Fatal(err)
	}
	gotT, _, err := safe.SearchQuery(qr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotT, wantT) {
		t.Fatal("mixed snapshot+tail departure query differs from flat engine")
	}

	wantK, err := ref.SearchTopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotK, err := safe.SearchTopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotK, wantK) {
		t.Fatal("mixed snapshot+tail top-k differs from flat engine")
	}

	wantN, err := ref.CountExact(q)
	if err != nil {
		t.Fatal(err)
	}
	gotN, err := safe.CountExact(q)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN {
		t.Fatalf("CountExact = %d, want %d", gotN, wantN)
	}
}

// TestSafeEngineCompactConcurrent hammers the compact backend with
// concurrent searchers and appenders: under -race this checks the pooled
// arena cursors and the delta over the arena against the wrapper's
// publishes, the same acceptance bar the pointer backend passes in
// TestSafeEngineConcurrentAppendSearch.
func TestSafeEngineCompactConcurrent(t *testing.T) {
	w := workload.Generate(workload.Tiny(17))
	safe := NewSafeEngine(core.NewEngineCompact(w.Data, wed.NewLev()))
	q := sampleQuery(t, w.Data, 8, 3)
	tau := safe.Threshold(q, 0.3)

	const (
		searchers = 6
		rounds    = 30
	)
	var wg sync.WaitGroup
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch i % 3 {
				case 0:
					if _, err := safe.Search(q, tau); err != nil {
						t.Errorf("Search: %v", err)
					}
				case 1:
					qr := core.Query{Q: q, Tau: tau, Parallelism: 2}
					qr.Temporal.Mode = core.TemporalDeparture
					qr.Temporal.Lo, qr.Temporal.Hi = 0, 1e9
					if _, _, err := safe.SearchQuery(qr); err != nil {
						t.Errorf("SearchQuery(departure): %v", err)
					}
				case 2:
					if _, err := safe.SearchTopK(q, 3); err != nil {
						t.Errorf("SearchTopK: %v", err)
					}
				}
			}
		}(g)
	}
	paths := make([]traj.Trajectory, rounds)
	for i := range paths {
		tr := w.Data.Get(int32(i % w.Data.Len()))
		paths[i] = traj.Trajectory{
			Path:  append([]traj.Symbol(nil), tr.Path...),
			Times: append([]float64(nil), tr.Times...),
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tr := range paths {
			safe.Append(tr)
		}
	}()
	wg.Wait()
}
