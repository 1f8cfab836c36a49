package subtraj_test

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"subtraj"
	"subtraj/internal/testutil"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	w := subtraj.Generate(subtraj.TinyWorkload(101))
	net := subtraj.NewNetwork(w.Graph)
	rng := rand.New(rand.NewSource(101))

	eng, err := subtraj.NewEngine(w.Data, net.EDR(60))
	if err != nil {
		t.Fatal(err)
	}
	q, err := subtraj.SampleQuery(w.Data, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := eng.SearchRatio(q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// The query is a verbatim subtrajectory of some data trajectory, so
	// at least one exact (wed = 0) match must exist.
	foundZero := false
	for _, m := range ms {
		if m.WED == 0 {
			foundZero = true
		}
		if m.WED >= eng.Threshold(q, 0.2) {
			t.Fatalf("match at %v ≥ τ", m.WED)
		}
	}
	if !foundZero {
		t.Fatal("the sampled query's own occurrence was not found")
	}
}

func TestPublicAPIAllModels(t *testing.T) {
	w := subtraj.Generate(subtraj.TinyWorkload(102))
	net := subtraj.NewNetwork(w.Graph)
	rng := rand.New(rand.NewSource(102))

	edgeData, err := w.Data.ToEdgeRep(w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	medW := w.Graph.MedianEdgeWeight()
	models := []struct {
		name  string
		costs subtraj.FilterCosts
		data  *subtraj.Dataset
	}{
		{"Lev", net.Lev(), w.Data},
		{"EDR", net.EDR(60), w.Data},
		{"ERP", net.ERP(net.DefaultERPEta()), w.Data},
		{"NetEDR", net.NetEDR(medW), w.Data},
		{"NetERP", net.NetERP(2000, medW), w.Data},
		{"SURS", net.SURS(), edgeData},
	}
	for _, m := range models {
		eng, err := subtraj.NewEngine(m.data, m.costs)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		q, err := subtraj.SampleQuery(m.data, 8, rng)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		ms, err := eng.SearchRatio(q, 0.15)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if len(ms) == 0 {
			t.Fatalf("%s: sampled query found no matches (its own occurrence must match)", m.name)
		}
	}
}

func TestSearchStatsExposed(t *testing.T) {
	w := subtraj.Generate(subtraj.TinyWorkload(103))
	net := subtraj.NewNetwork(w.Graph)
	rng := rand.New(rand.NewSource(103))
	eng, _ := subtraj.NewEngine(w.Data, net.Lev())
	q, _ := subtraj.SampleQuery(w.Data, 8, rng)
	tau := eng.Threshold(q, 0.25)
	_, stats, err := eng.SearchStats(q, tau, subtraj.VerifyOptions{Mode: subtraj.VerifyLocal})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates <= 0 || stats.SubseqLen <= 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if stats.CSum < tau {
		t.Fatalf("c(Q') = %v < τ = %v", stats.CSum, tau)
	}
}

func TestSearchTemporalWindow(t *testing.T) {
	w := subtraj.Generate(subtraj.TinyWorkload(104))
	net := subtraj.NewNetwork(w.Graph)
	rng := rand.New(rand.NewSource(104))
	eng, _ := subtraj.NewEngine(w.Data, net.Lev())
	q, _ := subtraj.SampleQuery(w.Data, 8, rng)
	tau := eng.Threshold(q, 0.25)
	all, err := eng.Search(q, tau)
	if err != nil {
		t.Fatal(err)
	}
	// The full horizon window keeps everything under overlap semantics.
	full, _, err := eng.SearchTemporal(q, tau, subtraj.TemporalWindow{Lo: 0, Hi: math.MaxFloat64})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(all) {
		t.Fatalf("full window dropped matches: %d vs %d", len(full), len(all))
	}
	// TF and no-TF must agree.
	win := subtraj.TemporalWindow{Lo: 0, Hi: 1800}
	a, _, err := eng.SearchTemporal(q, tau, win)
	if err != nil {
		t.Fatal(err)
	}
	win.NoPrefilter = true
	b, _, err := eng.SearchTemporal(q, tau, win)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("TF/no-TF disagree: %d vs %d", len(a), len(b))
	}
}

func TestBestPerTrajectory(t *testing.T) {
	ms := []subtraj.Match{
		{ID: 1, S: 0, T: 5, WED: 2},
		{ID: 1, S: 2, T: 4, WED: 1},
		{ID: 1, S: 3, T: 4, WED: 1},
		{ID: 2, S: 0, T: 1, WED: 0},
	}
	best := subtraj.BestPerTrajectory(ms)
	if len(best) != 2 {
		t.Fatalf("best size %d", len(best))
	}
	// ID 1: wed 1 wins; among ties the shorter [3,4].
	if b := best[1]; b.WED != 1 || b.S != 3 || b.T != 4 {
		t.Fatalf("best for 1: %+v", b)
	}
	if b := best[2]; b.WED != 0 {
		t.Fatalf("best for 2: %+v", b)
	}
}

func TestEngineAppendPublic(t *testing.T) {
	w := subtraj.Generate(subtraj.TinyWorkload(105))
	net := subtraj.NewNetwork(w.Graph)
	eng, _ := subtraj.NewEngine(w.Data, net.Lev())
	n := eng.Dataset().Len()
	// Append a copy of trajectory 0 and search for its prefix.
	t0 := *eng.Dataset().Get(0)
	id := eng.Append(t0)
	if int(id) != n {
		t.Fatalf("appended ID %d, want %d", id, n)
	}
	qlen := 5
	if len(t0.Path) < qlen {
		qlen = len(t0.Path)
	}
	q := t0.Path[:qlen]
	ms, err := eng.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	foundNew := false
	for _, m := range ms {
		if m.ID == id && m.WED == 0 {
			foundNew = true
		}
	}
	if !foundNew {
		t.Fatal("appended trajectory not searchable")
	}
}

func TestNilArguments(t *testing.T) {
	if _, err := subtraj.NewEngine(nil, nil); err == nil {
		t.Fatal("nil engine args accepted")
	}
}

func TestSearchExactPublic(t *testing.T) {
	w := subtraj.Generate(subtraj.TinyWorkload(109))
	net := subtraj.NewNetwork(w.Graph)
	eng, _ := subtraj.NewEngine(w.Data, net.Lev())
	rng := rand.New(rand.NewSource(109))
	q, _ := subtraj.SampleQuery(w.Data, 8, rng)
	ms, err := eng.SearchExact(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("sampled query has no exact occurrence")
	}
	for _, m := range ms {
		p := w.Data.Get(m.ID).Path[m.S : m.T+1]
		for i := range q {
			if p[i] != q[i] {
				t.Fatalf("non-exact match %+v", m)
			}
		}
	}
	n, err := eng.CountExact(q)
	if err != nil || n != len(ms) {
		t.Fatalf("CountExact %d != %d", n, len(ms))
	}
}

func TestSearchTopKPublic(t *testing.T) {
	w := subtraj.Generate(subtraj.TinyWorkload(106))
	net := subtraj.NewNetwork(w.Graph)
	eng, _ := subtraj.NewEngine(w.Data, net.EDR(60))
	rng := rand.New(rand.NewSource(106))
	q, _ := subtraj.SampleQuery(w.Data, 8, rng)
	top, err := eng.SearchTopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 {
		t.Fatal("no top-k results for a sampled query")
	}
	if top[0].WED != 0 {
		t.Fatalf("best match wed = %v, want 0 (query sampled from data)", top[0].WED)
	}
	for i := 1; i < len(top); i++ {
		if top[i].WED < top[i-1].WED {
			t.Fatal("top-k not sorted by WED")
		}
	}
	seen := map[int32]bool{}
	for _, m := range top {
		if seen[m.ID] {
			t.Fatal("duplicate trajectory in top-k")
		}
		seen[m.ID] = true
	}
}

func TestSearchTemporalDeparture(t *testing.T) {
	w := subtraj.Generate(subtraj.TinyWorkload(107))
	net := subtraj.NewNetwork(w.Graph)
	eng, _ := subtraj.NewEngine(w.Data, net.Lev())
	rng := rand.New(rand.NewSource(107))
	q, _ := subtraj.SampleQuery(w.Data, 8, rng)
	tau := eng.Threshold(q, 0.3)
	win := subtraj.TemporalWindow{Lo: 0, Hi: 1800, Departure: true}
	got, _, err := eng.SearchTemporal(q, tau, win)
	if err != nil {
		t.Fatal(err)
	}
	// Every match's trajectory must depart inside the window, and the
	// no-prefilter run must agree.
	for _, m := range got {
		dep, ok := w.Data.Get(m.ID).Departure()
		if !ok || dep < win.Lo || dep > win.Hi {
			t.Fatalf("match %+v departs at %v outside window", m, dep)
		}
	}
	win.NoPrefilter = true
	want, _, err := eng.SearchTemporal(q, tau, win)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("prefilter changed results: %d vs %d", len(got), len(want))
	}
}

// TestOpenMappedEngineRejectsForeignDataset: an index file saved for the
// golden dataset maps back over it and answers like the engine that saved
// it, and is refused over a dataset of as many trajectories that differs
// in one symbol — the count alone cannot tell the two apart.
func TestOpenMappedEngineRejectsForeignDataset(t *testing.T) {
	ds := testutil.GoldenDataset()
	costs := subtraj.NewNetwork(testutil.GoldenNet()).EDR(100)
	eng, err := subtraj.NewEngine(ds, costs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.sbtj")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveIndex(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	mapped, closeIndex, err := subtraj.OpenMappedEngine(ds, costs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer closeIndex()
	q := ds.Path(0)
	want, err := eng.SearchRatio(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := mapped.SearchRatio(q, 0.3); err != nil || !slices.Equal(got, want) {
		t.Fatalf("mapped engine: %v, %v; want %v", got, err, want)
	}

	foreign := &subtraj.Dataset{Rep: ds.Rep, Trajs: slices.Clone(ds.Trajs)}
	p := slices.Clone(foreign.Trajs[1].Path)
	p[len(p)-1]++
	foreign.Trajs[1].Path = p
	if _, _, err := subtraj.OpenMappedEngine(foreign, costs, path); err == nil {
		t.Fatal("an index of the golden dataset opened over a dataset that differs in one symbol")
	}
}

// TestOpenMappedEngineMapsPrefix: an index file saved before the dataset
// grew still opens — it indexes a prefix, and the trajectories after it
// are indexed as appends — and answers like an engine built over the
// whole dataset. A file of an older format version is refused with an
// error a caller can tell apart (ErrStaleIndex) and rebuild on.
func TestOpenMappedEngineMapsPrefix(t *testing.T) {
	ds := testutil.GoldenDataset()
	costs := subtraj.NewNetwork(testutil.GoldenNet()).EDR(100)
	eng, err := subtraj.NewEngine(&subtraj.Dataset{Rep: ds.Rep, Trajs: slices.Clone(ds.Trajs[:ds.Len()/2])}, costs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "half.sbtj")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveIndex(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	mapped, closeIndex, err := subtraj.OpenMappedEngine(ds, costs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer closeIndex()
	full, err := subtraj.NewEngine(ds, costs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int32{0, int32(ds.Len() - 1)} {
		q := ds.Path(id)
		want, err := full.SearchRatio(q, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := mapped.SearchRatio(q, 0.3); err != nil || !slices.Equal(got, want) {
			t.Fatalf("query %d: mapped prefix engine %v, %v; want %v", id, got, err, want)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 1 // the format version
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := subtraj.OpenMappedEngine(ds, costs, path); !errors.Is(err, subtraj.ErrStaleIndex) {
		t.Fatalf("an older-version file: %v, want ErrStaleIndex", err)
	}
}
