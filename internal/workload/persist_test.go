package workload_test

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"subtraj/internal/traj"
	"subtraj/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := workload.Generate(workload.Tiny(55))
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := workload.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumVertices() != orig.Graph.NumVertices() {
		t.Fatalf("vertices %d != %d", got.Graph.NumVertices(), orig.Graph.NumVertices())
	}
	if got.Graph.NumEdges() != orig.Graph.NumEdges() {
		t.Fatalf("edges %d != %d", got.Graph.NumEdges(), orig.Graph.NumEdges())
	}
	for v := int32(0); v < int32(orig.Graph.NumVertices()); v++ {
		if got.Graph.Coord(v) != orig.Graph.Coord(v) {
			t.Fatalf("coord %d differs", v)
		}
	}
	for i, e := range orig.Graph.Edges() {
		ge := got.Graph.Edge(int32(i))
		if ge.From != e.From || ge.To != e.To || ge.Weight != e.Weight {
			t.Fatalf("edge %d differs", i)
		}
	}
	if got.Data.Len() != orig.Data.Len() {
		t.Fatalf("trajectories %d != %d", got.Data.Len(), orig.Data.Len())
	}
	for id := range orig.Data.Trajs {
		a, b := orig.Data.Trajs[id], got.Data.Trajs[id]
		if len(a.Path) != len(b.Path) || len(a.Times) != len(b.Times) {
			t.Fatalf("trajectory %d shape differs", id)
		}
		for i := range a.Path {
			if a.Path[i] != b.Path[i] || a.Times[i] != b.Times[i] {
				t.Fatalf("trajectory %d content differs at %d", id, i)
			}
		}
	}
	if got.Config.Name != orig.Config.Name {
		t.Fatal("config lost")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := workload.Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadRejectsCorruptEdges(t *testing.T) {
	// Craft a stream with an out-of-range edge by saving and patching is
	// brittle; instead encode a minimal bad container through the public
	// API: a graph with 1 vertex cannot have edges, so hand-build via
	// Save of a valid workload then Load of a truncated prefix.
	orig := workload.Generate(workload.Tiny(56))
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := workload.Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// TestLoadRejectsBadTimes: a time row that does not fit its path — one
// entry for a multi-vertex path, a NaN, a step back in time — is a
// corrupt file, named by its trajectory, not a dataset that panics the
// first temporal query over that row.
func TestLoadRejectsBadTimes(t *testing.T) {
	for name, cut := range map[string]func([]float64) []float64{
		"short":      func(ts []float64) []float64 { return ts[:1] },
		"nan":        func(ts []float64) []float64 { ts[2] = math.NaN(); return ts },
		"infinite":   func(ts []float64) []float64 { ts[0] = math.Inf(-1); return ts },
		"decreasing": func(ts []float64) []float64 { ts[3] = ts[2] - 1; return ts },
	} {
		t.Run(name, func(t *testing.T) {
			w := workload.Generate(workload.Tiny(57))
			tr := &w.Data.Trajs[5]
			tr.Times = cut(slices.Clone(tr.Times))
			var buf bytes.Buffer
			if err := w.Save(&buf); err != nil {
				t.Fatal(err)
			}
			_, err := workload.Load(&buf)
			if err == nil || !strings.Contains(err.Error(), "trajectory 5") {
				t.Fatalf("Load = %v, want an error naming trajectory 5", err)
			}
		})
	}
}

// TestPresetsPassTimesRule: every generated preset satisfies the time rule
// Load enforces — in vertex and in edge representation — so a dataset
// file written by datagen always loads.
func TestPresetsPassTimesRule(t *testing.T) {
	for _, cfg := range []workload.Config{workload.BeijingLike(), workload.PortoLike(),
		workload.SingaporeLike(), workload.SanFranLike(), workload.Tiny(58)} {
		cfg.NumTrajectories = min(cfg.NumTrajectories, 120)
		w := workload.Generate(cfg)
		ed, err := w.Data.ToEdgeRep(w.Graph)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range []*traj.Dataset{w.Data, ed} {
			for id := range ds.Trajs {
				if err := ds.Trajs[id].CheckTimes(ds.Rep); err != nil {
					t.Fatalf("%s (%s): trajectory %d: %v", cfg.Name, ds.Rep, id, err)
				}
			}
		}
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := workload.Load(&buf); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
}
