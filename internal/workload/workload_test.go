package workload_test

import (
	"math/rand"
	"testing"

	"subtraj/internal/traj"
	"subtraj/internal/workload"
)

func TestGenerateDeterministic(t *testing.T) {
	a := workload.Generate(workload.Tiny(7))
	b := workload.Generate(workload.Tiny(7))
	if a.Data.Len() != b.Data.Len() {
		t.Fatal("non-deterministic trajectory count")
	}
	for i := range a.Data.Trajs {
		pa, pb := a.Data.Trajs[i].Path, b.Data.Trajs[i].Path
		if len(pa) != len(pb) {
			t.Fatalf("trajectory %d length differs", i)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("trajectory %d differs at %d", i, j)
			}
		}
	}
}

func TestTrajectoriesArePaths(t *testing.T) {
	w := workload.Generate(workload.Tiny(8))
	for id := range w.Data.Trajs {
		p := w.Data.Trajs[id].Path
		vp := make([]int32, len(p))
		copy(vp, p)
		if !w.Graph.IsPath(vp) {
			t.Fatalf("trajectory %d is not a path", id)
		}
	}
}

func TestTimestampsMonotone(t *testing.T) {
	w := workload.Generate(workload.Tiny(9))
	for id := range w.Data.Trajs {
		ts := w.Data.Trajs[id].Times
		p := w.Data.Trajs[id].Path
		if len(ts) != len(p) {
			t.Fatalf("trajectory %d: %d timestamps for %d vertices", id, len(ts), len(p))
		}
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				t.Fatalf("trajectory %d: non-increasing time at %d", id, i)
			}
		}
	}
}

func TestAverageLengthNearTarget(t *testing.T) {
	cfg := workload.Tiny(10)
	cfg.NumTrajectories = 200
	cfg.TargetLen = 30
	w := workload.Generate(cfg)
	avg := w.Data.AvgLen()
	if avg < float64(cfg.TargetLen)*0.5 || avg > float64(cfg.TargetLen)*1.5 {
		t.Fatalf("average length %v far from target %d", avg, cfg.TargetLen)
	}
}

func TestSampleQuery(t *testing.T) {
	w := workload.Generate(workload.Tiny(11))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		q, err := workload.SampleQuery(w.Data, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(q) != 8 {
			t.Fatalf("query length %d", len(q))
		}
		vp := make([]int32, len(q))
		copy(vp, q)
		if !w.Graph.IsPath(vp) {
			t.Fatal("query is not a path")
		}
	}
	// Impossible lengths and an empty dataset must error, not panic.
	if _, err := workload.SampleQuery(w.Data, 1<<20, rng); err == nil {
		t.Fatal("oversized query accepted")
	}
	if _, err := workload.SampleQuery(w.Data, 0, rng); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := workload.SampleQuery(traj.NewDataset(traj.VertexRep), 8, rng); err == nil {
		t.Fatal("query sampled from an empty dataset")
	}
	qs, err := workload.SampleQueries(w.Data, 5, 7, rng)
	if err != nil || len(qs) != 7 {
		t.Fatalf("SampleQueries: %v, %d", err, len(qs))
	}
}

func TestScale(t *testing.T) {
	cfg := workload.BeijingLike()
	half := cfg.Scale(0.5)
	if half.NumTrajectories != cfg.NumTrajectories/2 {
		t.Fatalf("scale: %d", half.NumTrajectories)
	}
	if half.Name != cfg.Name {
		t.Fatal("scale must preserve identity")
	}
}

func TestPaperShapedConfigs(t *testing.T) {
	// Relative shape assertions from Table 2: Porto has the most
	// trajectories of the three real datasets; Singapore the longest
	// paths and smallest network; SanFran the largest count.
	b, p, s, f := workload.BeijingLike(), workload.PortoLike(), workload.SingaporeLike(), workload.SanFranLike()
	if !(p.NumTrajectories > b.NumTrajectories && b.NumTrajectories > s.NumTrajectories) {
		t.Fatal("trajectory-count ordering broken")
	}
	if f.NumTrajectories <= p.NumTrajectories {
		t.Fatal("SanFran must be the bulk dataset")
	}
	if !(s.TargetLen > b.TargetLen && s.TargetLen > p.TargetLen) {
		t.Fatal("Singapore must have the longest paths")
	}
	if !(s.GridRows < b.GridRows && s.GridRows < p.GridRows) {
		t.Fatal("Singapore must have the smallest network")
	}
}

func TestRingRadialWorkload(t *testing.T) {
	cfg := workload.PortoLike()
	cfg.NumTrajectories = 150
	w := workload.Generate(cfg)
	if w.Graph.NumVertices() == 0 {
		t.Fatal("empty ring-radial graph")
	}
	for id := range w.Data.Trajs {
		p := w.Data.Trajs[id].Path
		vp := make([]int32, len(p))
		copy(vp, p)
		if !w.Graph.IsPath(vp) {
			t.Fatalf("trajectory %d is not a path on the ring-radial network", id)
		}
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := workload.SampleQuery(w.Data, 40, rng); err != nil {
		t.Fatalf("cannot sample |Q|=40 queries: %v", err)
	}
}

func TestEdgeRepConversionOfWorkload(t *testing.T) {
	w := workload.Generate(workload.Tiny(12))
	ed, err := w.Data.ToEdgeRep(w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if ed.Rep != traj.EdgeRep {
		t.Fatal("wrong rep")
	}
	if ed.Len() == 0 {
		t.Fatal("empty edge dataset")
	}
}
