package traj_test

import (
	"math"
	"testing"

	"subtraj/internal/testutil"
	"subtraj/internal/traj"
)

func TestDatasetBasics(t *testing.T) {
	ds := traj.NewDataset(traj.VertexRep)
	if ds.Len() != 0 || ds.AvgLen() != 0 || ds.TotalSymbols() != 0 {
		t.Fatal("empty dataset stats non-zero")
	}
	id := ds.Add(traj.Trajectory{Path: []traj.Symbol{1, 2, 3}, Times: []float64{0, 1, 2}})
	if id != 0 || ds.Len() != 1 {
		t.Fatal("add failed")
	}
	ds.Add(traj.Trajectory{Path: []traj.Symbol{4}, Times: []float64{5}})
	if ds.AvgLen() != 2 {
		t.Fatalf("avg len %v", ds.AvgLen())
	}
	if ds.TotalSymbols() != 4 {
		t.Fatalf("total symbols %d", ds.TotalSymbols())
	}
	tr := ds.Get(0)
	if dep, ok := tr.Departure(); !ok || dep != 0 {
		t.Fatal("departure")
	}
	if arr, ok := tr.Arrival(); !ok || arr != 2 {
		t.Fatal("arrival")
	}
	lo, hi, ok := tr.Interval()
	if !ok || lo != 0 || hi != 2 {
		t.Fatal("interval")
	}
	var empty traj.Trajectory
	if _, ok := empty.Departure(); ok {
		t.Fatal("empty departure ok")
	}
	if _, _, ok := empty.Interval(); ok {
		t.Fatal("empty interval ok")
	}
}

func TestSlice(t *testing.T) {
	ds := traj.NewDataset(traj.VertexRep)
	for i := 0; i < 10; i++ {
		ds.Add(traj.Trajectory{Path: []traj.Symbol{traj.Symbol(i)}})
	}
	half := ds.Slice(5)
	if half.Len() != 5 {
		t.Fatalf("slice len %d", half.Len())
	}
	over := ds.Slice(50)
	if over.Len() != 10 {
		t.Fatalf("over-slice len %d", over.Len())
	}
}

func TestToEdgeRep(t *testing.T) {
	env := testutil.NewEnv(1, 15, 12)
	ed, err := env.V.ToEdgeRep(env.G)
	if err != nil {
		t.Fatal(err)
	}
	if ed.Rep != traj.EdgeRep {
		t.Fatal("wrong representation")
	}
	// Each edge path must reconstruct the original vertex path.
	j := 0
	for id := range env.V.Trajs {
		vp := env.V.Trajs[id].Path
		if len(vp) < 2 {
			continue
		}
		ep := ed.Trajs[j].Path
		back, err := env.G.EdgePathToVertices(ep)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(vp) {
			t.Fatalf("length mismatch: %d vs %d", len(back), len(vp))
		}
		for i := range back {
			if back[i] != vp[i] {
				t.Fatalf("vertex mismatch at %d", i)
			}
		}
		j++
	}
	// Wrong representation must error.
	if _, err := ed.ToEdgeRep(env.G); err == nil {
		t.Fatal("ToEdgeRep on edge dataset accepted")
	}
}

func TestMatchKey(t *testing.T) {
	m := traj.Match{ID: 3, S: 1, T: 5, WED: 0.5}
	k := m.Key()
	if k.ID != 3 || k.S != 1 || k.T != 5 {
		t.Fatalf("key %+v", k)
	}
	if (traj.Match{ID: 3, S: 1, T: 5, WED: 9}).Key() != k {
		t.Fatal("key must ignore WED")
	}
}

func TestRepresentationString(t *testing.T) {
	if traj.VertexRep.String() != "vertex" || traj.EdgeRep.String() != "edge" {
		t.Fatal("representation names")
	}
	if traj.Representation(9).String() == "" {
		t.Fatal("unknown representation must still print")
	}
}

func TestCheckTimes(t *testing.T) {
	path := []traj.Symbol{4, 5, 6}
	for _, c := range []struct {
		rep   traj.Representation
		times []float64
		ok    bool
	}{
		{traj.VertexRep, nil, true},
		{traj.VertexRep, []float64{1, 1, 2}, true},
		{traj.VertexRep, []float64{1, 2}, false},
		{traj.VertexRep, []float64{1, 3, 2}, false},
		{traj.VertexRep, []float64{1, math.NaN(), 2}, false},
		{traj.VertexRep, []float64{1, 2, math.Inf(1)}, false},
		{traj.EdgeRep, []float64{1, 2, 3, 4}, true},
		{traj.EdgeRep, []float64{1, 2, 3}, false},
	} {
		tr := traj.Trajectory{Path: path, Times: c.times}
		if err := tr.CheckTimes(c.rep); (err == nil) != c.ok {
			t.Errorf("%s %v: err = %v, want ok %v", c.rep, c.times, err, c.ok)
		}
	}
}
