package workload

import (
	"encoding/gob"
	"fmt"
	"io"

	"subtraj/internal/geo"
	"subtraj/internal/roadnet"
	"subtraj/internal/traj"
)

// fileFormat is the self-describing gob container for a workload: graph
// structure plus vertex-representation trajectories. It is deliberately
// flat (parallel slices) so the format stays stable as internal types
// evolve.
type fileFormat struct {
	Config         Config
	CoordX, CoordY []float64
	EdgeFrom       []int32
	EdgeTo         []int32
	EdgeWeight     []float64
	Paths          [][]int32
	Times          [][]float64
}

// Save writes the workload to w in gob format.
func (wl *Workload) Save(w io.Writer) error {
	ff := fileFormat{Config: wl.Config}
	for _, p := range wl.Graph.Coords() {
		ff.CoordX = append(ff.CoordX, p.X)
		ff.CoordY = append(ff.CoordY, p.Y)
	}
	for _, e := range wl.Graph.Edges() {
		ff.EdgeFrom = append(ff.EdgeFrom, e.From)
		ff.EdgeTo = append(ff.EdgeTo, e.To)
		ff.EdgeWeight = append(ff.EdgeWeight, e.Weight)
	}
	for id := range wl.Data.Trajs {
		ff.Paths = append(ff.Paths, wl.Data.Trajs[id].Path)
		ff.Times = append(ff.Times, wl.Data.Trajs[id].Times)
	}
	return gob.NewEncoder(w).Encode(&ff)
}

// Load reads a workload written by Save.
func Load(r io.Reader) (*Workload, error) {
	var ff fileFormat
	if err := gob.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("workload: decode: %w", err)
	}
	if len(ff.CoordX) != len(ff.CoordY) {
		return nil, fmt.Errorf("workload: corrupt file: %d xs, %d ys", len(ff.CoordX), len(ff.CoordY))
	}
	if len(ff.EdgeFrom) != len(ff.EdgeTo) || len(ff.EdgeFrom) != len(ff.EdgeWeight) {
		return nil, fmt.Errorf("workload: corrupt file: edge slices disagree")
	}
	if len(ff.Paths) != len(ff.Times) {
		return nil, fmt.Errorf("workload: corrupt file: %d paths, %d time rows", len(ff.Paths), len(ff.Times))
	}
	g := &roadnet.Graph{}
	for i := range ff.CoordX {
		g.AddVertex(geo.Point{X: ff.CoordX[i], Y: ff.CoordY[i]})
	}
	n := int32(g.NumVertices())
	for i := range ff.EdgeFrom {
		if ff.EdgeFrom[i] < 0 || ff.EdgeFrom[i] >= n || ff.EdgeTo[i] < 0 || ff.EdgeTo[i] >= n {
			return nil, fmt.Errorf("workload: corrupt file: edge %d endpoint out of range", i)
		}
		if ff.EdgeWeight[i] <= 0 {
			return nil, fmt.Errorf("workload: corrupt file: edge %d weight %v", i, ff.EdgeWeight[i])
		}
		g.AddEdge(ff.EdgeFrom[i], ff.EdgeTo[i], ff.EdgeWeight[i])
	}
	ds := traj.NewDataset(traj.VertexRep)
	for i := range ff.Paths {
		for _, v := range ff.Paths[i] {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("workload: corrupt file: trajectory %d references vertex %d", i, v)
			}
		}
		t := traj.Trajectory{Path: ff.Paths[i], Times: ff.Times[i]}
		if err := t.CheckTimes(ds.Rep); err != nil {
			return nil, fmt.Errorf("workload: corrupt file: trajectory %d: %w", i, err)
		}
		ds.Add(t)
	}
	return &Workload{Config: ff.Config, Graph: g, Data: ds}, nil
}
