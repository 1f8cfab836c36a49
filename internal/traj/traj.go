// Package traj defines the trajectory data model of §2.1: a trajectory is a
// pair (P, T) where P is a path on the road network (a string over the
// alphabet V or E) and T is a timestamp per vertex. A dataset is an
// in-memory collection of trajectories addressed by dense IDs, matching the
// paper's main-memory setting.
package traj

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"subtraj/internal/roadnet"
)

// Symbol is a trajectory element: a vertex ID under vertex representation
// or an edge ID under edge representation. WED cost models interpret it.
type Symbol = int32

// Representation says how a path is encoded.
type Representation uint8

const (
	// VertexRep paths are sequences of vertex IDs.
	VertexRep Representation = iota
	// EdgeRep paths are sequences of edge IDs.
	EdgeRep
)

func (r Representation) String() string {
	switch r {
	case VertexRep:
		return "vertex"
	case EdgeRep:
		return "edge"
	default:
		return fmt.Sprintf("Representation(%d)", uint8(r))
	}
}

// Trajectory is one network-constrained trajectory.
type Trajectory struct {
	// Path is the string over the alphabet (vertex or edge IDs).
	Path []Symbol
	// Times holds one timestamp (seconds since the dataset epoch) per
	// vertex of the vertex-representation path. For edge representation,
	// Times[i] is the time the trajectory entered edge Path[i], and
	// Times[len(Path)] the arrival at the final vertex; its length is
	// len(Path)+1 in both representations' vertex count terms. Times may
	// be nil when the workload carries no temporal information.
	Times []float64
}

// Len returns the string length |P|.
func (t *Trajectory) Len() int { return len(t.Path) }

// Departure returns the first timestamp; ok is false without temporal data.
func (t *Trajectory) Departure() (float64, bool) {
	if len(t.Times) == 0 {
		return 0, false
	}
	return t.Times[0], true
}

// Arrival returns the last timestamp; ok is false without temporal data.
func (t *Trajectory) Arrival() (float64, bool) {
	if len(t.Times) == 0 {
		return 0, false
	}
	return t.Times[len(t.Times)-1], true
}

// CheckTimes is the rule every trajectory from outside the process must
// pass — an appended one, a replayed snapshot or WAL record, a loaded
// dataset file: Times is empty or holds one entry per vertex (len(Path)
// under VertexRep, len(Path)+1 under EdgeRep), every entry finite and
// none before the one preceding it. The temporal filter and the
// verifier's timestamp lookups rely on it.
func (t *Trajectory) CheckTimes(rep Representation) error {
	if len(t.Times) == 0 {
		return nil
	}
	want := len(t.Path)
	if rep == EdgeRep {
		want++
	}
	if len(t.Times) != want {
		return fmt.Errorf("got %d timestamps, want %d (or none)", len(t.Times), want)
	}
	// One comparison pair per entry fails on NaN, on ±Inf and on a step
	// back (a loaded dataset holds millions); the branch says which.
	prev := -math.MaxFloat64
	for i, ts := range t.Times {
		if !(ts >= prev && ts <= math.MaxFloat64) {
			if ts >= -math.MaxFloat64 && ts <= math.MaxFloat64 {
				return fmt.Errorf("timestamps must be non-decreasing (times[%d] < times[%d])", i, i-1)
			}
			return fmt.Errorf("times[%d] = %v is not finite", i, ts)
		}
		prev = ts
	}
	return nil
}

// Interval returns the [departure, arrival] interval I^(id) used by the
// temporal pre-filter (§4.3).
func (t *Trajectory) Interval() (lo, hi float64, ok bool) {
	if len(t.Times) == 0 {
		return 0, 0, false
	}
	return t.Times[0], t.Times[len(t.Times)-1], true
}

// Dataset is an in-memory trajectory collection. IDs are dense indexes.
type Dataset struct {
	Rep   Representation
	Trajs []Trajectory
}

// NewDataset creates an empty dataset with the given representation.
func NewDataset(rep Representation) *Dataset {
	return &Dataset{Rep: rep}
}

// Len returns the number of trajectories N.
func (d *Dataset) Len() int { return len(d.Trajs) }

// Add appends a trajectory and returns its ID.
func (d *Dataset) Add(t Trajectory) int32 {
	d.Trajs = append(d.Trajs, t)
	return int32(len(d.Trajs) - 1)
}

// Get returns the trajectory with the given ID.
func (d *Dataset) Get(id int32) *Trajectory { return &d.Trajs[id] }

// Path returns the path of trajectory id (accessTrajectory in Alg. 4).
func (d *Dataset) Path(id int32) []Symbol { return d.Trajs[id].Path }

// AvgLen returns the average path length, a dataset statistic reported in
// Table 2.
func (d *Dataset) AvgLen() float64 {
	if len(d.Trajs) == 0 {
		return 0
	}
	var sum int
	for i := range d.Trajs {
		sum += len(d.Trajs[i].Path)
	}
	return float64(sum) / float64(len(d.Trajs))
}

// TotalSymbols returns Σ|P|, the total postings count of the inverted
// index.
func (d *Dataset) TotalSymbols() int {
	var sum int
	for i := range d.Trajs {
		sum += len(d.Trajs[i].Path)
	}
	return sum
}

// Slice returns a shallow dataset containing only the first n trajectories
// (used by the dataset-size sweeps of Figures 8 and 10). The underlying
// trajectories are shared.
func (d *Dataset) Slice(n int) *Dataset {
	if n > len(d.Trajs) {
		n = len(d.Trajs)
	}
	return &Dataset{Rep: d.Rep, Trajs: d.Trajs[:n]}
}

// ToEdgeRep converts a vertex-representation dataset into edge
// representation on graph g. Timestamps are preserved (Times keeps the
// per-vertex semantics; see Trajectory.Times). Trajectories of length < 2
// vertices become empty edge strings and are dropped.
func (d *Dataset) ToEdgeRep(g *roadnet.Graph) (*Dataset, error) {
	if d.Rep != VertexRep {
		return nil, fmt.Errorf("traj: ToEdgeRep requires a vertex-representation dataset")
	}
	out := NewDataset(EdgeRep)
	for id := range d.Trajs {
		t := &d.Trajs[id]
		if len(t.Path) < 2 {
			continue
		}
		edges, err := g.VertexPathToEdges(t.Path)
		if err != nil {
			return nil, fmt.Errorf("traj: trajectory %d: %w", id, err)
		}
		out.Add(Trajectory{Path: edges, Times: t.Times})
	}
	return out, nil
}

// Match identifies one answer of the subtrajectory similarity search
// (Definition 3): trajectory ID and the 0-based inclusive subtrajectory
// bounds [S, T] such that wed(P[S:T+1], Q) < τ. (The paper's (id, s, t) is
// 1-based inclusive; we keep Go slice conventions internally.) The JSON
// form is the one the HTTP API's query answers carry.
type Match struct {
	ID int32 `json:"id"`
	S  int32 `json:"s"`
	T  int32 `json:"t"`
	// WED is the distance of the matched subtrajectory to the query.
	WED float64 `json:"wed"`
}

// Key returns a comparable dedup key.
func (m Match) Key() MatchKey { return MatchKey{m.ID, m.S, m.T} }

// SortMatches orders matches by (ID, S, T) — the canonical result order
// every search path returns. (ID, S, T) is unique within one result set,
// so the order is total and deterministic; the engine's fan-out depends
// on every per-range result list arriving in it, so that concatenating
// the lists in range order is the whole merge.
// (The verifier also sorts a pre-merge buffer that may hold duplicate
// keys; it is min-merged right after, so the unstable sort still yields a
// deterministic result.) slices.SortFunc rather than sort.Slice: the
// generic sort needs no reflection and no per-call allocation.
func SortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int {
		if c := cmp.Compare(a.ID, b.ID); c != 0 {
			return c
		}
		if c := cmp.Compare(a.S, b.S); c != 0 {
			return c
		}
		return cmp.Compare(a.T, b.T)
	})
}

// Better is the one ranking order over matches: ascending WED, then the
// shorter span T−S, then (ID, S, T). Top-k ranks trajectories by it and
// best-per-trajectory reductions pick by it (where ID never decides). It
// is total over distinct (ID, S, T), so the k best are unique.
func Better(a, b Match) bool {
	if a.WED != b.WED {
		return a.WED < b.WED
	}
	if la, lb := a.T-a.S, b.T-b.S; la != lb {
		return la < lb
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.S != b.S {
		return a.S < b.S
	}
	return a.T < b.T
}

// BestPerTrajectory reduces a match set to the paper's effectiveness-
// experiment convention (§6.2.1): one match per trajectory, the best by
// Better — the smallest WED, ties broken by the shortest subtrajectory,
// then by position.
func BestPerTrajectory(ms []Match) map[int32]Match {
	best := make(map[int32]Match)
	for _, m := range ms {
		b, ok := best[m.ID]
		if !ok || Better(m, b) {
			best[m.ID] = m
		}
	}
	return best
}

// MatchKey identifies a match position without its distance.
type MatchKey struct {
	ID   int32
	S, T int32
}
