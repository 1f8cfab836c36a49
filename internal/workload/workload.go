// Package workload generates the synthetic datasets and queries that stand
// in for the paper's proprietary/unavailable data (Table 2: Beijing, Porto,
// Singapore, SanFran; §6.3: query sampling). See DESIGN.md §1.2 for the
// substitution rationale: relative shape (trajectory counts, average
// lengths, network sparsity) is preserved at a laptop-friendly scale.
//
// Trajectories are destination-biased random walks: from a random origin,
// each step picks an outgoing edge with probability exponentially tilted
// toward reducing Euclidean distance to a sampled destination. This yields
// mostly-direct paths with occasional detours — the same qualitative shape
// as map-matched taxi data — and heavy reuse of arterial corridors, which
// is the property (shared subpaths) the paper's trie caching (§5.2) was
// built to exploit.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"subtraj/internal/roadnet"
	"subtraj/internal/traj"
)

// Topology selects the synthetic road-network shape.
type Topology uint8

const (
	// TopologyGrid is a perturbed rectangular street grid (North
	// American / planned-city shape).
	TopologyGrid Topology = iota
	// TopologyRingRadial is concentric rings with radial avenues
	// (historic European shape; used by the Porto-like workload).
	TopologyRingRadial
)

// Config parameterises one synthetic city + trajectory workload.
type Config struct {
	// Name labels the workload ("beijing", ...).
	Name string
	// Topology selects the network generator.
	Topology Topology
	// GridRows and GridCols size the road network (rings and spokes for
	// the ring-radial topology).
	GridRows, GridCols int
	// NumTrajectories is N.
	NumTrajectories int
	// TargetLen is the desired average path length (vertices); actual
	// lengths are spread around it like the paper's datasets.
	TargetLen int
	// Seed makes the workload reproducible.
	Seed int64
	// Horizon is the timestamp range (seconds): departures are uniform
	// over [0, Horizon).
	Horizon float64
	// SpeedMean is the nominal travel speed (metres/second) used to
	// derive per-edge travel times; per-trajectory and per-edge noise is
	// applied around it.
	SpeedMean float64
	// RouteReuse is the probability that a trajectory re-drives (a
	// subpath of) an earlier trajectory's route with fresh timestamps,
	// mimicking commuter/taxi route repetition in real data. Exact
	// subtrajectory repeats are what §6.2.1's travel-time protocol feeds
	// on. Negative disables; zero means
	// the default 0.25.
	RouteReuse float64
}

func (c Config) routeReuse() float64 {
	switch {
	case c.RouteReuse < 0:
		return 0
	case c.RouteReuse == 0:
		return 0.25
	default:
		return c.RouteReuse
	}
}

// Scale returns a copy of c with the trajectory count scaled by f
// (dataset-size sweeps, Figures 8 and 10).
func (c Config) Scale(f float64) Config {
	c.NumTrajectories = int(float64(c.NumTrajectories) * f)
	return c
}

// The four paper-shaped workloads, scaled down ~1:100 in trajectory count
// and ~1:25 in network size. Relative shape follows Table 2:
// Porto has the most trajectories (short paths), Singapore few but very
// long paths on the smallest network, SanFran is the bulk dataset.

// BeijingLike mirrors Beijing: mid-size network, avg length ~101.
func BeijingLike() Config {
	return Config{Name: "beijing", GridRows: 58, GridCols: 58, NumTrajectories: 7800, TargetLen: 101, Seed: 41, Horizon: 86400, SpeedMean: 11}
}

// PortoLike mirrors Porto: most trajectories, shorter paths (avg ~81), on
// a ring-radial (European) network.
func PortoLike() Config {
	return Config{Name: "porto", Topology: TopologyRingRadial, GridRows: 36, GridCols: 72, NumTrajectories: 17000, TargetLen: 81, Seed: 42, Horizon: 86400, SpeedMean: 11}
}

// SingaporeLike mirrors Singapore: smallest network, long paths (avg ~262).
func SingaporeLike() Config {
	return Config{Name: "singapore", GridRows: 27, GridCols: 27, NumTrajectories: 2900, TargetLen: 262, Seed: 43, Horizon: 86400, SpeedMean: 11}
}

// SanFranLike mirrors the synthesised SanFran bulk dataset.
func SanFranLike() Config {
	return Config{Name: "sanfran", GridRows: 64, GridCols: 64, NumTrajectories: 46000, TargetLen: 101, Seed: 44, Horizon: 86400, SpeedMean: 11}
}

// Tiny returns a miniature workload for unit tests.
func Tiny(seed int64) Config {
	return Config{Name: "tiny", GridRows: 12, GridCols: 12, NumTrajectories: 60, TargetLen: 25, Seed: seed, Horizon: 3600, SpeedMean: 11}
}

// Workload bundles a generated city: network + vertex-representation
// trajectories with timestamps.
type Workload struct {
	Config Config
	Graph  *roadnet.Graph
	// Data holds vertex-representation trajectories.
	Data *traj.Dataset
}

// Generate builds the workload deterministically from its seed.
func Generate(cfg Config) *Workload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var g *roadnet.Graph
	switch cfg.Topology {
	case TopologyRingRadial:
		g = roadnet.GenerateRingRadial(cfg.GridRows, cfg.GridCols, 100, rng)
	default:
		g = roadnet.GenerateGrid(roadnet.DefaultGridConfig(cfg.GridRows, cfg.GridCols), rng)
	}
	ds := traj.NewDataset(traj.VertexRep)
	gen := newWalker(g, rng)
	reuse := cfg.routeReuse()
	for len(ds.Trajs) < cfg.NumTrajectories {
		var path []traj.Symbol
		if n := len(ds.Trajs); n > 0 && rng.Float64() < reuse {
			// Re-drive an earlier route: half the time the whole route
			// (commuters), otherwise a subpath of it.
			src := ds.Trajs[rng.Intn(n)].Path
			lo, hi := 0, len(src)
			if rng.Float64() < 0.5 {
				lo = rng.Intn(len(src))
				hi = lo + 2 + rng.Intn(len(src)-lo)
				if hi > len(src) {
					hi = len(src)
				}
			}
			if hi-lo >= 2 {
				path = append([]traj.Symbol(nil), src[lo:hi]...)
				// Half the re-drives take small detours — the
				// near-miss routes similarity search retrieves and
				// exact matching cannot (§6.2.1's premise).
				if rng.Float64() < 0.5 {
					for d := 1 + rng.Intn(3); d > 0; d-- {
						path = gen.detour(path)
					}
				}
			}
		}
		if path == nil {
			// Spread lengths like the paper's data: roughly uniform in
			// [TargetLen/2, 3·TargetLen/2].
			target := cfg.TargetLen/2 + rng.Intn(cfg.TargetLen) + 1
			path = gen.walk(target)
		}
		if len(path) < 2 {
			continue
		}
		times := timestamps(g, path, cfg, rng)
		ds.Add(traj.Trajectory{Path: path, Times: times})
	}
	return &Workload{Config: cfg, Graph: g, Data: ds}
}

// timestamps assigns a departure uniform over the horizon and per-edge
// travel times w(e)/speed with multiplicative noise.
func timestamps(g *roadnet.Graph, path []traj.Symbol, cfg Config, rng *rand.Rand) []float64 {
	times := make([]float64, len(path))
	t := rng.Float64() * cfg.Horizon
	times[0] = t
	// Per-trajectory speed factor: traffic conditions differ per trip.
	speed := cfg.SpeedMean * (0.6 + 0.8*rng.Float64())
	for i := 0; i+1 < len(path); i++ {
		eid, ok := g.FindEdge(path[i], path[i+1])
		w := 100.0
		if ok {
			w = g.EdgeWeight(eid)
		}
		// Per-edge noise: signals, congestion.
		t += w / speed * (0.7 + 0.6*rng.Float64())
		times[i+1] = t
	}
	return times
}

type walker struct {
	g   *roadnet.Graph
	rng *rand.Rand
}

func newWalker(g *roadnet.Graph, rng *rand.Rand) *walker {
	return &walker{g: g, rng: rng}
}

// walk produces a destination-biased random walk of roughly targetLen
// vertices.
func (w *walker) walk(targetLen int) []traj.Symbol {
	g := w.g
	n := g.NumVertices()
	origin := roadnet.VertexID(w.rng.Intn(n))
	dest := roadnet.VertexID(w.rng.Intn(n))
	path := make([]traj.Symbol, 0, targetLen+8)
	path = append(path, origin)
	cur := origin
	var prev roadnet.VertexID = -1
	// Temperature of the destination bias, in units of typical edge
	// length: smaller = straighter routes.
	const tilt = 0.6
	for len(path) < targetLen {
		out := g.Out(cur)
		if len(out) == 0 {
			break
		}
		destPt := g.Coord(dest)
		curD := g.Coord(cur).Dist(destPt)
		// Weight each next hop by exp(-(d(next,dest)-d(cur,dest))/ (tilt·w)).
		var weights [8]float64
		var total float64
		for i, eid := range out {
			if i >= len(weights) {
				break
			}
			e := g.Edge(eid)
			gain := g.Coord(e.To).Dist(destPt) - curD
			wt := math.Exp(-gain / (tilt * e.Weight))
			if e.To == prev {
				wt *= 0.05 // discourage immediate backtracking
			}
			weights[i] = wt
			total += wt
		}
		r := w.rng.Float64() * total
		next := out[0]
		for i := range out {
			if i >= len(weights) {
				break
			}
			r -= weights[i]
			if r <= 0 {
				next = out[i]
				break
			}
		}
		e := g.Edge(next)
		prev = cur
		cur = e.To
		path = append(path, cur)
		if cur == dest {
			// Arrived: resample a new destination to keep walking if the
			// path is still short, else stop.
			if len(path) >= targetLen/2 {
				break
			}
			dest = roadnet.VertexID(w.rng.Intn(n))
		}
	}
	return path
}

// detour replaces one interior vertex of the path with an alternate route
// between its neighbours, if the road network offers one within a few
// hops. The result is always a valid path; on failure the input is
// returned unchanged.
func (w *walker) detour(path []traj.Symbol) []traj.Symbol {
	if len(path) < 3 {
		return path
	}
	g := w.g
	i := 1 + w.rng.Intn(len(path)-2)
	from, avoid, to := path[i-1], path[i], path[i+1]
	// Bounded Dijkstra from `from` to `to` avoiding `avoid`, capped at a
	// few blocks so detours stay local.
	type item struct {
		v roadnet.VertexID
		d float64
	}
	const maxHops = 6
	dist := map[roadnet.VertexID]float64{from: 0}
	prev := map[roadnet.VertexID]roadnet.VertexID{}
	hops := map[roadnet.VertexID]int{from: 0}
	queue := []item{{from, 0}}
	for len(queue) > 0 {
		// Extract-min by scan: the frontier stays tiny at maxHops ≤ 6.
		mi := 0
		for k := 1; k < len(queue); k++ {
			if queue[k].d < queue[mi].d {
				mi = k
			}
		}
		cur := queue[mi]
		queue[mi] = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if cur.d > dist[cur.v] {
			continue
		}
		if cur.v == to {
			break
		}
		if hops[cur.v] >= maxHops {
			continue
		}
		for _, eid := range g.Out(cur.v) {
			e := g.Edge(eid)
			if e.To == avoid {
				continue
			}
			nd := cur.d + e.Weight
			if old, ok := dist[e.To]; !ok || nd < old {
				dist[e.To] = nd
				prev[e.To] = cur.v
				hops[e.To] = hops[cur.v] + 1
				queue = append(queue, item{e.To, nd})
			}
		}
	}
	if _, ok := dist[to]; !ok {
		return path
	}
	var mid []traj.Symbol
	for v := to; v != from; v = prev[v] {
		mid = append(mid, v)
	}
	// mid is reversed (to ... exclusive-of-from); rebuild the path.
	out := make([]traj.Symbol, 0, len(path)+len(mid))
	out = append(out, path[:i]...) // ... , from
	for k := len(mid) - 1; k >= 0; k-- {
		out = append(out, mid[k])
	}
	out = append(out, path[i+2:]...)
	// Collapse any accidental immediate duplicates (defensive; the
	// construction should not produce them).
	dedup := out[:1]
	for _, v := range out[1:] {
		if v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// SampleQuery samples a query: a random subtrajectory of length qlen from
// a random data trajectory (§6.3's protocol). Trajectories shorter than
// qlen are skipped; err is non-nil if qlen < 1, the dataset is empty, or
// no trajectory is long enough.
func SampleQuery(ds *traj.Dataset, qlen int, rng *rand.Rand) ([]traj.Symbol, error) {
	if qlen < 1 || ds.Len() == 0 {
		return nil, fmt.Errorf("workload: cannot sample a query of length %d from %d trajectories", qlen, ds.Len())
	}
	const attempts = 10000
	for i := 0; i < attempts; i++ {
		id := rng.Intn(ds.Len())
		p := ds.Trajs[id].Path
		if len(p) < qlen {
			continue
		}
		s := rng.Intn(len(p) - qlen + 1)
		q := make([]traj.Symbol, qlen)
		copy(q, p[s:s+qlen])
		return q, nil
	}
	return nil, fmt.Errorf("workload: no trajectory of length ≥ %d found", qlen)
}

// SampleQueries draws n queries.
func SampleQueries(ds *traj.Dataset, qlen, n int, rng *rand.Rand) ([][]traj.Symbol, error) {
	out := make([][]traj.Symbol, 0, n)
	for i := 0; i < n; i++ {
		q, err := SampleQuery(ds, qlen, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}
