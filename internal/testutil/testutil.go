// Package testutil builds small deterministic environments (road network,
// trajectory datasets in both representations, spatial and shortest-path
// substrates, all six cost models) shared by the test suites. It is a
// test-support package, not part of the public API.
package testutil

import (
	"fmt"
	"math/rand"
	"sort"

	"subtraj/internal/geo"
	"subtraj/internal/roadnet"
	"subtraj/internal/shortestpath"
	"subtraj/internal/spatial"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// Env is a miniature world: graph, datasets, substrates.
type Env struct {
	G    *roadnet.Graph
	V    *traj.Dataset // vertex representation
	E    *traj.Dataset // edge representation
	Tree *spatial.KDTree
	Und  *shortestpath.Adjacency
	Hubs *shortestpath.HubLabels
	Rng  *rand.Rand
}

// NewEnv generates a deterministic environment. numTraj trajectories of
// roughly targetLen vertices on a small perturbed grid.
func NewEnv(seed int64, numTraj, targetLen int) *Env {
	cfg := workload.Tiny(seed)
	cfg.NumTrajectories = numTraj
	cfg.TargetLen = targetLen
	w := workload.Generate(cfg)
	e := &Env{
		G:   w.Graph,
		V:   w.Data,
		Rng: rand.New(rand.NewSource(seed + 1000)),
	}
	ed, err := w.Data.ToEdgeRep(w.Graph)
	if err != nil {
		panic("testutil: generated dataset is not path-connected: " + err.Error())
	}
	e.E = ed
	e.Tree = spatial.Build(w.Graph.Coords())
	e.Und = shortestpath.Undirected(w.Graph)
	e.Hubs = shortestpath.BuildHubLabels(e.Und)
	return e
}

// Model pairs a cost model with the dataset representation it runs on.
type Model struct {
	Name  string
	Costs wed.FilterCosts
	DS    *traj.Dataset
}

// Models returns the six paper cost models with parameters scaled to the
// tiny grid (spacing 100 m, jitter 25 m).
func (e *Env) Models() []Model {
	medW := e.G.MedianEdgeWeight()
	return []Model{
		{"Lev", wed.NewLev(), e.V},
		{"EDR", wed.NewEDR(e.G.Coords(), e.Tree, 60), e.V},
		{"ERP", wed.NewERP(e.G.Coords(), e.Tree, e.G.Barycenter(), 5), e.V},
		{"NetEDR", wed.NewNetEDR(e.Und, e.Hubs, medW), e.V},
		{"NetERP", wed.NewNetERP(e.Und, e.Hubs, 2000, medW), e.V},
		{"SURS", sursModel(e.G), e.E},
	}
}

func sursModel(g *roadnet.Graph) wed.FilterCosts {
	ws := make([]float64, g.NumEdges())
	for i, ed := range g.Edges() {
		ws[i] = ed.Weight
	}
	return wed.NewSURS(ws)
}

// Query samples a query of length qlen from the model's dataset.
func (e *Env) Query(m Model, qlen int) []traj.Symbol {
	q, err := workload.SampleQuery(m.DS, qlen, e.Rng)
	if err != nil {
		// Fall back to the longest available prefix.
		longest := 0
		for id := range m.DS.Trajs {
			if len(m.DS.Trajs[id].Path) > len(m.DS.Trajs[longest].Path) {
				longest = id
			}
		}
		p := m.DS.Trajs[longest].Path
		if len(p) == 0 {
			panic("testutil: empty dataset")
		}
		if qlen > len(p) {
			qlen = len(p)
		}
		q = append([]traj.Symbol(nil), p[:qlen]...)
	}
	return q
}

// RandomString draws a random symbol string of length n over the model's
// alphabet (present symbols only), for property tests that do not need
// path-connected queries.
func (e *Env) RandomString(m Model, n int) []traj.Symbol {
	var alpha []traj.Symbol
	seen := map[traj.Symbol]bool{}
	for id := range m.DS.Trajs {
		for _, s := range m.DS.Trajs[id].Path {
			if !seen[s] {
				seen[s] = true
				alpha = append(alpha, s)
			}
		}
	}
	out := make([]traj.Symbol, n)
	for i := range out {
		out[i] = alpha[e.Rng.Intn(len(alpha))]
	}
	return out
}

// RandomCosts is a randomized table-based cost model over a small alphabet
// for adversarial property tests: symmetric, zero diagonal, non-negative,
// with ins = del. It does NOT satisfy any structure beyond the paper's
// assumptions.
type RandomCosts struct {
	N   int
	Tab [][]float64 // substitution costs
	ID  []float64   // insertion/deletion costs
	Eta float64
}

// NewRandomCosts builds a random model over alphabet {0..n-1}.
func NewRandomCosts(rng *rand.Rand, n int, eta float64) *RandomCosts {
	rc := &RandomCosts{N: n, Eta: eta}
	rc.Tab = make([][]float64, n)
	for i := range rc.Tab {
		rc.Tab[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64() * 4
			rc.Tab[i][j] = v
			rc.Tab[j][i] = v
		}
	}
	rc.ID = make([]float64, n)
	for i := range rc.ID {
		rc.ID[i] = rng.Float64()*3 + 0.1
	}
	return rc
}

// Name implements wed.Costs.
func (rc *RandomCosts) Name() string { return "Random" }

// Sub implements wed.Costs.
func (rc *RandomCosts) Sub(a, b wed.Symbol) float64 { return rc.Tab[a][b] }

// Ins implements wed.Costs.
func (rc *RandomCosts) Ins(a wed.Symbol) float64 { return rc.ID[a] }

// Del implements wed.Costs.
func (rc *RandomCosts) Del(a wed.Symbol) float64 { return rc.ID[a] }

// Neighbors implements wed.FilterCosts.
func (rc *RandomCosts) Neighbors(q wed.Symbol, dst []wed.Symbol) []wed.Symbol {
	for b := 0; b < rc.N; b++ {
		if rc.Tab[q][b] <= rc.Eta {
			dst = append(dst, wed.Symbol(b))
		}
	}
	return dst
}

// FilterCost implements wed.FilterCosts.
func (rc *RandomCosts) FilterCost(q wed.Symbol) float64 {
	c := rc.ID[q]
	for b := 0; b < rc.N; b++ {
		if rc.Tab[q][b] > rc.Eta && rc.Tab[q][b] < c {
			c = rc.Tab[q][b]
		}
	}
	return c
}

// RandTableCosts draws a RandomCosts over {0..nsym-1} from a coarse
// lattice (multiples of ½) instead of the continuum, with η = 0: quantised
// costs make sums tie with each other and with thresholds exactly, and
// zero insertion costs — which NewRandomCosts never draws — exercise the
// band's insertion-chain extension. Still an arbitrary symmetric table
// with zero diagonal: the full generality the WED assumptions
// (Proposition 1) allow, including the asymmetric-band shapes of the Net*
// models.
func RandTableCosts(rng *rand.Rand, nsym int) *RandomCosts {
	c := &RandomCosts{N: nsym, ID: make([]float64, nsym), Tab: make([][]float64, nsym)}
	for i := range c.ID {
		c.ID[i] = float64(rng.Intn(5)) / 2
	}
	for i := range c.Tab {
		c.Tab[i] = make([]float64, nsym)
	}
	for i := 0; i < nsym; i++ {
		for j := i + 1; j < nsym; j++ {
			v := float64(rng.Intn(7)) / 2
			c.Tab[i][j], c.Tab[j][i] = v, v
		}
	}
	return c
}

// matrixDist is a NetDist over a dense symmetric matrix, standing in for
// hub labels under the Net* models.
type matrixDist [][]float64

func (m matrixDist) Query(a, b int32) float64 { return m[a][b] }

// SixModels builds the paper's six cost models over nsym symbols with
// random substrates. Only Sub/Ins/Del are meant to be exercised, so the
// spatial index and the adjacency the filter machinery needs are left nil.
func SixModels(rng *rand.Rand, nsym int) []wed.Costs {
	coords := make([]geo.Point, nsym)
	weights := make([]float64, nsym)
	dist := make(matrixDist, nsym)
	for i := range coords {
		coords[i] = geo.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300}
		weights[i] = 1 + rng.Float64()*99
		dist[i] = make([]float64, nsym)
	}
	for i := 0; i < nsym; i++ {
		for j := i + 1; j < nsym; j++ {
			d := rng.Float64() * 400
			dist[i][j], dist[j][i] = d, d
		}
	}
	return []wed.Costs{
		wed.NewLev(),
		wed.NewEDR(coords, nil, 100),
		wed.NewERP(coords, nil, geo.Point{X: 150, Y: 150}, 1),
		wed.NewNetEDR(nil, dist, 100),
		wed.NewNetERP(nil, dist, 200, 1),
		wed.NewSURS(weights),
	}
}

// CheckZeroSet checks Definition 4's neighbourhood B(q) against the whole
// alphabet {0..alphabet-1}: it must hold every b with sub(b, q) = 0 — what
// the filter's admissibility and the word scan's match masks rest on — and
// under a unit-cost model (wed.Unit) be exactly that set, with every
// sub(b, q) in {0, 1} and ins(q) = del(q) = 1. It returns the first
// violation found, or nil.
func CheckZeroSet(costs wed.FilterCosts, q wed.Symbol, alphabet int) error {
	in := make(map[wed.Symbol]bool)
	for _, b := range costs.Neighbors(q, nil) {
		in[b] = true
	}
	_, unit := costs.(wed.Unit)
	if unit && (costs.Ins(q) != 1 || costs.Del(q) != 1) {
		return fmt.Errorf("%s: ins(%d) = %v, del(%d) = %v under unit costs", costs.Name(), q, costs.Ins(q), q, costs.Del(q))
	}
	for b := wed.Symbol(0); int(b) < alphabet; b++ {
		sub := costs.Sub(b, q)
		switch {
		case sub == 0 && !in[b]:
			return fmt.Errorf("%s: sub(%d, %d) = 0 but %d ∉ B(%d)", costs.Name(), b, q, b, q)
		case unit && sub != 0 && sub != 1:
			return fmt.Errorf("%s: sub(%d, %d) = %v under unit costs", costs.Name(), b, q, sub)
		case unit && sub != 0 && in[b]:
			return fmt.Errorf("%s: %d ∈ B(%d) but sub(%d, %d) = %v", costs.Name(), b, q, b, q, sub)
		}
	}
	return nil
}

// RandomDataset builds a dataset of random strings over {0..n-1} (no road
// network structure — adversarial input for the engine).
func RandomDataset(rng *rand.Rand, alpha, numTraj, maxLen int) *traj.Dataset {
	ds := traj.NewDataset(traj.VertexRep)
	for i := 0; i < numTraj; i++ {
		n := rng.Intn(maxLen) + 1
		p := make([]traj.Symbol, n)
		for j := range p {
			p[j] = traj.Symbol(rng.Intn(alpha))
		}
		ds.Add(traj.Trajectory{Path: p})
	}
	return ds
}

// PickTau chooses a threshold that is safely separated from every distance
// in weds (midway between two consecutive values around the quantile), so
// float rounding cannot flip match membership across algorithms. maxTau
// bounds the result away from wed(ε, Q).
func PickTau(weds []float64, quantile, maxTau float64) float64 {
	vals := append([]float64(nil), weds...)
	vals = append(vals, 0)
	sort.Float64s(vals)
	// Dedup.
	out := vals[:1]
	for _, v := range vals[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	vals = out
	idx := int(quantile * float64(len(vals)-1))
	var tau float64
	if idx+1 < len(vals) {
		tau = (vals[idx] + vals[idx+1]) / 2
	} else {
		tau = vals[idx] + 1
	}
	if tau > maxTau {
		// Midpoint between the largest value below maxTau and maxTau.
		below := 0.0
		for _, v := range vals {
			if v < maxTau {
				below = v
			}
		}
		tau = (below + maxTau) / 2
	}
	if tau <= 0 {
		tau = maxTau / 2
	}
	return tau
}
