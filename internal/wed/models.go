package wed

import (
	"subtraj/internal/geo"
	"subtraj/internal/shortestpath"
	"subtraj/internal/spatial"
)

// ---------------------------------------------------------------------------
// Levenshtein (Eq. 1)

// Lev is the unit-cost Levenshtein distance. It works on both vertex and
// edge representations. η is implicitly 0: B(q) = {q}, c(q) = 1.
type Lev struct{}

// NewLev returns the Levenshtein cost model.
func NewLev() Lev { return Lev{} }

// Name implements Costs.
func (Lev) Name() string { return "Lev" }

// Sub implements Costs.
func (Lev) Sub(a, b Symbol) float64 {
	if a == b {
		return 0
	}
	return 1
}

// Ins implements Costs.
func (Lev) Ins(Symbol) float64 { return 1 }

// Del implements Costs.
func (Lev) Del(Symbol) float64 { return 1 }

// Neighbors implements FilterCosts: B(q) = {q}.
func (Lev) Neighbors(q Symbol, dst []Symbol) []Symbol { return append(dst, q) }

// FilterCost implements FilterCosts: c(q) = 1.
func (Lev) FilterCost(Symbol) float64 { return 1 }

// unitCost implements Unit.
func (Lev) unitCost() {}

// ---------------------------------------------------------------------------
// EDR — edit distance on real sequence (Eq. 2)

// SpatialIndex answers the two spatial queries the coordinate-aware cost
// models need (§4.2: "we may index the coordinates of the vertices V
// using a spatial index, such as a kd-tree or an R-tree... regarding the
// index as a blackbox"). spatial.KDTree is the implementation shipped.
type SpatialIndex interface {
	// Range appends the indexes of points within r of center.
	Range(center geo.Point, r float64, dst []int32) []int32
	// NearestBeyond returns the nearest point strictly farther than r,
	// or (-1, 0) when none exists.
	NearestBeyond(q geo.Point, r float64) (int32, float64)
}

var _ SpatialIndex = (*spatial.KDTree)(nil)

// EDR is Chen et al.'s edit distance on real sequences over vertex
// representation: substitution is free within Euclidean distance ε ("match")
// and 1 otherwise; insertions and deletions cost 1. With the paper's η = 0,
// B(q) is the ε-ball around q and c(q) = 1.
type EDR struct {
	coords []geo.Point
	tree   SpatialIndex
	eps    float64
}

// NewEDR builds the EDR model. coords maps vertex IDs to coordinates; tree
// must index exactly those coordinates; eps is the matching threshold ε.
func NewEDR(coords []geo.Point, tree SpatialIndex, eps float64) *EDR {
	return &EDR{coords: coords, tree: tree, eps: eps}
}

// Name implements Costs.
func (*EDR) Name() string { return "EDR" }

// Sub implements Costs.
func (e *EDR) Sub(a, b Symbol) float64 {
	if e.coords[a].Dist2(e.coords[b]) <= e.eps*e.eps {
		return 0
	}
	return 1
}

// Ins implements Costs.
func (*EDR) Ins(Symbol) float64 { return 1 }

// Del implements Costs.
func (*EDR) Del(Symbol) float64 { return 1 }

// Neighbors implements FilterCosts: the ε-range query of Figure 2.
func (e *EDR) Neighbors(q Symbol, dst []Symbol) []Symbol {
	return e.tree.Range(e.coords[q], e.eps, dst)
}

// FilterCost implements FilterCosts: every symbol outside B(q) costs 1, as
// does deletion.
func (*EDR) FilterCost(Symbol) float64 { return 1 }

// unitCost implements Unit.
func (*EDR) unitCost() {}

// ---------------------------------------------------------------------------
// ERP — edit distance with real penalty (Eq. 3)

// ERP is Chen & Ng's metric edit distance over vertex representation:
// substitution costs the Euclidean distance, insertion/deletion the
// distance to a fixed reference point g. η must be a small positive number
// (Appendix D); B(q) is the η-ball and c(q) = min(d(q, g), nearest vertex
// beyond η).
type ERP struct {
	coords []geo.Point
	tree   SpatialIndex
	ref    geo.Point
	eta    float64
}

// NewERP builds the ERP model with reference point ref (the paper uses the
// barycentre of V) and neighbourhood threshold eta.
func NewERP(coords []geo.Point, tree SpatialIndex, ref geo.Point, eta float64) *ERP {
	return &ERP{coords: coords, tree: tree, ref: ref, eta: eta}
}

// Name implements Costs.
func (*ERP) Name() string { return "ERP" }

// Sub implements Costs.
func (e *ERP) Sub(a, b Symbol) float64 { return e.coords[a].Dist(e.coords[b]) }

// Ins implements Costs.
func (e *ERP) Ins(a Symbol) float64 { return e.coords[a].Dist(e.ref) }

// Del implements Costs.
func (e *ERP) Del(a Symbol) float64 { return e.coords[a].Dist(e.ref) }

// Neighbors implements FilterCosts.
func (e *ERP) Neighbors(q Symbol, dst []Symbol) []Symbol {
	return e.tree.Range(e.coords[q], e.eta, dst)
}

// FilterCost implements FilterCosts. Deletion (sub(q, ε) = d(q, g)) is
// always available; the cheapest in-alphabet substitution outside B(q) is
// the nearest vertex strictly beyond η, answered exactly by the kd-tree.
func (e *ERP) FilterCost(q Symbol) float64 {
	c := e.coords[q].Dist(e.ref)
	if idx, d := e.tree.NearestBeyond(e.coords[q], e.eta); idx >= 0 && d < c {
		c = d
	}
	return c
}

// ---------------------------------------------------------------------------
// NetEDR — EDR with shortest-path distance (§2.2.3)

// NetDist answers shortest-path distance queries on the symmetrised road
// network. shortestpath.HubLabels implements it; tests substitute a
// Dijkstra-backed oracle.
type NetDist interface {
	Query(a, b int32) float64
}

// NetEDR replaces EDR's Euclidean distance with (undirected) network
// distance. B(q) is the network ε-ball, computed exactly by bounded
// Dijkstra; c(q) = 1.
type NetEDR struct {
	adj  *shortestpath.Adjacency // symmetrised
	dist NetDist
	eps  float64
}

// NewNetEDR builds the NetEDR model; adj must be the symmetrised network
// (shortestpath.Undirected) and dist a matching distance oracle.
func NewNetEDR(adj *shortestpath.Adjacency, dist NetDist, eps float64) *NetEDR {
	return &NetEDR{adj: adj, dist: dist, eps: eps}
}

// Name implements Costs.
func (*NetEDR) Name() string { return "NetEDR" }

// Sub implements Costs.
func (e *NetEDR) Sub(a, b Symbol) float64 {
	if a == b {
		return 0
	}
	if e.dist.Query(a, b) <= e.eps {
		return 0
	}
	return 1
}

// Ins implements Costs.
func (*NetEDR) Ins(Symbol) float64 { return 1 }

// Del implements Costs.
func (*NetEDR) Del(Symbol) float64 { return 1 }

// Neighbors implements FilterCosts via bounded Dijkstra.
func (e *NetEDR) Neighbors(q Symbol, dst []Symbol) []Symbol {
	shortestpath.Bounded(e.adj, q, e.eps, func(v int32, _ float64) {
		dst = append(dst, v)
	})
	return dst
}

// FilterCost implements FilterCosts.
func (*NetEDR) FilterCost(Symbol) float64 { return 1 }

// unitCost implements Unit.
func (*NetEDR) unitCost() {}

// ---------------------------------------------------------------------------
// NetERP — ERP with shortest-path distance (§2.2.3)

// NetERP replaces ERP's Euclidean distance with network distance and its
// reference-point deletion cost with a user constant G_del (making it
// non-metric, which the method tolerates since it never uses the triangle
// inequality).
type NetERP struct {
	adj  *shortestpath.Adjacency // symmetrised
	dist NetDist
	gdel float64
	eta  float64
}

// NewNetERP builds the NetERP model with deletion cost gdel (the paper uses
// 2M in metres-scaled datasets) and neighbourhood threshold eta (the paper
// uses the median road length).
func NewNetERP(adj *shortestpath.Adjacency, dist NetDist, gdel, eta float64) *NetERP {
	return &NetERP{adj: adj, dist: dist, gdel: gdel, eta: eta}
}

// Name implements Costs.
func (*NetERP) Name() string { return "NetERP" }

// Sub implements Costs.
func (e *NetERP) Sub(a, b Symbol) float64 {
	if a == b {
		return 0
	}
	return e.dist.Query(a, b)
}

// Ins implements Costs.
func (e *NetERP) Ins(Symbol) float64 { return e.gdel }

// Del implements Costs.
func (e *NetERP) Del(Symbol) float64 { return e.gdel }

// Neighbors implements FilterCosts via bounded Dijkstra.
func (e *NetERP) Neighbors(q Symbol, dst []Symbol) []Symbol {
	shortestpath.Bounded(e.adj, q, e.eta, func(v int32, _ float64) {
		dst = append(dst, v)
	})
	return dst
}

// FilterCost implements FilterCosts: min of the deletion constant and the
// nearest network distance strictly beyond η (the "smallest edge cost from
// q" in §3.1 when η is below the adjacent edge weights).
func (e *NetERP) FilterCost(q Symbol) float64 {
	beyond := shortestpath.Bounded(e.adj, q, e.eta, nil)
	if beyond < e.gdel {
		return beyond
	}
	return e.gdel
}

// ---------------------------------------------------------------------------
// SURS — shortest unshared road segments (Eq. 4)

// SURS works on edge representation: substituting a with b pays both road
// lengths, inserting or deleting pays the road length. It totals the travel
// cost of road segments not shared between the two trajectories, in order.
// With η = 0, B(q) = {q} (all weights are positive) and c(q) = w(q).
type SURS struct {
	weights []float64 // road length per edge ID
}

// NewSURS builds the SURS model over per-edge travel costs (indexed by
// EdgeID).
func NewSURS(weights []float64) *SURS { return &SURS{weights: weights} }

// Name implements Costs.
func (*SURS) Name() string { return "SURS" }

// Sub implements Costs.
func (s *SURS) Sub(a, b Symbol) float64 {
	if a == b {
		return 0
	}
	return s.weights[a] + s.weights[b]
}

// Ins implements Costs.
func (s *SURS) Ins(a Symbol) float64 { return s.weights[a] }

// Del implements Costs.
func (s *SURS) Del(a Symbol) float64 { return s.weights[a] }

// Neighbors implements FilterCosts: B(q) = {q} since every other
// substitution costs w(q)+w(b) > 0 = η.
func (*SURS) Neighbors(q Symbol, dst []Symbol) []Symbol { return append(dst, q) }

// FilterCost implements FilterCosts: deletion (w(q)) is always cheaper than
// substitution (w(q)+w(b)), so c(q) = del(q) as stated in §3.1.
func (s *SURS) FilterCost(q Symbol) float64 { return s.weights[q] }

// Compile-time interface checks.
var (
	_ FilterCosts = Lev{}
	_ FilterCosts = (*EDR)(nil)
	_ FilterCosts = (*ERP)(nil)
	_ FilterCosts = (*NetEDR)(nil)
	_ FilterCosts = (*NetERP)(nil)
	_ FilterCosts = (*SURS)(nil)

	_ Unit = Lev{}
	_ Unit = (*EDR)(nil)
	_ Unit = (*NetEDR)(nil)
)
