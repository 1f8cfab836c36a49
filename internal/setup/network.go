package setup

import (
	"sort"
	"sync"

	"subtraj/internal/roadnet"
	"subtraj/internal/shortestpath"
	"subtraj/internal/spatial"
	"subtraj/internal/wed"
)

// Network prepares the spatial and shortest-path substrates a road network
// needs to serve WED cost models: a spatial index over vertex coordinates
// (EDR/ERP neighbourhoods; a kd-tree), the symmetrised adjacency, and a
// hub-labelling distance index (NetEDR/NetERP), each built lazily on
// first use, once even when first used concurrently.
type Network struct {
	G *roadnet.Graph

	treeOnce, undOnce, hubsOnce sync.Once
	tree                        *spatial.KDTree
	und                         *shortestpath.Adjacency
	hubs                        *shortestpath.HubLabels
}

// NewNetwork wraps a road network.
func NewNetwork(g *roadnet.Graph) *Network { return &Network{G: g} }

// Spatial returns the vertex spatial index, building it on first use.
func (n *Network) Spatial() wed.SpatialIndex {
	n.treeOnce.Do(func() { n.tree = spatial.Build(n.G.Coords()) })
	return n.tree
}

// UndirectedAdjacency returns the symmetrised adjacency (§2.2.3).
func (n *Network) UndirectedAdjacency() *shortestpath.Adjacency {
	n.undOnce.Do(func() { n.und = shortestpath.Undirected(n.G) })
	return n.und
}

// HubLabels returns the shortest-path distance index over the symmetrised
// network, building it on first use (construction is the expensive part of
// Net* cost models; see Table 6 discussion).
func (n *Network) HubLabels() *shortestpath.HubLabels {
	n.hubsOnce.Do(func() { n.hubs = shortestpath.BuildHubLabels(n.UndirectedAdjacency()) })
	return n.hubs
}

// Lev returns the Levenshtein cost model (works on either representation).
func (n *Network) Lev() wed.FilterCosts { return wed.NewLev() }

// EDR returns the EDR cost model with matching threshold eps (vertex
// representation).
func (n *Network) EDR(eps float64) wed.FilterCosts {
	return wed.NewEDR(n.G.Coords(), n.Spatial(), eps)
}

// ERP returns the ERP cost model with the barycentre reference point and
// neighbourhood threshold eta (vertex representation). The paper's default
// eta is 1e-4 × the median nearest-neighbour distance.
func (n *Network) ERP(eta float64) wed.FilterCosts {
	return wed.NewERP(n.G.Coords(), n.Spatial(), n.G.Barycenter(), eta)
}

// DefaultERPEta returns the paper's η for ERP: 1e-4 × median distance from
// a vertex to its nearest neighbour (Appendix D).
func (n *Network) DefaultERPEta() float64 {
	tree := n.Spatial()
	coords := n.G.Coords()
	ds := make([]float64, 0, len(coords))
	for v := range coords {
		if _, d := tree.NearestBeyond(coords[v], 0); d > 0 {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Float64s(ds)
	return ERPEtaScale * ds[len(ds)/2]
}

// NetEDR returns the NetEDR cost model with network matching threshold eps
// (the paper uses the median edge weight). Distance queries go through a
// memo in front of the hub labels.
func (n *Network) NetEDR(eps float64) wed.FilterCosts {
	return wed.NewNetEDR(n.UndirectedAdjacency(), wed.NewMemoNetDist(n.HubLabels(), 0), eps)
}

// NetERP returns the NetERP cost model with deletion constant gdel and
// neighbourhood threshold eta (the paper uses the median edge weight).
// Distance queries go through a memo in front of the hub labels.
func (n *Network) NetERP(gdel, eta float64) wed.FilterCosts {
	return wed.NewNetERP(n.UndirectedAdjacency(), wed.NewMemoNetDist(n.HubLabels(), 0), gdel, eta)
}

// SURS returns the SURS cost model over road lengths (edge
// representation).
func (n *Network) SURS() wed.FilterCosts {
	ws := make([]float64, n.G.NumEdges())
	for i, e := range n.G.Edges() {
		ws[i] = e.Weight
	}
	return wed.NewSURS(ws)
}
