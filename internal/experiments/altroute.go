package experiments

import (
	"fmt"
	"math/rand"

	"subtraj/internal/core"
	"subtraj/internal/geo"
	"subtraj/internal/shortestpath"
	"subtraj/internal/simfuncs"
	"subtraj/internal/traj"
	"subtraj/internal/workload"
)

// Fig5Naturalness reproduces Figure 5: alternative-route suggestion. For
// queries Q from u to v, retrieve subtrajectories from u to v similar to
// Q, and measure the suggested routes' naturalness — the fraction of hops
// that get closer (network distance) to the destination than ever before
// (Zheng & Zhou §7's route log-likelihood surrogate).
func Fig5Naturalness(cfg workload.Config, qlens []int, ratios []float64, numQueries int, opts Options) *Table {
	c := GetCtx(cfg, opts.Scale)
	t := &Table{
		ID:     "fig5",
		Title:  fmt.Sprintf("Alternative-route naturalness, %s (cardinality | naturalness per cell)", c.Cfg.Name),
		Header: []string{"|Q|", "function"},
		Notes: []string{
			"paper shape: Lev/EDR/NetEDR/NetERP suggest high-naturalness routes; LCSS/LORS/LCRS markedly lower;",
			"cardinality grows with tau_ratio.",
		},
	}
	for _, r := range ratios {
		t.Header = append(t.Header, fmt.Sprintf("tau=%.2f", r))
	}
	rev := shortestpath.Reverse(shortestpath.FromGraph(c.W.Graph))
	for _, qlen := range qlens {
		queries := sampleRouteQueries(c, qlen, numQueries, opts.Seed+int64(qlen))
		for _, fn := range SimilarityFunctions {
			row := []string{fmt.Sprint(qlen), fn}
			for _, r := range ratios {
				var cardSum, natSum float64
				var n int
				for _, q := range queries {
					routes := suggestedRoutes(c, fn, q, r)
					if len(routes) == 0 {
						continue
					}
					distToDest := shortestpath.Dijkstra(rev, q[len(q)-1])
					var nat float64
					for _, route := range routes {
						nat += naturalness(route, distToDest)
					}
					cardSum += float64(len(routes))
					natSum += nat / float64(len(routes))
					n++
				}
				if n == 0 {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.1f|%.3f", cardSum/float64(n), natSum/float64(n)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// sampleRouteQueries draws vertex-path queries whose endpoints differ.
func sampleRouteQueries(c *Ctx, qlen, n int, seed int64) [][]traj.Symbol {
	rng := rand.New(rand.NewSource(seed))
	var out [][]traj.Symbol
	for att := 0; att < 50*n && len(out) < n; att++ {
		q, err := workload.SampleQuery(c.W.Data, qlen, rng)
		if err != nil {
			break
		}
		if q[0] == q[len(q)-1] {
			continue
		}
		out = append(out, q)
	}
	return out
}

// suggestedRoutes returns the distinct vertex paths of subtrajectories
// that (a) pass the function's τ_ratio threshold against Q and (b) start
// at u = Q_1 and end at v = Q_|Q|.
func suggestedRoutes(c *Ctx, fn string, q []traj.Symbol, ratio float64) [][]traj.Symbol {
	u, v := q[0], q[len(q)-1]
	var routes [][]traj.Symbol
	switch fn {
	case "Lev", "EDR", "ERP", "NetEDR", "NetERP":
		eng := c.Engine(fn)
		tau := c.Tau(fn, q, ratio)
		if tau <= 0 {
			tau = 1e-9
		}
		ms, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau})
		if err != nil {
			return nil
		}
		for _, m := range ms {
			p := c.W.Data.Path(m.ID)
			if p[m.S] == u && p[m.T] == v {
				routes = append(routes, p[m.S:m.T+1])
			}
		}
	case "SURS":
		qe, err := c.W.Graph.VertexPathToEdges(q)
		if err != nil {
			return nil
		}
		eng := c.Engine("SURS")
		tau := c.Tau("SURS", qe, ratio)
		if tau <= 0 {
			tau = 1e-9
		}
		ms, _, err := eng.SearchQuery(core.Query{Q: qe, Tau: tau})
		if err != nil {
			return nil
		}
		g := c.W.Graph
		for _, m := range ms {
			p := c.EdgeData.Path(m.ID)
			if g.Edge(p[m.S]).From == u && g.Edge(p[m.T]).To == v {
				vp, err := g.EdgePathToVertices(p[m.S : m.T+1])
				if err == nil {
					routes = append(routes, vp)
				}
			}
		}
	default:
		routes = scanRoutes(c, fn, q, ratio, u, v)
	}
	return dedupeRoutes(routes)
}

// scanRoutes evaluates a non-WED function on every u→v subtrajectory of
// trajectories passing through u (endpoint-pinned scans are cheap: only
// (occurrence of u, occurrence of v) pairs are evaluated).
func scanRoutes(c *Ctx, fn string, q []traj.Symbol, ratio float64, u, v traj.Symbol) [][]traj.Symbol {
	coords := c.W.Graph.Coords()
	g := c.W.Graph
	weight := func(s traj.Symbol) float64 { return g.Edge(s).Weight }
	qpts := make([]geo.Point, len(q))
	for i, s := range q {
		qpts[i] = coords[s]
	}
	var qe []traj.Symbol
	var wq float64
	if fn == "LORS" || fn == "LCRS" {
		var err error
		qe, err = g.VertexPathToEdges(q)
		if err != nil {
			return nil
		}
		wq = simfuncs.SumWeights(qe, weight)
	}
	var dtwScale float64
	for i := 1; i < len(qpts); i++ {
		dtwScale += qpts[i-1].Dist2(qpts[i])
	}
	var routes [][]traj.Symbol
	maxLen := 3 * len(q)
	for _, post := range c.InvV().AppendPostings(nil, u) {
		p := c.W.Data.Path(post.ID)
		s := int(post.Pos)
		hi := s + maxLen
		if hi > len(p) {
			hi = len(p)
		}
		for e := s + 1; e < hi; e++ {
			if p[e] != v {
				continue
			}
			sub := p[s : e+1]
			ok := false
			switch fn {
			case "DTW":
				pts := make([]geo.Point, len(sub))
				for i, sym := range sub {
					pts[i] = coords[sym]
				}
				ok = simfuncs.DTW(pts, qpts) <= ratio*dtwScale
			case "LCSS":
				pts := make([]geo.Point, len(sub))
				for i, sym := range sub {
					pts[i] = coords[sym]
				}
				ok = float64(simfuncs.LCSS(pts, qpts, paperEDREps)) >= (1-ratio)*float64(len(q))
			case "LORS":
				se, err := g.VertexPathToEdges(sub)
				if err == nil {
					ok = simfuncs.LORS(se, qe, weight) >= (1-ratio)*wq
				}
			case "LCRS":
				se, err := g.VertexPathToEdges(sub)
				if err == nil {
					ok = simfuncs.LCRS(se, qe, weight) >= 1-ratio
				}
			}
			if ok {
				routes = append(routes, sub)
			}
		}
	}
	return routes
}

func dedupeRoutes(routes [][]traj.Symbol) [][]traj.Symbol {
	seen := map[string]bool{}
	var out [][]traj.Symbol
	for _, r := range routes {
		key := routeKey(r)
		if !seen[key] {
			seen[key] = true
			out = append(out, r)
		}
	}
	return out
}

func routeKey(r []traj.Symbol) string {
	b := make([]byte, 0, len(r)*4)
	for _, s := range r {
		b = append(b, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(b)
}

// naturalness is |C| / (|P|−1), where C is the set of hops that reach a
// vertex strictly closer to the destination than any previous vertex.
func naturalness(route []traj.Symbol, distToDest []float64) float64 {
	if len(route) < 2 {
		return 0
	}
	closest := distToDest[route[0]]
	count := 0
	for i := 1; i < len(route); i++ {
		d := distToDest[route[i]]
		if d < closest {
			count++
			closest = d
		}
	}
	return float64(count) / float64(len(route)-1)
}
