// Package experiments reproduces every table and figure of the paper's
// evaluation (§6) on the synthetic paper-shaped workloads. One file per
// experiment; each returns structured Tables that cmd/benchall formats and
// EXPERIMENTS.md records. See DESIGN.md §2 for the experiment index.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"subtraj/internal/baselines"
	"subtraj/internal/core"
	"subtraj/internal/index"
	"subtraj/internal/shortestpath"
	"subtraj/internal/spatial"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// Table is one formatted experiment output.
type Table struct {
	ID     string // "fig6", "tab4", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as fixed-width text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Options scales an experiment run. Benchmarks use small scales; the
// cmd/benchall default is larger.
type Options struct {
	// Scale multiplies every workload's trajectory count.
	Scale float64
	// Queries is the number of queries averaged per data point (the
	// paper uses 100; 10 for Plain-SW).
	Queries int
	// QueryLen is |Q| where the experiment doesn't sweep it.
	QueryLen int
	// Seed drives query sampling.
	Seed int64
}

// Quick returns bench-friendly options.
func Quick() Options { return Options{Scale: 0.12, Queries: 3, QueryLen: 30, Seed: 1} }

// Standard returns cmd/benchall defaults: large enough to show the paper's
// relative behaviour, small enough for minutes-not-hours runtime.
func Standard() Options { return Options{Scale: 0.3, Queries: 5, QueryLen: 60, Seed: 1} }

// ModelNames lists the six WED instances in the paper's presentation order.
var ModelNames = []string{"EDR", "ERP", "SURS", "Lev", "NetEDR", "NetERP"}

// Ctx is a prepared workload: generated city, both dataset representations,
// substrate indexes, cost models and engines, all built once and shared
// across experiments (mirrors the paper building each index once per
// dataset).
type Ctx struct {
	Cfg      workload.Config
	W        *workload.Workload
	EdgeData *traj.Dataset

	once struct {
		tree, und, hubs, invV, invE sync.Once
	}
	tree *spatial.KDTree
	und  *shortestpath.Adjacency
	hubs *shortestpath.HubLabels
	invV *index.Inverted
	invE *index.Inverted

	mu      sync.Mutex
	models  map[string]wed.FilterCosts
	engines map[string]*core.Engine
	qgrams  map[string]*baselines.QGramIndex
}

var ctxCache sync.Map // key string -> *Ctx

// GetCtx returns the (cached) prepared context for a scaled workload.
func GetCtx(cfg workload.Config, scale float64) *Ctx {
	scaled := cfg.Scale(scale)
	key := fmt.Sprintf("%s/%d", scaled.Name, scaled.NumTrajectories)
	if v, ok := ctxCache.Load(key); ok {
		return v.(*Ctx)
	}
	c := &Ctx{Cfg: scaled, models: map[string]wed.FilterCosts{}, engines: map[string]*core.Engine{}}
	c.W = workload.Generate(scaled)
	ed, err := c.W.Data.ToEdgeRep(c.W.Graph)
	if err != nil {
		panic("experiments: workload not path-connected: " + err.Error())
	}
	c.EdgeData = ed
	actual, _ := ctxCache.LoadOrStore(key, c)
	return actual.(*Ctx)
}

// Tree returns the vertex kd-tree.
func (c *Ctx) Tree() *spatial.KDTree {
	c.once.tree.Do(func() { c.tree = spatial.Build(c.W.Graph.Coords()) })
	return c.tree
}

// Und returns the symmetrised adjacency.
func (c *Ctx) Und() *shortestpath.Adjacency {
	c.once.und.Do(func() { c.und = shortestpath.Undirected(c.W.Graph) })
	return c.und
}

// Hubs returns the hub-labelling distance index.
func (c *Ctx) Hubs() *shortestpath.HubLabels {
	c.once.hubs.Do(func() { c.hubs = shortestpath.BuildHubLabels(c.Und()) })
	return c.hubs
}

// InvV returns the vertex-representation inverted index.
func (c *Ctx) InvV() *index.Inverted {
	c.once.invV.Do(func() { c.invV = index.Build(c.W.Data) })
	return c.invV
}

// InvE returns the edge-representation inverted index.
func (c *Ctx) InvE() *index.Inverted {
	c.once.invE.Do(func() { c.invE = index.Build(c.EdgeData) })
	return c.invE
}

// paperEDREps is ε for EDR: one nominal block (the paper's 0.001° ≈ 100 m).
const paperEDREps = 100.0

// paperNetERPGdel is G_del for NetERP; the paper uses 2·10⁶ (metres),
// making deletions far costlier than any realistic substitution chain.
const paperNetERPGdel = 2e6

// Model returns the named cost model with the paper's §6.1 parameters.
func (c *Ctx) Model(name string) wed.FilterCosts {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.models[name]; ok {
		return m
	}
	g := c.W.Graph
	var m wed.FilterCosts
	switch name {
	case "Lev":
		m = wed.NewLev()
	case "EDR":
		m = wed.NewEDR(g.Coords(), c.Tree(), paperEDREps)
	case "ERP":
		m = wed.NewERP(g.Coords(), c.Tree(), g.Barycenter(), 1e-4*c.medianNN())
	case "NetEDR":
		m = wed.NewNetEDR(c.Und(), wed.NewMemoNetDist(c.Hubs(), 0), g.MedianEdgeWeight())
	case "NetERP":
		m = wed.NewNetERP(c.Und(), wed.NewMemoNetDist(c.Hubs(), 0), paperNetERPGdel, g.MedianEdgeWeight())
	case "SURS":
		ws := make([]float64, g.NumEdges())
		for i, e := range g.Edges() {
			ws[i] = e.Weight
		}
		m = wed.NewSURS(ws)
	default:
		panic("experiments: unknown model " + name)
	}
	c.models[name] = m
	return m
}

// ERPModelWithEta builds an ERP model with η = mult × (median NN distance);
// the paper's default is mult = 1e-4 (Appendix D, Figure 13's x-axis).
func (c *Ctx) ERPModelWithEta(mult float64) wed.FilterCosts {
	return wed.NewERP(c.W.Graph.Coords(), c.Tree(), c.W.Graph.Barycenter(), mult*c.medianNN())
}

// NetERPModelWithEta builds a NetERP model with η = mult × median(w(e));
// the paper's default is mult = 1.
func (c *Ctx) NetERPModelWithEta(mult float64) wed.FilterCosts {
	return wed.NewNetERP(c.Und(), c.Hubs(), paperNetERPGdel, mult*c.W.Graph.MedianEdgeWeight())
}

// medianNN returns the median distance from a vertex to its nearest
// neighbour (sampled; the median is stable under sampling).
func (c *Ctx) medianNN() float64 {
	tree := c.Tree()
	coords := c.W.Graph.Coords()
	step := len(coords)/512 + 1
	var ds []float64
	for v := 0; v < len(coords); v += step {
		if _, d := tree.NearestBeyond(coords[v], 0); d > 0 {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return 1
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}

// Data returns the dataset the named model searches (edge representation
// for SURS, vertex otherwise).
func (c *Ctx) Data(model string) *traj.Dataset {
	if model == "SURS" {
		return c.EdgeData
	}
	return c.W.Data
}

// Inv returns the inverted index matching Data(model).
func (c *Ctx) Inv(model string) *index.Inverted {
	if model == "SURS" {
		return c.InvE()
	}
	return c.InvV()
}

// Engine returns the (cached) search engine for the named model.
func (c *Ctx) Engine(model string) *core.Engine {
	c.mu.Lock()
	if e, ok := c.engines[model]; ok {
		c.mu.Unlock()
		return e
	}
	c.mu.Unlock()
	e := core.NewEngineWithBackend(c.Data(model), c.Inv(model), c.Model(model))
	c.mu.Lock()
	c.engines[model] = e
	c.mu.Unlock()
	return e
}

// Queries samples n queries of length qlen from the model's dataset.
func (c *Ctx) Queries(model string, qlen, n int, seed int64) [][]traj.Symbol {
	rng := rand.New(rand.NewSource(seed))
	qs, err := workload.SampleQueries(c.Data(model), qlen, n, rng)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", c.Cfg.Name, err))
	}
	return qs
}

// Tau converts τ_ratio to τ for a query under a model (§6.1).
func (c *Ctx) Tau(model string, q []traj.Symbol, ratio float64) float64 {
	return ratio * core.SumFilterCost(c.Model(model), q)
}

// msPerQuery formats a per-query duration in milliseconds.
func msPerQuery(total time.Duration, queries int) string {
	if queries == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(total.Microseconds())/1000/float64(queries))
}
