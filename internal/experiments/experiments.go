// Package experiments reproduces every table and figure of the paper's
// evaluation (§6) on the synthetic paper-shaped workloads. One file per
// experiment; each returns structured Tables that cmd/benchall formats.
// DESIGN.md §2 indexes the experiments and records what their tables show.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"subtraj/internal/baselines"
	"subtraj/internal/core"
	"subtraj/internal/index"
	"subtraj/internal/setup"
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

// Ctx is a prepared workload: generated city, both dataset representations,
// substrate indexes, cost models and engines, all built once and shared
// across experiments (mirrors the paper building each index once per
// dataset).
type Ctx struct {
	Cfg      workload.Config
	W        *workload.Workload
	EdgeData *traj.Dataset
	// Net builds the network substrates and the cost models.
	Net *setup.Network

	once struct {
		invV, invE sync.Once
	}
	invV *index.Compact
	invE *index.Compact

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
	w := workload.Generate(scaled)
	ed, err := w.Data.ToEdgeRep(w.Graph)
	if err != nil {
		panic("experiments: workload not path-connected: " + err.Error())
	}
	c := &Ctx{Cfg: scaled, W: w, EdgeData: ed, Net: setup.NewNetwork(w.Graph),
		models: map[string]wed.FilterCosts{}, engines: map[string]*core.Engine{}}
	actual, _ := ctxCache.LoadOrStore(key, c)
	return actual.(*Ctx)
}

// InvV returns the vertex-representation inverted index.
func (c *Ctx) InvV() *index.Compact {
	c.once.invV.Do(func() { c.invV = index.Build(c.W.Data) })
	return c.invV
}

// InvE returns the edge-representation inverted index.
func (c *Ctx) InvE() *index.Compact {
	c.once.invE.Do(func() { c.invE = index.Build(c.EdgeData) })
	return c.invE
}

// Model returns the named cost model with the paper's §6.1 parameters.
func (c *Ctx) Model(name string) wed.FilterCosts {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.models[name]; ok {
		return m
	}
	m, _, err := setup.Model(c.Net, name)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	c.models[name] = m
	return m
}

// Data returns the dataset the named model searches (edge representation
// for SURS, vertex otherwise).
func (c *Ctx) Data(model string) *traj.Dataset {
	if rep, err := setup.Rep(model); err != nil {
		panic("experiments: " + err.Error())
	} else if rep == traj.EdgeRep {
		return c.EdgeData
	}
	return c.W.Data
}

// Inv returns the inverted index matching Data(model).
func (c *Ctx) Inv(model string) *index.Compact {
	if c.Data(model).Rep == traj.EdgeRep {
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
