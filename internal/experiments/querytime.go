package experiments

import (
	"fmt"
	"time"

	"subtraj/internal/baselines"
	"subtraj/internal/core"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/workload"
)

// Methods compared in Figures 6–8, in the paper's legend order. The -BT
// rows run the local bidirectional verification (OSF-BT through
// verify.Options.CandidateWalk, where the engine would enumerate by words):
// the paper's -BT without its column-sharing tries (DESIGN.md §1.4).
var queryMethods = []string{
	"OSF-BT", "DISON-BT", "Torch-BT",
	"OSF-SW", "DISON-SW", "Torch-SW",
	"Plain-SW", "q-gram",
}

// methodSupported mirrors the paper's omissions: q-gram needs unit costs,
// and the -SW/Plain-SW variants on NetEDR/NetERP are omitted ("take at
// least 24 hours" in the paper; the Sub cost makes full scans infeasible).
func methodSupported(method, model string) bool {
	switch method {
	case "q-gram":
		return model == "EDR" || model == "Lev"
	case "OSF-SW", "DISON-SW", "Torch-SW", "Plain-SW":
		return model != "NetEDR" && model != "NetERP"
	default:
		return true
	}
}

// runMethod answers one query with the given method, returning the match
// count and candidate count (so callers can sanity-check exactness).
func runMethod(c *Ctx, method, model string, q []traj.Symbol, tau float64, qg *baselines.QGramIndex) (matches, candidates int) {
	costs := c.Model(model)
	ds := c.Data(model)
	inv := c.Inv(model)
	switch method {
	case "OSF-BT", "OSF-SW":
		vo := paperWalk
		if method == "OSF-SW" {
			vo = verify.Options{Mode: verify.ModeSW}
		}
		res, stats, err := c.Engine(model).SearchQuery(core.Query{Q: q, Tau: tau, Verify: vo})
		if err != nil {
			panic(err)
		}
		return len(res), stats.Candidates
	case "DISON-BT":
		r := baselines.DISON(costs, ds, inv, q, tau, verify.Options{})
		return len(r.Matches), r.Candidates
	case "DISON-SW":
		r := baselines.DISON(costs, ds, inv, q, tau, verify.Options{Mode: verify.ModeSW})
		return len(r.Matches), r.Candidates
	case "Torch-BT":
		r := baselines.Torch(costs, ds, inv, q, tau, verify.Options{})
		return len(r.Matches), r.Candidates
	case "Torch-SW":
		r := baselines.Torch(costs, ds, inv, q, tau, verify.Options{Mode: verify.ModeSW})
		return len(r.Matches), r.Candidates
	case "Plain-SW":
		r := baselines.PlainSW(costs, ds, q, tau)
		return len(r.Matches), r.Candidates
	case "q-gram":
		r := qg.Search(q, tau)
		return len(r.Matches), r.Candidates
	default:
		panic("unknown method " + method)
	}
}

// qgramFor lazily builds the q-gram index for unit-cost models.
func qgramFor(c *Ctx, model string) *baselines.QGramIndex {
	if model != "EDR" && model != "Lev" {
		return nil
	}
	costs := c.Model(model) // resolve before taking the lock
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.qgrams == nil {
		c.qgrams = map[string]*baselines.QGramIndex{}
	}
	if g, ok := c.qgrams[model]; ok {
		return g
	}
	g := baselines.NewQGramIndex(costs, c.Data(model), 3)
	c.qgrams[model] = g
	return g
}

// timeMethod measures the total wall time of answering all queries and
// cross-checks that every method returns the same match count per query.
func timeMethod(c *Ctx, method, model string, queries [][]traj.Symbol, ratio float64, wantMatches []int) (time.Duration, error) {
	qg := qgramFor(c, model)
	var total time.Duration
	for i, q := range queries {
		tau := c.Tau(model, q, ratio)
		start := time.Now()
		matches, _ := runMethod(c, method, model, q, tau, qg)
		total += time.Since(start)
		if wantMatches != nil && matches != wantMatches[i] {
			return 0, fmt.Errorf("%s/%s: query %d returned %d matches, reference %d", method, model, i, matches, wantMatches[i])
		}
	}
	return total, nil
}

// Fig6VaryTau reproduces Figure 6: per dataset and cost function, query
// processing time (ms/query) for each method as τ_ratio varies.
func Fig6VaryTau(cfgs []Ctx2, models []string, ratios []float64, opts Options) *Table {
	t := &Table{
		ID:     "fig6",
		Title:  "Query processing time (ms/query), varying tau_ratio, |Q|=" + fmt.Sprint(opts.QueryLen),
		Header: append([]string{"dataset", "model", "method"}, ratioHeaders(ratios)...),
		Notes: []string{
			"Plain-SW and *-SW omitted for NetEDR/NetERP (paper: >24h); q-gram requires unit costs (EDR/Lev).",
			"paper shape: OSF-BT fastest everywhere; BT >> SW; Plain-SW slowest.",
		},
	}
	for _, cc := range cfgs {
		c := GetCtx(cc.Cfg, opts.Scale*cc.Scale)
		for _, model := range models {
			queries := c.Queries(model, opts.QueryLen, opts.Queries, opts.Seed)
			// Reference match counts from OSF-BT at each ratio.
			refCounts := map[float64][]int{}
			for _, r := range ratios {
				counts := make([]int, len(queries))
				for i, q := range queries {
					m, _ := runMethod(c, "OSF-BT", model, q, c.Tau(model, q, r), nil)
					counts[i] = m
				}
				refCounts[r] = counts
			}
			for _, method := range queryMethods {
				if !methodSupported(method, model) {
					continue
				}
				row := []string{c.Cfg.Name, model, method}
				for _, r := range ratios {
					d, err := timeMethod(c, method, model, queries, r, refCounts[r])
					if err != nil {
						panic(err)
					}
					row = append(row, msPerQuery(d, len(queries)))
				}
				t.Rows = append(t.Rows, row)
			}
		}
	}
	return t
}

// Ctx2 pairs a workload config with a per-dataset scale tweak (e.g. the
// bulk SanFran dataset is shrunk more aggressively in quick runs).
type Ctx2 struct {
	Cfg   workload.Config
	Scale float64
}

// DefaultDatasets returns the paper's four datasets for the query-time
// experiments.
func DefaultDatasets() []Ctx2 {
	return []Ctx2{
		{workload.BeijingLike(), 1},
		{workload.PortoLike(), 1},
		{workload.SingaporeLike(), 1},
		{workload.SanFranLike(), 0.5},
	}
}

// Fig7VaryQueryLen reproduces Figure 7: time vs |Q| at τ_ratio = 0.1.
func Fig7VaryQueryLen(cfgs []Ctx2, models []string, qlens []int, opts Options) *Table {
	t := &Table{
		ID:     "fig7",
		Title:  "Query processing time (ms/query), varying |Q|, tau_ratio=0.1",
		Header: []string{"dataset", "model", "method"},
		Notes:  []string{"paper shape: time grows with |Q| for all methods; OSF-BT stays fastest."},
	}
	for _, l := range qlens {
		t.Header = append(t.Header, fmt.Sprintf("|Q|=%d", l))
	}
	const ratio = 0.1
	for _, cc := range cfgs {
		c := GetCtx(cc.Cfg, opts.Scale*cc.Scale)
		for _, model := range models {
			perLen := map[int][][]traj.Symbol{}
			for _, l := range qlens {
				perLen[l] = c.Queries(model, l, opts.Queries, opts.Seed+int64(l))
			}
			for _, method := range queryMethods {
				if !methodSupported(method, model) {
					continue
				}
				row := []string{c.Cfg.Name, model, method}
				for _, l := range qlens {
					d, err := timeMethod(c, method, model, perLen[l], ratio, nil)
					if err != nil {
						panic(err)
					}
					row = append(row, msPerQuery(d, len(perLen[l])))
				}
				t.Rows = append(t.Rows, row)
			}
		}
	}
	return t
}

// Fig8VaryDatasetSize reproduces Figure 8: time vs dataset fraction.
func Fig8VaryDatasetSize(cfgs []Ctx2, models []string, fracs []float64, opts Options) *Table {
	t := &Table{
		ID:     "fig8",
		Title:  "Query processing time (ms/query), varying dataset size, tau_ratio=0.1",
		Header: []string{"dataset", "model", "method"},
		Notes:  []string{"paper shape: all methods scale linearly; OSF-BT consistently fastest."},
	}
	for _, f := range fracs {
		t.Header = append(t.Header, fmt.Sprintf("%.0f%%", f*100))
	}
	const ratio = 0.1
	for _, cc := range cfgs {
		for _, model := range models {
			// Sample queries once from the full-size context so every
			// fraction answers the same workload.
			full := GetCtx(cc.Cfg, opts.Scale*cc.Scale)
			queries := full.Queries(model, opts.QueryLen, opts.Queries, opts.Seed)
			rows := map[string][]string{}
			for _, method := range queryMethods {
				if methodSupported(method, model) {
					rows[method] = []string{full.Cfg.Name, model, method}
				}
			}
			for _, f := range fracs {
				c := GetCtx(cc.Cfg, opts.Scale*cc.Scale*f)
				// Queries must exist in the smaller dataset's alphabet:
				// prefixes of the same generation sequence do.
				for _, method := range queryMethods {
					if !methodSupported(method, model) {
						continue
					}
					d, err := timeMethod(c, method, model, queries, ratio, nil)
					if err != nil {
						panic(err)
					}
					rows[method] = append(rows[method], msPerQuery(d, len(queries)))
				}
			}
			for _, method := range queryMethods {
				if methodSupported(method, model) {
					t.Rows = append(t.Rows, rows[method])
				}
			}
		}
	}
	return t
}

func ratioHeaders(ratios []float64) []string {
	out := make([]string, len(ratios))
	for i, r := range ratios {
		out[i] = fmt.Sprintf("tau=%.2f", r)
	}
	return out
}
