package experiments

import (
	"fmt"

	"subtraj/internal/baselines"
	"subtraj/internal/filter"
	"subtraj/internal/traj"
	"subtraj/internal/workload"
)

// Fig11CandidateCounts reproduces Figure 11: the number of candidate
// positions generated by OSF, DISON, Torch, and q-gram, varying τ_ratio
// and |Q| (Beijing-like dataset, all six cost functions).
func Fig11CandidateCounts(cfg workload.Config, models []string, ratios []float64, qlens []int, opts Options) *Table {
	c := GetCtx(cfg, opts.Scale)
	t := &Table{
		ID:     "fig11",
		Title:  "Candidate positions |C| (avg/query), " + c.Cfg.Name,
		Header: []string{"model", "filter"},
		Notes: []string{
			"q-gram counts matched gram occurrences (its analogue of (id,j,iq) candidates); unit-cost models only.",
			"paper shape: OSF smallest everywhere (>=3.4x vs DISON, 2.9x vs q-gram, 25x vs Torch).",
		},
	}
	for _, r := range ratios {
		t.Header = append(t.Header, fmt.Sprintf("tau=%.2f", r))
	}
	for _, l := range qlens {
		t.Header = append(t.Header, fmt.Sprintf("|Q|=%d", l))
	}
	filters := []string{"OSF", "DISON", "Torch", "q-gram"}
	for _, model := range models {
		for _, f := range filters {
			if f == "q-gram" && model != "EDR" && model != "Lev" {
				continue
			}
			row := []string{model, f}
			// Vary τ_ratio at |Q| = opts.QueryLen.
			queries := c.Queries(model, opts.QueryLen, opts.Queries, opts.Seed)
			for _, r := range ratios {
				row = append(row, fmt.Sprint(avgCandidates(c, f, model, queries, r)))
			}
			// Vary |Q| at τ_ratio = 0.1.
			for _, l := range qlens {
				qs := c.Queries(model, l, opts.Queries, opts.Seed+int64(l))
				row = append(row, fmt.Sprint(avgCandidates(c, f, model, qs, 0.1)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// avgCandidates returns the mean candidate count over the queries.
func avgCandidates(c *Ctx, filterName, model string, queries [][]traj.Symbol, ratio float64) int {
	costs := c.Model(model)
	inv := c.Inv(model)
	var total int
	for _, q := range queries {
		tau := c.Tau(model, q, ratio)
		switch filterName {
		case "OSF":
			plan, err := filter.BuildPlan(costs, inv, q, tau)
			if err != nil {
				panic(err)
			}
			// The paper's candidate set |C| of Q′ (the Remark under
			// Definition 5), not what the trajectory-level pre-filter
			// lets through to verification (DESIGN.md §2).
			total += plan.PredictedCandidates
		case "DISON":
			total += strategyCandidates(c, baselines.DISONStrategy, model, q, tau)
		case "Torch":
			total += strategyCandidates(c, baselines.TorchStrategy, model, q, tau)
		case "q-gram":
			qg := qgramFor(c, model)
			total += qg.CandidatePositions(q, tau)
		}
	}
	if len(queries) == 0 {
		return 0
	}
	return total / len(queries)
}

func strategyCandidates(c *Ctx, strat baselines.Strategy, model string, q []traj.Symbol, tau float64) int {
	costs := c.Model(model)
	inv := c.Inv(model)
	items := strat(costs, inv, q, tau)
	plan := &filter.Plan{Subseq: items}
	for _, it := range items {
		plan.Neighbors = append(plan.Neighbors, costs.Neighbors(it.Sym, nil))
	}
	return len(plan.Candidates(inv, nil))
}
