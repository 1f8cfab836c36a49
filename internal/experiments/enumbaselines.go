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

// enumCtx prepares the subtrajectory-enumeration baselines (DITA,
// ERP-index) on a small dataset fraction — the paper can only run them on
// 5,000 trajectories before memory explodes (§6.1, §6.3).
type enumCtx struct {
	c    *Ctx
	dita map[string]*baselines.DITA // per model
	erp  *baselines.ERPIndex
	// build metrics for Table 6.
	ditaBuild, erpBuild time.Duration
}

func newEnumCtx(cfg workload.Config, numTraj int) *enumCtx {
	scale := float64(numTraj) / float64(cfg.NumTrajectories)
	c := GetCtx(cfg, scale)
	e := &enumCtx{c: c, dita: map[string]*baselines.DITA{}}

	start := time.Now()
	inv := c.InvV()
	e.dita["EDR"] = baselines.NewDITA(c.Model("EDR"), c.W.Data, 10,
		baselines.FrequencyScore(func(s traj.Symbol) int { return inv.Freq(s) }))
	e.dita["ERP"] = baselines.NewDITA(c.Model("ERP"), c.W.Data, 10,
		baselines.DeletionCostScore(c.Model("ERP")))
	e.ditaBuild = time.Since(start)

	start = time.Now()
	e.erp = baselines.NewERPIndex(c.Model("ERP"), c.W.Data, c.W.Graph.Coords(), c.W.Graph.Barycenter())
	e.erpBuild = time.Since(start)
	return e
}

// Fig9EnumBaselinesTau reproduces Figure 9: OSF-BT / OSF-SW vs DITA and
// ERP-index on the small fraction, varying τ_ratio (EDR and ERP).
func Fig9EnumBaselinesTau(cfg workload.Config, numTraj int, ratios []float64, opts Options) *Table {
	e := newEnumCtx(cfg, numTraj)
	t := &Table{
		ID:     "fig9",
		Title:  fmt.Sprintf("Query time vs enumeration baselines (ms/query), |T|=%d, |Q|=%d", e.c.W.Data.Len(), opts.QueryLen),
		Header: append([]string{"model", "method"}, ratioHeaders(ratios)...),
		Notes:  []string{"paper shape: OSF-BT beats DITA/ERP-index by ~2 orders of magnitude."},
	}
	for _, model := range []string{"EDR", "ERP"} {
		queries := e.c.Queries(model, opts.QueryLen, opts.Queries, opts.Seed)
		methods := []string{"OSF-BT", "OSF-SW", "DITA"}
		if model == "ERP" {
			methods = append(methods, "ERP-index")
		}
		for _, method := range methods {
			row := []string{model, method}
			for _, r := range ratios {
				var total time.Duration
				for _, q := range queries {
					tau := e.c.Tau(model, q, r)
					start := time.Now()
					e.run(method, model, q, tau)
					total += time.Since(start)
				}
				row = append(row, msPerQuery(total, len(queries)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig10EnumBaselinesSize reproduces Figure 10: the same comparison varying
// the number of trajectories indexed.
func Fig10EnumBaselinesSize(cfg workload.Config, sizes []int, opts Options) *Table {
	t := &Table{
		ID:     "fig10",
		Title:  "Query time vs enumeration baselines (ms/query), varying #trajectories indexed, tau_ratio=0.1",
		Header: []string{"model", "method"},
		Notes:  []string{"paper shape: enumeration baselines degrade much faster with dataset size."},
	}
	for _, n := range sizes {
		t.Header = append(t.Header, fmt.Sprint(n))
	}
	const ratio = 0.1
	rows := map[string][]string{}
	order := []string{"EDR/OSF-BT", "EDR/OSF-SW", "EDR/DITA", "ERP/OSF-BT", "ERP/OSF-SW", "ERP/DITA", "ERP/ERP-index"}
	for _, key := range order {
		rows[key] = []string{key[:3], key[4:]}
	}
	for _, n := range sizes {
		e := newEnumCtx(cfg, n)
		for _, model := range []string{"EDR", "ERP"} {
			queries := e.c.Queries(model, opts.QueryLen, opts.Queries, opts.Seed)
			methods := []string{"OSF-BT", "OSF-SW", "DITA"}
			if model == "ERP" {
				methods = append(methods, "ERP-index")
			}
			for _, method := range methods {
				var total time.Duration
				for _, q := range queries {
					tau := e.c.Tau(model, q, ratio)
					start := time.Now()
					e.run(method, model, q, tau)
					total += time.Since(start)
				}
				key := model + "/" + method
				rows[key] = append(rows[key], msPerQuery(total, len(queries)))
			}
		}
	}
	for _, key := range order {
		t.Rows = append(t.Rows, rows[key])
	}
	return t
}

func (e *enumCtx) run(method, model string, q []traj.Symbol, tau float64) int {
	switch method {
	case "OSF-BT":
		res, _, err := e.c.Engine(model).SearchQuery(core.Query{Q: q, Tau: tau, Verify: paperWalk})
		if err != nil {
			panic(err)
		}
		return len(res)
	case "OSF-SW":
		res, _, err := e.c.Engine(model).SearchQuery(core.Query{Q: q, Tau: tau, Verify: verify.Options{Mode: verify.ModeSW}})
		if err != nil {
			panic(err)
		}
		return len(res)
	case "DITA":
		return len(e.dita[model].Search(q, tau).Matches)
	case "ERP-index":
		return len(e.erp.Search(q, tau).Matches)
	default:
		panic("unknown method " + method)
	}
}

// EnumIndexMetrics reports construction time and enumerated entry counts
// for Table 6's lower block.
func EnumIndexMetrics(cfg workload.Config, numTraj int) (ditaBuild, erpBuild time.Duration, subtrajectories int) {
	e := newEnumCtx(cfg, numTraj)
	return e.ditaBuild, e.erpBuild, e.erp.Subtrajectories
}
