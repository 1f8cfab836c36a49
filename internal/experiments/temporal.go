package experiments

import (
	"fmt"
	"sort"
	"time"

	"subtraj/internal/core"
	"subtraj/internal/setup"
	"subtraj/internal/wed"
)

// Fig12Temporal reproduces Figure 12: temporal filtering (TF: prune
// candidates by trajectory interval before verification) versus
// postprocessing only (no-TF), varying temporal selectivity.
func Fig12Temporal(cfgs []Ctx2, selectivities []float64, opts Options) *Table {
	t := &Table{
		ID:     "fig12",
		Title:  "Temporal constraint processing time (ms/query), EDR, tau_ratio=0.1",
		Header: []string{"dataset", "method"},
		Notes: []string{
			"selectivity s%: query window I = [ts_min, ts_s%] (departure-time quantile).",
			"paper shape: TF ~1 order of magnitude faster; gap grows as selectivity shrinks.",
		},
	}
	for _, s := range selectivities {
		t.Header = append(t.Header, fmt.Sprintf("TS=%.0f%%", s*100))
	}
	const model = "EDR"
	const ratio = 0.1
	for _, cc := range cfgs {
		c := GetCtx(cc.Cfg, opts.Scale*cc.Scale)
		queries := c.Queries(model, opts.QueryLen, opts.Queries, opts.Seed)
		// Departure-time quantiles over the dataset.
		deps := make([]float64, 0, c.W.Data.Len())
		for id := range c.W.Data.Trajs {
			d, _ := c.W.Data.Trajs[id].Departure()
			deps = append(deps, d)
		}
		sort.Float64s(deps)
		quantile := func(f float64) float64 {
			i := int(f * float64(len(deps)-1))
			return deps[i]
		}
		rowTF := []string{c.Cfg.Name, "TF"}
		rowNoTF := []string{c.Cfg.Name, "no-TF"}
		for _, s := range selectivities {
			lo, hi := deps[0], quantile(s)
			var tfTotal, noTFTotal time.Duration
			for _, q := range queries {
				tau := c.Tau(model, q, ratio)
				qr := core.Query{Q: q, Tau: tau}
				qr.Temporal.Mode = core.TemporalOverlap
				qr.Temporal.Lo, qr.Temporal.Hi = lo, hi

				start := time.Now()
				a, _, err := c.Engine(model).SearchQuery(qr)
				if err != nil {
					panic(err)
				}
				tfTotal += time.Since(start)

				qr.Temporal.DisablePrefilter = true
				start = time.Now()
				b, _, err := c.Engine(model).SearchQuery(qr)
				if err != nil {
					panic(err)
				}
				noTFTotal += time.Since(start)
				if len(a) != len(b) {
					panic(fmt.Sprintf("fig12: TF/no-TF disagree: %d vs %d", len(a), len(b)))
				}
			}
			rowTF = append(rowTF, msPerQuery(tfTotal, len(queries)))
			rowNoTF = append(rowNoTF, msPerQuery(noTFTotal, len(queries)))
		}
		t.Rows = append(t.Rows, rowTF, rowNoTF)
	}
	return t
}

// Fig13VaryEta reproduces Figure 13 (Appendix D): query time as the
// neighbourhood threshold η varies, for ERP and NetERP.
func Fig13VaryEta(cfgs []Ctx2, mults []float64, settings [][2]interface{}, opts Options) *Table {
	t := &Table{
		ID:     "fig13",
		Title:  "Query time vs eta (ms/query); eta scaled by median NN distance (ERP) / median road length (NetERP)",
		Header: []string{"dataset", "model", "(tau,|Q|)"},
		Notes: []string{
			"paper shape: small eta best overall; large eta explodes candidate generation.",
		},
	}
	for _, m := range mults {
		t.Header = append(t.Header, fmt.Sprintf("eta=%g", m))
	}
	for _, cc := range cfgs {
		c := GetCtx(cc.Cfg, opts.Scale*cc.Scale)
		// η = mult × the median NN distance (ERP) or road length
		// (NetERP). ERP's is scaled from the served η, so that mult = 1e-4
		// measures the model setup.Model builds, bit for bit.
		erpEta, medW := c.Net.DefaultERPEta(), c.W.Graph.MedianEdgeWeight()
		for _, sweep := range []struct {
			model string
			costs func(mult float64) wed.FilterCosts
		}{
			{"ERP", func(mult float64) wed.FilterCosts { return c.Net.ERP(mult / setup.ERPEtaScale * erpEta) }},
			{"NetERP", func(mult float64) wed.FilterCosts { return c.Net.NetERP(setup.NetERPGdel, mult*medW) }},
		} {
			for _, set := range settings {
				ratio := set[0].(float64)
				qlen := set[1].(int)
				queries := c.Queries(sweep.model, qlen, opts.Queries, opts.Seed+int64(qlen))
				row := []string{c.Cfg.Name, sweep.model, fmt.Sprintf("(%.1f,%d)", ratio, qlen)}
				for _, mult := range mults {
					costs := sweep.costs(mult)
					eng := core.NewEngineWithBackend(c.Data(sweep.model), c.Inv(sweep.model), costs)
					var total time.Duration
					ok := true
					for _, q := range queries {
						tau := ratio * core.SumFilterCost(costs, q)
						start := time.Now()
						_, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau})
						if err != nil {
							ok = false // tiny eta can make c(Q) < tau: infeasible
							break
						}
						total += time.Since(start)
					}
					if ok {
						row = append(row, msPerQuery(total, len(queries)))
					} else {
						row = append(row, "infeasible")
					}
				}
				t.Rows = append(t.Rows, row)
			}
		}
	}
	return t
}
