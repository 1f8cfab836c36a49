package experiments

import (
	"fmt"
	"time"

	"subtraj/internal/baselines"
	"subtraj/internal/core"
	"subtraj/internal/index"
	"subtraj/internal/verify"
	"subtraj/internal/workload"
)

// Tab4Breakdown reproduces Table 4: the decomposition of OSF-BT query time
// into MinCand computation, index lookup, and verification, under the
// default setting and the paper's variations. It measures the paper's
// candidate walk (verify.Options.CandidateWalk), not the word enumeration
// the engine runs for EDR by default.
func Tab4Breakdown(cfg workload.Config, opts Options) *Table {
	c := GetCtx(cfg, opts.Scale)
	const model = "EDR"
	t := &Table{
		ID:     "tab4",
		Title:  fmt.Sprintf("OSF-BT running time breakdown (ms/query), %s / %s", c.Cfg.Name, model),
		Header: []string{"setting", "MinCand", "Index lookup", "Verify", "verify %"},
		Notes:  []string{"paper shape: verification dominates (~99%); MinCand negligible."},
	}
	type setting struct {
		label string
		ratio float64
		qlen  int
	}
	settings := []setting{
		{"default (0.1, |Q|=60)", 0.1, opts.QueryLen},
		{"tau=0.2", 0.2, opts.QueryLen},
		{"tau=0.3", 0.3, opts.QueryLen},
		{"|Q|=20", 0.1, 20},
		{"|Q|=40", 0.1, 40},
	}
	for _, s := range settings {
		qlen := s.qlen
		if qlen > opts.QueryLen {
			qlen = opts.QueryLen
		}
		queries := c.Queries(model, qlen, opts.Queries, opts.Seed+int64(qlen))
		var minCand, lookup, ver time.Duration
		for _, q := range queries {
			tau := c.Tau(model, q, s.ratio)
			_, stats, err := c.Engine(model).SearchQuery(core.Query{Q: q, Tau: tau, Verify: paperWalk})
			if err != nil {
				panic(err)
			}
			minCand += stats.MinCandTime
			lookup += stats.LookupTime
			ver += stats.VerifyTime
		}
		totalAll := minCand + lookup + ver
		pct := "-"
		if totalAll > 0 {
			pct = fmt.Sprintf("%.1f", 100*float64(ver)/float64(totalAll))
		}
		t.Rows = append(t.Rows, []string{
			s.label,
			fmt.Sprintf("%.4f", ms(minCand, len(queries))),
			fmt.Sprintf("%.4f", ms(lookup, len(queries))),
			fmt.Sprintf("%.3f", ms(ver, len(queries))),
			pct,
		})
	}
	return t
}

func ms(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Microseconds()) / 1000 / float64(n)
}

// paperWalk is the paper's verification, the bidirectional walk of each
// candidate, which the tables of OSF-BT measure whatever the cost model.
var paperWalk = verify.Options{CandidateWalk: true}

// Tab5VerifyRates reproduces Table 5's UPR of the local verification (the
// paper's candidate walk), varying τ_ratio, |Q|, and dataset size; its
// notes say why the paper's CMR and TUR are not reported.
func Tab5VerifyRates(cfg workload.Config, opts Options) *Table {
	const model = "EDR"
	t := &Table{
		ID:     "tab5",
		Title:  "Verification rates (%), " + cfg.Name + " / " + model,
		Header: []string{"setting", "UPR"},
		Notes: []string{
			"UPR: DP columns surviving early termination vs full SW.",
			"CMR and TUR are not reported: no DP column is cached across candidates (DESIGN.md 1.4), so every surviving column is computed (CMR = 100%) and TUR = UPR.",
			"paper shape: UPR rises with tau_ratio and |Q|, falls with dataset size.",
		},
	}
	type setting struct {
		label string
		ratio float64
		qlen  int
		scale float64
	}
	settings := []setting{
		{"default (0.1, |Q|=60, 100%)", 0.1, opts.QueryLen, 1},
		{"tau=0.2", 0.2, opts.QueryLen, 1},
		{"tau=0.3", 0.3, opts.QueryLen, 1},
		{"|Q|=20", 0.1, 20, 1},
		{"|Q|=40", 0.1, 40, 1},
		{"25% data", 0.1, opts.QueryLen, 0.25},
		{"50% data", 0.1, opts.QueryLen, 0.5},
	}
	for _, s := range settings {
		c := GetCtx(cfg, opts.Scale*s.scale)
		qlen := s.qlen
		if qlen > opts.QueryLen {
			qlen = opts.QueryLen
		}
		queries := c.Queries(model, qlen, opts.Queries, opts.Seed+int64(qlen))
		var vs verify.Stats
		for _, q := range queries {
			tau := c.Tau(model, q, s.ratio)
			_, stats, err := c.Engine(model).SearchQuery(core.Query{Q: q, Tau: tau, Verify: paperWalk})
			if err != nil {
				panic(err)
			}
			vs.Add(stats.Verify)
		}
		t.Rows = append(t.Rows, []string{s.label, fmt.Sprintf("%.2f", 100*vs.UPR())})
	}
	return t
}

// Tab6IndexBuild reproduces Table 6: index construction time and size for
// the postings-list index (shared by OSF/DISON/Torch), the q-gram index,
// and — on a small fraction — the enumeration baselines.
func Tab6IndexBuild(cfgs []Ctx2, enumTraj int, opts Options) *Table {
	t := &Table{
		ID:     "tab6",
		Title:  "Index construction time / size",
		Header: []string{"dataset", "index", "build", "entries", "approx size"},
		Notes: []string{
			"postings size = the frozen arena, both list orders and the intervals; q-gram entry = one gram occurrence (8 B);",
			"DITA/ERP-index build on a small fraction only (enumeration explodes; Figure 9/10 discussion).",
		},
	}
	for _, cc := range cfgs {
		c := GetCtx(cc.Cfg, opts.Scale*cc.Scale)
		// Postings index: rebuild to time it (GetCtx may have cached it).
		// Its size is the arena's, departure order and intervals included:
		// what it holds in memory and what Compact.Save writes.
		start := time.Now()
		inv := index.Build(c.W.Data)
		postBuild := time.Since(start)
		t.Rows = append(t.Rows, []string{
			c.Cfg.Name, "postings (OSF/DISON/Torch)",
			postBuild.Round(time.Millisecond).String(),
			fmt.Sprint(inv.NumPostings()),
			byteSize(inv.IndexBytes()),
		})
		// q-gram index: build fresh so the timing is real (qgramFor
		// caches).
		start = time.Now()
		qg := baselines.NewQGramIndex(c.Model("EDR"), c.W.Data, 3)
		qgBuild := time.Since(start)
		t.Rows = append(t.Rows, []string{
			c.Cfg.Name, "q-gram (q=3)",
			qgBuild.Round(time.Millisecond).String(),
			fmt.Sprint(qg.Entries),
			byteSize(int64(qg.Entries) * 8),
		})
	}
	// Enumeration baselines on the first dataset, tiny fraction.
	if len(cfgs) > 0 && enumTraj > 0 {
		ditaBuild, erpBuild, subs := EnumIndexMetrics(cfgs[0].Cfg, enumTraj)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s (%d traj)", cfgs[0].Cfg.Name, enumTraj), "DITA (enumerated)",
			ditaBuild.Round(time.Millisecond).String(), fmt.Sprint(subs), byteSize(int64(subs) * 16),
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s (%d traj)", cfgs[0].Cfg.Name, enumTraj), "ERP-index (enumerated)",
			erpBuild.Round(time.Millisecond).String(), fmt.Sprint(subs), byteSize(int64(subs) * 32),
		})
	}
	return t
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
