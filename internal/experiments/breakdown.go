package experiments

import (
	"fmt"
	"time"

	"subtraj/internal/baselines"
	"subtraj/internal/core"
	"subtraj/internal/index"
	"subtraj/internal/workload"
)

// Tab4Breakdown reproduces Table 4: the decomposition of OSF-BT query time
// into MinCand computation, index lookup, and verification, under the
// default setting and the paper's variations.
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
			_, stats, err := c.Engine(model).SearchQuery(core.Query{Q: q, Tau: tau})
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

// Tab5VerifyRates reproduces Table 5: UPR, CMR, and TUR of the BT
// verification, varying τ_ratio, |Q|, and dataset size.
func Tab5VerifyRates(cfg workload.Config, opts Options) *Table {
	const model = "EDR"
	t := &Table{
		ID:     "tab5",
		Title:  "Verification rates (%), " + cfg.Name + " / " + model,
		Header: []string{"setting", "UPR", "CMR", "TUR"},
		Notes: []string{
			"UPR: DP columns surviving early termination vs full SW; CMR: StepDP calls vs surviving columns; TUR = UPR x CMR.",
			"paper shape: rates rise with tau_ratio and |Q|, fall with dataset size; TUR stays small.",
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
		var visited, available, stepped int64
		for _, q := range queries {
			tau := c.Tau(model, q, s.ratio)
			_, stats, err := c.Engine(model).SearchQuery(core.Query{Q: q, Tau: tau})
			if err != nil {
				panic(err)
			}
			visited += stats.Verify.ColumnsVisited
			available += stats.Verify.ColumnsAvailable
			stepped += stats.Verify.StepDPCalls
		}
		upr, cmr := 0.0, 0.0
		if available > 0 {
			upr = float64(visited) / float64(available)
		}
		if visited > 0 {
			cmr = float64(stepped) / float64(visited)
		}
		t.Rows = append(t.Rows, []string{
			s.label,
			fmt.Sprintf("%.2f", 100*upr),
			fmt.Sprintf("%.2f", 100*cmr),
			fmt.Sprintf("%.2f", 100*upr*cmr),
		})
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
			"postings entry = (id, pos) pair (8 B); q-gram entry = one gram occurrence;",
			"DITA/ERP-index build on a small fraction only (enumeration explodes; Figure 9/10 discussion).",
		},
	}
	for _, cc := range cfgs {
		c := GetCtx(cc.Cfg, opts.Scale*cc.Scale)
		// Postings index: rebuild to time it (GetCtx may have cached it).
		start := time.Now()
		inv := index.Build(c.W.Data)
		postBuild := time.Since(start)
		t.Rows = append(t.Rows, []string{
			c.Cfg.Name, "postings (OSF/DISON/Torch)",
			postBuild.Round(time.Millisecond).String(),
			fmt.Sprint(inv.NumPostings()),
			byteSize(int64(inv.NumPostings()) * 8),
		})
		// Compressed on-disk form: the compact arena, which Compact.Save
		// writes verbatim (temporal order included).
		t.Rows = append(t.Rows, []string{
			c.Cfg.Name, "postings (compressed, on disk)",
			"-", fmt.Sprint(inv.NumPostings()), byteSize(index.Freeze(inv).IndexBytes()),
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
