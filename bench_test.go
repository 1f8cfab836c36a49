// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6) at a reduced, laptop-friendly scale, plus
// micro-benchmarks of the hot kernels. Each Benchmark<ID> target
// corresponds to the experiment of the same ID in DESIGN.md §2; the full
// paper-style tables are printed by cmd/benchall.
//
//	go test -bench=. -benchmem
//
// Benchmark results measure our reproduction, not the paper's hardware;
// the experiment drivers preserve the paper's relative shapes (who wins,
// scaling slopes), which DESIGN.md §2 records.
package subtraj_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"subtraj"
	"subtraj/internal/core"
	"subtraj/internal/experiments"
	"subtraj/internal/filter"
	"subtraj/internal/index"
	"subtraj/internal/setup"
	"subtraj/internal/spatial"
	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

func benchOpts() experiments.Options { return experiments.Quick() }

func benchDatasets() []experiments.Ctx2 {
	// One mid-size dataset keeps each figure benchmark in seconds; the
	// full four-dataset grid lives in cmd/benchall.
	return []experiments.Ctx2{{Cfg: workload.BeijingLike(), Scale: 1}}
}

func sink(tb *experiments.Table) {
	tb.Format(io.Discard)
}

// --- One benchmark per paper table/figure -------------------------------

func BenchmarkFig4TravelTimeRMSE(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Fig4TravelTime(workload.BeijingLike(), []float64{0, 0.1}, 4, opts))
	}
}

func BenchmarkTable3SubVsWhole(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Tab3SubVsWhole(workload.BeijingLike(), []int{5, 10}, 4, opts))
	}
}

func BenchmarkFig5Naturalness(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Fig5Naturalness(workload.BeijingLike(), []int{20}, []float64{0.1, 0.3}, 2, opts))
	}
}

func BenchmarkFig6VaryTau(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Fig6VaryTau(benchDatasets(), setup.Models, []float64{0.1, 0.2, 0.3}, opts))
	}
}

func BenchmarkFig7VaryQueryLen(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Fig7VaryQueryLen(benchDatasets(), []string{"EDR", "SURS"}, []int{20, 40, 60}, opts))
	}
}

func BenchmarkFig8VaryDatasetSize(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Fig8VaryDatasetSize(benchDatasets(), []string{"EDR", "SURS"}, []float64{0.25, 0.5, 1}, opts))
	}
}

func BenchmarkFig9EnumBaselinesTau(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Fig9EnumBaselinesTau(workload.BeijingLike(), 60, []float64{0.1, 0.2}, opts))
	}
}

func BenchmarkFig10EnumBaselinesSize(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Fig10EnumBaselinesSize(workload.BeijingLike(), []int{40, 60, 80}, opts))
	}
}

func BenchmarkFig11CandidateCounts(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Fig11CandidateCounts(workload.BeijingLike(), setup.Models,
			[]float64{0.1, 0.2, 0.3}, []int{20, 40}, opts))
	}
}

func BenchmarkFig12TemporalSelectivity(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Fig12Temporal(benchDatasets(), []float64{0.01, 0.05, 0.1}, opts))
	}
}

func BenchmarkFig13VaryEta(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Fig13VaryEta(benchDatasets(), []float64{1e-4, 1e-2, 1},
			[][2]interface{}{{0.1, opts.QueryLen}}, opts))
	}
}

func BenchmarkTable4Breakdown(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Tab4Breakdown(workload.BeijingLike(), opts))
	}
}

func BenchmarkTable5VerifyRates(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Tab5VerifyRates(workload.BeijingLike(), opts))
	}
}

func BenchmarkTable6IndexBuild(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		sink(experiments.Tab6IndexBuild(benchDatasets(), 60, opts))
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out --------

// BenchmarkAblationVerifyModes isolates local vs SW verification on
// identical candidates (the §5 ablation), with the word enumeration the
// engine runs for EDR by default beside them.
func BenchmarkAblationVerifyModes(b *testing.B) {
	c := experiments.GetCtx(workload.BeijingLike(), 0.12)
	queries := c.Queries("EDR", 60, 5, 3)
	for _, mode := range []struct {
		name string
		subtraj.VerifyOptions
	}{
		{"Words", subtraj.VerifyOptions{}},
		{"Local", subtraj.VerifyOptions{CandidateWalk: true}},
		{"SW", subtraj.VerifyOptions{Mode: subtraj.VerifySW}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			eng := c.Engine("EDR")
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				tau := c.Tau("EDR", q, 0.1)
				if _, _, err := eng.SearchQuery(coreQuery(q, tau, mode.VerifyOptions)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEarlyTermination measures the Eq. 11 cut of the
// paper's candidate walk.
func BenchmarkAblationEarlyTermination(b *testing.B) {
	c := experiments.GetCtx(workload.BeijingLike(), 0.12)
	queries := c.Queries("EDR", 60, 5, 3)
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			eng := c.Engine("EDR")
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				tau := c.Tau("EDR", q, 0.1)
				opts := subtraj.VerifyOptions{CandidateWalk: true, DisableEarlyTermination: tc.disable}
				if _, _, err := eng.SearchQuery(coreQuery(q, tau, opts)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the hot kernels ---------------------------------

func BenchmarkKernelWEDDist(b *testing.B) {
	env := testutil.NewEnv(1, 10, 64)
	m := env.Models()[1] // EDR
	p := env.RandomString(m, 100)
	q := env.RandomString(m, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wed.Dist(m.Costs, p, q)
	}
}

func BenchmarkKernelStepDP(b *testing.B) {
	env := testutil.NewEnv(2, 10, 64)
	m := env.Models()[1]
	q := env.RandomString(m, 60)
	col := make([]float64, len(q)+1)
	dst := make([]float64, len(q)+1)
	sym := env.RandomString(m, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wed.StepDP(m.Costs, q, sym, col, dst)
	}
}

// BenchmarkKernel reports the DP column kernels in ns per computed cell
// (experiments.KernelReplay): rows is what verification runs, interface
// the wed.Costs-dispatch reference it is tested against, floor a
// hand-written three-way-min loop — ROADMAP 2a's yardstick is rows within
// 2× of floor.
func BenchmarkKernel(b *testing.B) {
	c := experiments.GetCtx(workload.SanFranLike(), 0.1)
	k := experiments.NewKernelReplay(c.Model("EDR"), c.Queries("EDR", 60, 8, 5),
		func(q []traj.Symbol) float64 { return c.Tau("EDR", q, 0.1) })
	for _, kern := range k.Kernels() {
		b.Run(kern.Name, func(b *testing.B) {
			cells := 0
			for i := 0; i < b.N; i++ {
				cells += kern.Pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
		})
	}
}

func BenchmarkKernelMinCand(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 60
	nq := make([]float64, n)
	cs := make([]float64, n)
	var total float64
	for i := range nq {
		nq[i] = float64(rng.Intn(1000))
		cs[i] = rng.Float64()*3 + 0.1
		total += cs[i]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filter.MinCand(nq, cs, total*0.3)
	}
}

func BenchmarkKernelKDTreeRange(b *testing.B) {
	w := workload.Generate(workload.BeijingLike().Scale(0.05))
	tree := spatial.Build(w.Graph.Coords())
	b.ReportAllocs()
	b.ResetTimer()
	var buf []int32
	for i := 0; i < b.N; i++ {
		buf = tree.Range(w.Graph.Coord(int32(i%w.Graph.NumVertices())), 150, buf[:0])
	}
}

func BenchmarkKernelHubLabelQuery(b *testing.B) {
	c := experiments.GetCtx(workload.BeijingLike(), 0.12)
	h := c.Net.HubLabels()
	n := uint64(c.W.Graph.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Query(int32(uint64(i)%n), int32(uint64(i)*7919%n))
	}
}

func BenchmarkKernelIndexBuild(b *testing.B) {
	w := workload.Generate(workload.BeijingLike().Scale(0.05))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Build(w.Data)
	}
}

func BenchmarkKernelSmithWaterman(b *testing.B) {
	env := testutil.NewEnv(4, 10, 100)
	m := env.Models()[1]
	p := env.RandomString(m, 100)
	q := env.RandomString(m, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wed.SmithWaterman(m.Costs, q, p)
	}
}

// BenchmarkSearchPerQuery reports steady-state per-query latency of
// OSF-BT for each cost model on the Beijing-like workload — the headline
// quantity of Figure 6's OSF-BT lines.
func BenchmarkSearchPerQuery(b *testing.B) {
	c := experiments.GetCtx(workload.BeijingLike(), 0.12)
	for _, model := range setup.Models {
		model := model
		b.Run(model, func(b *testing.B) {
			eng := c.Engine(model)
			queries := c.Queries(model, 60, 8, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				tau := c.Tau(model, q, 0.1)
				if _, err := eng.Search(q, tau); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSearch measures the intra-query fan-out on the largest
// synthetic workload (SanFran-like): one engine, each query run under a
// Parallelism cap of N at τ_ratio 0.1 (the paper's default) and 0.3
// (benchmark/'s search_wide), so workers=1 is the sequential baseline the
// speedups are measured against. The cap is not a command — the engine
// uses fewer workers for a query whose estimated work is small — and the
// reported workers/op is what it used. The gated counterparts are
// benchmark/'s core.search_ms, core.search_par_ms and core.par_speedup;
// a speedup only materialises with ≥N idle CPUs.
func BenchmarkParallelSearch(b *testing.B) {
	c := experiments.GetCtx(workload.SanFranLike(), 0.1)
	eng := core.NewEngine(c.Data("EDR"), c.Model("EDR"))
	queries := c.Queries("EDR", 60, 8, 5)
	for _, ratio := range []float64{0.1, 0.3} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("tau=%g/workers=%d", ratio, workers), func(b *testing.B) {
				used := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := queries[i%len(queries)]
					tau := c.Tau("EDR", q, ratio)
					_, st, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: workers})
					if err != nil {
						b.Fatal(err)
					}
					used += st.Workers
				}
				b.ReportMetric(float64(used)/float64(b.N), "workers/op")
			})
		}
	}
}

// BenchmarkTopK measures the best-first top-k driver in process on the
// SanFran-like city at scale 0.1, |Q| = 30, one queue worker, under the
// unit-cost models' word scan (EDR, NetEDR) and the float scan (ERP,
// NetERP, SURS): model=EDR is the in-process counterpart of benchmark/'s
// topk_k10 and core.topk_ms. cells/op and columns/op are the verifier's
// work per query — a word column of the unit-cost scan books |Q| + 1
// cells, as a float column at full width does — and verified/op the
// trajectories it scanned.
func BenchmarkTopK(b *testing.B) {
	c := experiments.GetCtx(workload.SanFranLike(), 0.1)
	for _, model := range []string{"EDR", "NetEDR", "ERP", "NetERP", "SURS"} {
		eng := core.NewEngine(c.Data(model), c.Model(model))
		queries := c.Queries(model, 30, 8, 5)
		for _, k := range []int{1, 10} {
			b.Run(fmt.Sprintf("model=%s/k=%d", model, k), func(b *testing.B) {
				var cells, columns, verified int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st, err := eng.SearchTopKStats(queries[i%len(queries)], k, core.TopKOptions{Parallelism: 1})
					if err != nil {
						b.Fatal(err)
					}
					cells += st.Verify.CellsComputed
					columns += st.Verify.ColumnsVisited
					verified += int64(st.TrajVerified)
				}
				b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
				b.ReportMetric(float64(columns)/float64(b.N), "columns/op")
				b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
			})
		}
	}
}

func coreQuery(q []traj.Symbol, tau float64, v subtraj.VerifyOptions) core.Query {
	return core.Query{Q: q, Tau: tau, Verify: v}
}
