// Command benchall runs the full experiment suite — every table and
// figure of the paper's §6 — and prints paper-style tables. Results go to
// stdout; progress to stderr.
//
// Usage:
//
//	benchall [-scale 0.3] [-queries 5] [-qlen 60] [-only fig6,tab4] [-quick]
//	benchall -json [-scale 0.3] [-qlen 60] [-quick]
//	benchall -membench 1000000 [-scale 1.0] [-quick]
//
// -scale multiplies every dataset's trajectory count (1.0 ≈ tens of
// thousands of trajectories; the default keeps a full run in minutes).
// -json skips the table suite and instead snapshots the
// parallel-search sweep into BENCH_<rev>.json (see perfsnap.go), the
// machine-readable perf trajectory of the query engine; -json -quick is
// the CI smoke variant (one iteration per configuration, written to
// BENCH_quick.json, no stable timings). -membench N measures the
// index-memory axis (see membench.go): pointer vs compact footprint and
// latency on the SanFran-like workload at -scale plus a synthetic
// N-trajectory stream, written to BENCH_mem_<rev>.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"subtraj/internal/experiments"
	"subtraj/internal/workload"
)

func main() {
	var (
		scale   = flag.Float64("scale", 0.3, "dataset scale factor")
		queries = flag.Int("queries", 5, "queries per data point")
		qlen    = flag.Int("qlen", 60, "default query length |Q|")
		only    = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		quick   = flag.Bool("quick", false, "tiny quick run (overrides scale/queries/qlen)")
		seed    = flag.Int64("seed", 1, "query sampling seed")
		jsonOut = flag.Bool("json", false, "run the parallel-search sweep and write a BENCH_<rev>.json perf snapshot instead of the table suite")
		membench = flag.Int("membench", 0, "run the index-memory snapshot (SanFran at -scale plus a synthetic N-trajectory stream) and write BENCH_mem_<rev>.json")
	)
	flag.Parse()

	if *membench > 0 {
		if err := writeMemBench(*membench, *scale, *qlen, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		if err := writePerfSnapshot(*scale, *qlen, 0.1, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
			os.Exit(1)
		}
		return
	}

	opts := experiments.Options{Scale: *scale, Queries: *queries, QueryLen: *qlen, Seed: *seed}
	if *quick {
		opts = experiments.Quick()
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }

	datasets := experiments.DefaultDatasets()
	small := []experiments.Ctx2{datasets[0]} // Beijing-like, for single-dataset tables
	enumTraj := int(200 * opts.Scale * 10)   // the "5,000 trajectory" fraction, scaled

	type job struct {
		id string
		fn func() *experiments.Table
	}
	jobs := []job{
		{"fig4", func() *experiments.Table {
			return experiments.Fig4TravelTime(workload.BeijingLike(),
				[]float64{0, 0.05, 0.1, 0.15, 0.2}, 8*opts.Queries, opts)
		}},
		{"tab3", func() *experiments.Table {
			return experiments.Tab3SubVsWhole(workload.BeijingLike(),
				[]int{5, 10, 15, 20, 25}, 8*opts.Queries, opts)
		}},
		{"fig5", func() *experiments.Table {
			return experiments.Fig5Naturalness(workload.BeijingLike(),
				[]int{40, 50, 60}, []float64{0.05, 0.15, 0.3}, opts.Queries, opts)
		}},
		{"fig6", func() *experiments.Table {
			return experiments.Fig6VaryTau(datasets, experiments.ModelNames,
				[]float64{0.1, 0.2, 0.3}, opts)
		}},
		{"fig7", func() *experiments.Table {
			return experiments.Fig7VaryQueryLen(datasets, []string{"EDR", "ERP", "SURS"},
				[]int{20, 40, 60, 80}, opts)
		}},
		{"fig8", func() *experiments.Table {
			return experiments.Fig8VaryDatasetSize(datasets, []string{"EDR", "ERP", "SURS"},
				[]float64{0.25, 0.5, 0.75, 1}, opts)
		}},
		{"fig9", func() *experiments.Table {
			return experiments.Fig9EnumBaselinesTau(workload.BeijingLike(), enumTraj,
				[]float64{0.05, 0.1, 0.15, 0.2}, opts)
		}},
		{"fig10", func() *experiments.Table {
			return experiments.Fig10EnumBaselinesSize(workload.BeijingLike(),
				[]int{enumTraj / 2, enumTraj, enumTraj * 3 / 2}, opts)
		}},
		{"fig11", func() *experiments.Table {
			return experiments.Fig11CandidateCounts(workload.BeijingLike(), experiments.ModelNames,
				[]float64{0.1, 0.2, 0.3}, []int{20, 40, 60}, opts)
		}},
		{"fig12", func() *experiments.Table {
			return experiments.Fig12Temporal(small, []float64{0.01, 0.02, 0.05, 0.1}, opts)
		}},
		{"fig13", func() *experiments.Table {
			// The paper sweeps η up to 100×; beyond ~10× the candidate
			// explosion already dominates (the figure's message) and
			// runtime becomes impractical, so the sweep stops there.
			fig13 := opts
			fig13.Queries = min(2, opts.Queries)
			return experiments.Fig13VaryEta(small,
				[]float64{1e-4, 1e-2, 1, 10},
				[][2]interface{}{{0.1, opts.QueryLen}, {0.3, opts.QueryLen}, {0.1, 40}}, fig13)
		}},
		{"tab4", func() *experiments.Table {
			return experiments.Tab4Breakdown(workload.BeijingLike(), opts)
		}},
		{"tab5", func() *experiments.Table {
			return experiments.Tab5VerifyRates(workload.BeijingLike(), opts)
		}},
		{"tab6", func() *experiments.Table {
			return experiments.Tab6IndexBuild(datasets, enumTraj, opts)
		}},
	}

	fmt.Printf("subtraj experiment suite — scale=%.2f queries=%d |Q|=%d seed=%d\n\n",
		opts.Scale, opts.Queries, opts.QueryLen, opts.Seed)
	for _, j := range jobs {
		if !run(j.id) {
			continue
		}
		fmt.Fprintf(os.Stderr, "[benchall] running %s...\n", j.id)
		start := time.Now()
		tb := j.fn()
		fmt.Fprintf(os.Stderr, "[benchall] %s done in %s\n", j.id, time.Since(start).Round(time.Millisecond))
		tb.Format(os.Stdout)
	}
}
