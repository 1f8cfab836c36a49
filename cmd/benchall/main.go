// Command benchall reproduces the paper's §6 evaluation — every table and
// figure — and prints paper-style tables. Results go to stdout; progress
// to stderr. It is not the performance gate: speed claims are measured by
// benchmark/ (see benchmark/README.md) and the Go benchmarks in
// bench_test.go.
//
// Usage:
//
//	benchall [-scale 0.3] [-queries 5] [-qlen 60] [-only fig6,tab4] [-quick]
//
// -scale multiplies every dataset's trajectory count (1.0 ≈ tens of
// thousands of trajectories; the default keeps a full run in minutes).
// -only takes experiment IDs (fig4…fig13, tab3…tab6); an ID that names no
// experiment is an error.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"subtraj/internal/experiments"
	"subtraj/internal/setup"
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
	)
	flag.Parse()

	opts := experiments.Options{Scale: *scale, Queries: *queries, QueryLen: *qlen, Seed: *seed}
	if *quick {
		opts = experiments.Quick()
	}
	jobs, err := selectJobs(suite(opts), *only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("subtraj experiment suite — scale=%.2f queries=%d |Q|=%d seed=%d\n\n",
		opts.Scale, opts.Queries, opts.QueryLen, opts.Seed)
	for _, j := range jobs {
		fmt.Fprintf(os.Stderr, "[benchall] running %s...\n", j.id)
		start := time.Now()
		tb := j.fn()
		fmt.Fprintf(os.Stderr, "[benchall] %s done in %s\n", j.id, time.Since(start).Round(time.Millisecond))
		tb.Format(os.Stdout)
	}
}

// job is one experiment of the suite: a table or figure of §6.
type job struct {
	id string
	fn func() *experiments.Table
}

// selectJobs returns the jobs named by the comma-separated -only value, in
// suite order, or all of them when it is empty. An ID that names no
// experiment is an error listing the valid ones.
func selectJobs(all []job, only string) ([]job, error) {
	if strings.TrimSpace(only) == "" {
		return all, nil
	}
	valid := make([]string, len(all))
	for i, j := range all {
		valid[i] = j.id
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("-only: no experiment named %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	var picked []job
	for _, j := range all {
		if want[j.id] {
			picked = append(picked, j)
		}
	}
	return picked, nil
}

// suite lists every experiment in the paper's order.
func suite(opts experiments.Options) []job {
	datasets := experiments.DefaultDatasets()
	small := []experiments.Ctx2{datasets[0]} // Beijing-like, for single-dataset tables
	enumTraj := int(200 * opts.Scale * 10)   // the "5,000 trajectory" fraction, scaled

	return []job{
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
			return experiments.Fig6VaryTau(datasets, setup.Models,
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
			return experiments.Fig11CandidateCounts(workload.BeijingLike(), setup.Models,
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
}
