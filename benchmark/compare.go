package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer
// list; Bound is 0 for per-layer metrics, which are not gated.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads:
// the metric names it must emit and the bounds -compare applies.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// exactCounts are the per-layer counts that repeat exactly for equal
// inputs: the replay is in-process, sequential, and on the base dataset.
var exactCounts = map[string]bool{
	"filter.candidates_per_op": true,
	"wed.cells_per_op":         true,
	"verify.stepdp_per_op":     true,
}

// quartiles returns the first and third of Python's
// statistics.quantiles(xs, n=4) (exclusive method), the definition the
// acceptance rule for this benchmark uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	m := len(s)
	q := func(i int) float64 {
		j := max(1, min(i*(m+1)/4, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the run-to-run spread of one metric as a share of its
// median: the interquartile range from four values on, the full range
// for two or three, unknown (0) for a single value.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 || len(xs) < 2 {
		return 0
	}
	if len(xs) < 4 {
		return (slices.Max(xs) - slices.Min(xs)) / math.Abs(med)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

type runKey struct {
	workload, metric string
}

// collect groups a file's values by workload and metric, and notes the
// (workload, traced) runs during which the host changed speed.
func collect(f *resultFile) (map[runKey][]float64, map[runKey]bool) {
	vals := make(map[runKey][]float64)
	noisy := make(map[runKey]bool)
	for _, r := range f.Runs {
		for name, m := range r.Metrics {
			vals[runKey{r.Workload, name}] = append(vals[runKey{r.Workload, name}], m.Value)
		}
		if r.HostNoisy {
			noisy[runKey{r.Workload, fmt.Sprint(r.Trace)}] = true
		}
	}
	return vals, noisy
}

func sameInputs(a, b *resultFile) bool {
	if len(a.Header.InputHash) != len(b.Header.InputHash) {
		return false
	}
	for seed, h := range a.Header.InputHash {
		if b.Header.InputHash[seed] != h {
			return false
		}
	}
	return true
}

// compareFiles prints, per workload and metric, both medians, the ratio
// B÷A, the bound and a verdict, and returns non-zero if any end-to-end
// metric got worse by more than its bound or an exact count changed.
func compareFiles(pathA, pathB string, w io.Writer) int {
	spec, err := readBenchSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fa, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	va, noisyA := collect(fa)
	vb, noisyB := collect(fb)
	same := sameInputs(fa, fb)
	fmt.Fprintf(w, "A = %s (rev %s, seeds %v)\nB = %s (rev %s, seeds %v)\nratio = B ÷ A (base A); same inputs: %v\n",
		pathA, fa.Header.GitRev, fa.Header.Seeds, pathB, fb.Header.GitRev, fb.Header.Seeds, same)

	bad := 0
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		for _, side := range []struct {
			name  string
			noisy map[runKey]bool
		}{{"A", noisyA}, {"B", noisyB}} {
			if side.noisy[runKey{wl.Name, "true"}] {
				fmt.Fprintf(w, "  (host.noisy in %s's traced run: its per-layer times are unresolved)\n", side.name)
			}
		}
		fmt.Fprintf(w, "  %-30s %14s %14s %8s %7s  %s\n", "metric", "A", "B", "ratio", "bound", "verdict")
		row := func(ms metricSpec, gated bool) {
			a, b := va[runKey{wl.Name, ms.Name}], vb[runKey{wl.Name, ms.Name}]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "  %-30s %14s %14s %8s %7s  missing\n", ms.Name, "-", "-", "-", "-")
				bad++
				return
			}
			ma, mb := median(a), median(b)
			ratio := math.NaN()
			if ma != 0 {
				ratio = mb / ma
			}
			verdict, bound := "-", "-"
			switch {
			case gated:
				bound = fmt.Sprintf("%.0f%%", 100*ms.Bound)
				worse := (mb - ma) / math.Abs(ma)
				if ms.Better == "higher" {
					worse = -worse
				}
				switch {
				case spread(a) > ms.Bound || spread(b) > ms.Bound:
					verdict = fmt.Sprintf("unresolved (spread %.0f%% / %.0f%%)", 100*spread(a), 100*spread(b))
				case noisyA[runKey{wl.Name, "false"}] || noisyB[runKey{wl.Name, "false"}]:
					verdict = "unresolved (host.noisy)"
				case worse > ms.Bound:
					verdict = "worse"
					bad++
				default:
					verdict = "ok"
				}
			case exactCounts[ms.Name] && same:
				if ma == mb {
					verdict = "ok (exact)"
				} else {
					verdict = "differs (must repeat exactly)"
					bad++
				}
			}
			fmt.Fprintf(w, "  %-30s %14.4f %14.4f %8.3f %7s  %s\n", ms.Name, ma, mb, ratio, bound, verdict)
		}
		for _, ms := range spec.EndToEnd {
			row(ms, true)
		}
		for _, ms := range spec.PerLayer {
			row(ms, false)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d metric(s) worse, changed or missing\n", bad)
		return 1
	}
	fmt.Fprintln(w, "\nevery gated metric is within its bound")
	return 0
}
