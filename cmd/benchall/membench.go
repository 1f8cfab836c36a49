package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"time"

	"subtraj/internal/core"
	"subtraj/internal/experiments"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// Memory snapshot mode (-membench N): instead of the table suite, measure
// the index-memory axis on two workloads — the SanFran-like road-network
// workload at -scale, and a synthetic N-trajectory stream of short paths
// (the "many small trajectories" regime where pointer-and-map overhead
// dominates postings). For each workload both backends are built, their
// footprints and bytes/trajectory recorded, the compact engine's results
// asserted bit-equal to the pointer engine's, and a pointer/compact
// latency pair timed. Written to BENCH_mem_<rev>.json.

type memSnapshot struct {
	Rev       string    `json:"rev"`
	Generated string    `json:"generated"`
	GoVersion string    `json:"go"`
	NumCPU    int       `json:"num_cpu"`
	Quick     bool      `json:"quick,omitempty"`
	Workloads []memWork `json:"workloads"`
}

type memWork struct {
	Name         string      `json:"name"`
	Trajectories int         `json:"trajectories"`
	Postings     int         `json:"postings"`
	Index        []perfIndex `json:"index"`
	Benchmarks   []perfBench `json:"benchmarks"`
}

// syntheticShort builds n short trajectories (24–56 symbols) over a
// 1000-symbol uniform alphabet with coarse timestamps — a city-core
// road network reused by a deep trip archive, the regime where posting
// lists are dense and the pointer index's 16 B/posting (main + temporal
// copies) is pure overhead.
func syntheticShort(n int, rng *rand.Rand) *traj.Dataset {
	const alpha = 1000
	ds := traj.NewDataset(traj.VertexRep)
	for i := 0; i < n; i++ {
		l := 24 + rng.Intn(33)
		p := make([]traj.Symbol, l)
		for j := range p {
			p[j] = traj.Symbol(rng.Intn(alpha))
		}
		start := float64(rng.Intn(86400))
		ts := make([]float64, l)
		for j := range ts {
			ts[j] = start + float64(j)*15
		}
		ds.Add(traj.Trajectory{Path: p, Times: ts})
	}
	return ds
}

// sampleSubpaths draws m query strings as random subpaths of the dataset.
func sampleSubpaths(ds *traj.Dataset, m, qlen int, rng *rand.Rand) [][]traj.Symbol {
	qs := make([][]traj.Symbol, 0, m)
	for len(qs) < m {
		p := ds.Path(int32(rng.Intn(ds.Len())))
		if len(p) < qlen {
			continue
		}
		s := rng.Intn(len(p) - qlen + 1)
		qs = append(qs, append([]traj.Symbol(nil), p[s:s+qlen]...))
	}
	return qs
}

// memMeasure builds both backends over ds (the compact one through the
// save→mmap loop), checks equivalence on the queries, and returns the
// filled memWork row.
func memMeasure(name string, ds *traj.Dataset, costs wed.FilterCosts, queries [][]traj.Symbol, tau func(q []traj.Symbol) float64, quick bool) (memWork, error) {
	w := memWork{Name: name, Trajectories: ds.Len()}
	fmt.Fprintf(os.Stderr, "[benchall] %s: building pointer index over %d trajectories...\n", name, ds.Len())
	engPtr := core.NewEngine(ds, costs)
	fmt.Fprintf(os.Stderr, "[benchall] %s: freezing compact arena...\n", name)
	engCmp, closeCmp, err := mappedCompactEngine(ds, costs)
	if err != nil {
		return w, err
	}
	defer closeCmp()
	w.Postings = engPtr.Backend().NumPostings()
	w.Index = indexRows(engPtr, engCmp)
	for i, q := range queries {
		qr := core.Query{Q: q, Tau: tau(q), Parallelism: 1}
		qt := qr
		qt.Temporal.Mode = core.TemporalDeparture
		qt.Temporal.Lo, qt.Temporal.Hi = 0, 1e12
		for _, query := range []core.Query{qr, qt} {
			a, _, err := engPtr.SearchQuery(query)
			if err != nil {
				return w, err
			}
			b, _, err := engCmp.SearchQuery(query)
			if err != nil {
				return w, err
			}
			if !reflect.DeepEqual(a, b) {
				return w, fmt.Errorf("%s: pointer and compact backends disagree on query %d", name, i)
			}
		}
	}
	for _, d := range []struct {
		bname string
		eng   *core.Engine
	}{{"Search/backend=pointer", engPtr}, {"Search/backend=compact", engCmp}} {
		fmt.Fprintf(os.Stderr, "[benchall] %s: %s...\n", name, d.bname)
		runOne := func(i int) (*core.QueryStats, error) {
			q := queries[i%len(queries)]
			_, st, err := d.eng.SearchQuery(core.Query{Q: q, Tau: tau(q), Parallelism: 1})
			return st, err
		}
		bench, err := measureBench(d.bname, quick, len(queries), runOne)
		if err != nil {
			return w, err
		}
		w.Benchmarks = append(w.Benchmarks, bench)
	}
	return w, nil
}

// writeMemBench runs the memory snapshot and writes BENCH_mem_<rev>.json.
func writeMemBench(n int, scale float64, qlen int, quick bool) error {
	const model = "EDR"
	const tauRatio = 0.1
	if quick {
		scale = min(scale, 0.05)
		n = min(n, 20000)
	}
	snap := memSnapshot{
		Rev:       gitRev(),
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Quick:     quick,
	}

	// Road-network workload: long trajectories, small alphabet reuse —
	// the regime the paper's experiments run in.
	c := experiments.GetCtx(workload.SanFranLike(), scale)
	costs := c.Model(model)
	queries := c.Queries(model, qlen, 8, 5)
	row, err := memMeasure(c.Cfg.Name, c.Data(model), costs, queries,
		func(q []traj.Symbol) float64 { return c.Tau(model, q, tauRatio) }, quick)
	if err != nil {
		return err
	}
	snap.Workloads = append(snap.Workloads, row)

	// Synthetic stream: n short trajectories. Lev costs (alphabet-
	// agnostic); τ scaled to the query's own length.
	rng := rand.New(rand.NewSource(42))
	fmt.Fprintf(os.Stderr, "[benchall] generating %d synthetic trajectories...\n", n)
	sds := syntheticShort(n, rng)
	lev := wed.NewLev()
	sq := sampleSubpaths(sds, 8, 8, rng)
	row, err = memMeasure(fmt.Sprintf("synthetic-%d", n), sds, lev, sq,
		func(q []traj.Symbol) float64 { return tauRatio * core.SumFilterCost(lev, q) }, quick)
	if err != nil {
		return err
	}
	snap.Workloads = append(snap.Workloads, row)

	path := "BENCH_mem_" + snap.Rev + ".json"
	if quick {
		path = "BENCH_mem_quick.json"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, w := range snap.Workloads {
		for _, r := range w.Index {
			fmt.Printf("%-18s %-8s %12d bytes  %8.1f bytes/traj", w.Name, r.Backend, r.IndexBytes, r.BytesPerTrajectory)
			if r.ReductionVsPointer > 0 {
				fmt.Printf("  %.2fx smaller", r.ReductionVsPointer)
			}
			fmt.Println()
		}
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
