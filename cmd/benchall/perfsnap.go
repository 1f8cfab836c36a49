package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subtraj/internal/core"
	"subtraj/internal/experiments"
	"subtraj/internal/geo"
	"subtraj/internal/index"
	"subtraj/internal/mapmatch"
	"subtraj/internal/server"
	"subtraj/internal/traj"
	"subtraj/internal/wal"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// workloadGPSConfig is the snapshot's trace-synthesis setting: σ=10 m
// samples every 50 m, no dropouts — the acceptance configuration under
// which matched queries recover their ground truth.
func workloadGPSConfig() workload.GPSConfig {
	return workload.GPSConfig{NoiseSigma: 10, SampleSpacing: 50}
}

// Perf snapshot mode (-json): instead of the paper-table suite, run the
// parallel-search sweep (the BenchmarkParallelSearch shape from
// bench_test.go) and write a machine-readable BENCH_<rev>.json, so the
// repository accumulates a perf trajectory commit over commit. Snapshots
// record the hardware (NumCPU/GOMAXPROCS) because fan-out speedups are
// hardware-bound: on a single-CPU machine every worker count collapses to
// ~1× by construction.
//
// With -quick the sweep degrades to a one-iteration smoke run (each
// configuration executes a single query, timed once): no stable numbers,
// but CI proves the snapshot pipeline itself — workload build, query
// sampling, stats collection, JSON schema — cannot silently rot.

type perfSnapshot struct {
	Rev        string      `json:"rev"`
	Generated  string      `json:"generated"`
	GoVersion  string      `json:"go"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Quick      bool        `json:"quick,omitempty"`
	Workload   perfWork    `json:"workload"`
	// Index records the footprint of each index backend over the
	// snapshot's workload — the memory axis next to the latency axis.
	Index      []perfIndex `json:"index"`
	Benchmarks []perfBench `json:"benchmarks"`
}

// perfIndex is one backend's memory row: the exact arena size for the
// compact backend, a heap estimate for the pointer backend.
type perfIndex struct {
	Backend            string  `json:"backend"`
	IndexBytes         int64   `json:"index_bytes"`
	BytesPerTrajectory float64 `json:"bytes_per_trajectory"`
	// ReductionVsPointer is pointer bytes ÷ this backend's bytes (compact
	// rows only) — the headline memory ratio.
	ReductionVsPointer float64 `json:"reduction_vs_pointer,omitempty"`
}

// indexRows measures the two engines' footprints against the dataset
// size. Both backends are forced to full temporal capability first: the
// pointer index builds its departure-sorted orders lazily, and comparing
// it pre-build against the compact arena (which always carries the
// frozen temporal lists) would flatter the pointer side.
func indexRows(ptr, cmp *core.Engine) []perfIndex {
	ptr.PrepareTemporal()
	cmp.PrepareTemporal()
	n := float64(ptr.Dataset().Len())
	pb, cb := ptr.IndexBytes(), cmp.IndexBytes()
	rows := []perfIndex{
		{Backend: "pointer", IndexBytes: pb, BytesPerTrajectory: float64(pb) / n},
		{Backend: "compact", IndexBytes: cb, BytesPerTrajectory: float64(cb) / n},
	}
	if cb > 0 {
		rows[1].ReductionVsPointer = float64(pb) / float64(cb)
	}
	return rows
}

type perfWork struct {
	Name         string  `json:"name"`
	Trajectories int     `json:"trajectories"`
	Model        string  `json:"model"`
	QueryLen     int     `json:"query_len"`
	TauRatio     float64 `json:"tau_ratio"`
}

type perfBench struct {
	Name    string `json:"name"`
	NsPerOp int64  `json:"ns_per_op"`
	// P50/P95/P99NsPerOp are exact percentiles over the timed iterations'
	// individual durations (testing.Benchmark only reports the mean, which
	// a single slow outlier can dominate). Omitted in -quick snapshots —
	// one iteration has no distribution.
	P50NsPerOp int64 `json:"p50_ns_per_op,omitempty"`
	P95NsPerOp int64 `json:"p95_ns_per_op,omitempty"`
	P99NsPerOp int64 `json:"p99_ns_per_op,omitempty"`
	// AllocsPerOp/BytesPerOp are omitted in -quick snapshots (a single
	// timed iteration measures no allocation statistics).
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	// SpeedupVsSequential is ns/op(workers=1) ÷ ns/op(this run); omitted
	// for the top-k configurations, which are all sequential.
	SpeedupVsSequential float64 `json:"speedup_vs_sequential,omitempty"`
	// CellsComputed/CellsAvailable are the per-op cell counters of the
	// τ-banded verification (averaged over the benchmark's iterations);
	// BandRatio is their quotient — the fraction of DP-cell work the
	// band retains versus full-width columns.
	CellsComputed  int64   `json:"cells_computed"`
	CellsAvailable int64   `json:"cells_available"`
	BandRatio      float64 `json:"band_ratio"`
	// NsPerCell (Kernel/* entries) is time per DP cell the kernel
	// computed; ns_per_op there is one pass over the replayed chains and
	// cells_computed the cells of that pass.
	NsPerCell float64 `json:"ns_per_cell,omitempty"`
	// TrajVerified (the top-k configuration only) is the number of
	// trajectories the best-first driver verified per query.
	TrajVerified int64 `json:"traj_verified,omitempty"`
	// Accuracy (GPS configurations only) is the mean LCS accuracy of the
	// map-matched paths against their ground-truth query symbols.
	Accuracy float64 `json:"accuracy,omitempty"`
	// OverheadVsSymbols, on the GPS/match+search entry, is
	// ns/op(match+search) ÷ ns/op(symbols-only) — the end-to-end cost of
	// accepting raw GPS instead of symbols.
	OverheadVsSymbols float64 `json:"overhead_vs_symbols,omitempty"`
	// AppendsPerSec (DurableAppend configurations) is the headline ingest
	// throughput: 1e9 / ns_per_op.
	AppendsPerSec float64 `json:"appends_per_sec,omitempty"`
	// OverheadVsVolatile, on the durable DurableAppend entries, is
	// ns/op(this sync policy) ÷ ns/op(volatile) — the price of the WAL.
	OverheadVsVolatile float64 `json:"overhead_vs_volatile,omitempty"`
	// DeadlineNs/DeadlineExceeded (the TopK cancellation entry) record the
	// context deadline and whether the query was actually cut short by it
	// (false means the query finished inside the deadline). NsPerOp on
	// that entry is the observed return latency, asserted ≤ 2× deadline
	// before the snapshot is written.
	DeadlineNs       int64 `json:"deadline_ns,omitempty"`
	DeadlineExceeded bool  `json:"deadline_exceeded,omitempty"`
}

// perfWorkerCounts is the sweep of BenchmarkParallelSearch: Parallelism
// caps over one engine.
var perfWorkerCounts = []int{1, 2, 4, 8}

// writePerfSnapshot runs the sweep on the largest synthetic workload and
// writes BENCH_<rev>.json in the current directory.
func writePerfSnapshot(scale float64, qlen int, tauRatio float64, quick bool) error {
	const model = "EDR"
	if quick {
		scale = min(scale, 0.05)
	}
	c := experiments.GetCtx(workload.SanFranLike(), scale)
	costs := c.Model(model)
	queries := c.Queries(model, qlen, 8, 5)

	snap := perfSnapshot{
		Rev:        gitRev(),
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Workload: perfWork{
			Name:         c.Cfg.Name,
			Trajectories: c.W.Data.Len(),
			Model:        model,
			QueryLen:     qlen,
			TauRatio:     tauRatio,
		},
	}

	var seqNs int64
	eng := core.NewEngine(c.Data(model), costs)
	for _, workers := range perfWorkerCounts {
		fmt.Fprintf(os.Stderr, "[benchall] ParallelSearch/workers=%d...\n", workers)
		runOne := func(i int) (*core.QueryStats, error) {
			q := queries[i%len(queries)]
			tau := c.Tau(model, q, tauRatio)
			_, st, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: workers})
			return st, err
		}
		bench, err := measureBench(fmt.Sprintf("ParallelSearch/workers=%d", workers), quick, len(queries), runOne)
		if err != nil {
			return err
		}
		if workers == 1 {
			seqNs = bench.NsPerOp
		}
		if bench.NsPerOp > 0 && seqNs > 0 {
			bench.SpeedupVsSequential = float64(seqNs) / float64(bench.NsPerOp)
		}
		snap.Benchmarks = append(snap.Benchmarks, bench)
	}

	// DP kernels in isolation (ROADMAP 2a): the compiled-row kernel
	// verification runs, the interface-dispatch reference, and a
	// hand-written three-way-min floor, per computed cell.
	replay := experiments.NewKernelReplay(costs, queries,
		func(q []traj.Symbol) float64 { return c.Tau(model, q, tauRatio) })
	for _, kern := range replay.Kernels() {
		snap.Benchmarks = append(snap.Benchmarks, kernelBench(kern, quick))
	}

	// Backend pair: the identical queries on the pointer index versus
	// the compact arena — served through a full persistence
	// loop (freeze → save → OpenMapped), so the measured latency is the
	// real mmap-backed decode cost and the loop itself is smoke-tested on
	// every -quick CI run. Results are asserted bit-equal before timing;
	// the Index section records the memory side of the trade.
	engTopK := core.NewEngine(c.Data(model), costs)
	engCmp, closeCmp, err := mappedCompactEngine(c.Data(model), costs)
	if err != nil {
		return err
	}
	defer closeCmp()
	for i, q := range queries {
		qr := core.Query{Q: q, Tau: c.Tau(model, q, tauRatio), Parallelism: 1}
		a, _, err := engTopK.SearchQuery(qr)
		if err != nil {
			return err
		}
		b, _, err := engCmp.SearchQuery(qr)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("pointer and compact backends disagree on query %d", i)
		}
	}
	snap.Index = indexRows(engTopK, engCmp)
	for _, d := range []struct {
		name string
		eng  *core.Engine
	}{{"Search/backend=pointer", engTopK}, {"Search/backend=compact", engCmp}} {
		fmt.Fprintf(os.Stderr, "[benchall] %s...\n", d.name)
		runOne := func(i int) (*core.QueryStats, error) {
			q := queries[i%len(queries)]
			_, st, err := d.eng.SearchQuery(core.Query{Q: q, Tau: c.Tau(model, q, tauRatio), Parallelism: 1})
			return st, err
		}
		bench, err := measureBench(d.name, quick, len(queries), runOne)
		if err != nil {
			return err
		}
		snap.Benchmarks = append(snap.Benchmarks, bench)
	}

	// Top-k configuration (k = 10), sequential (Parallelism 1) so the
	// number is the driver's own work with no hardware
	// parallelism mixed in. Fixed op count (one full query rotation): the
	// mean must cover the whole query set, not however many queries fit
	// testing.Benchmark's 1 s target.
	const topkK = 10
	fmt.Fprintf(os.Stderr, "[benchall] TopK/k=%d...\n", topkK)
	bench, err := measureFixed(fmt.Sprintf("TopK/k=%d", topkK), quick, len(queries), func(i int) (*core.QueryStats, error) {
		_, st, err := engTopK.SearchTopKStats(queries[i%len(queries)], topkK, core.TopKOptions{Parallelism: 1})
		return st, err
	})
	if err != nil {
		return err
	}
	snap.Benchmarks = append(snap.Benchmarks, bench)

	// GPS pipeline configuration: the same queries served from raw GPS
	// traces (σ=10 m samples of each query's path, matched back onto the
	// network, then searched) versus symbols-only, plus match-only to
	// isolate the HMM cost. Sequential engine so the overhead
	// ratio is pure pipeline cost.
	matcher := mapmatch.New(c.W.Graph, mapmatch.Config{})
	gpsCfg := workloadGPSConfig()
	rng := rand.New(rand.NewSource(7))
	traces := make([][]geo.Point, len(queries))
	var accSum float64
	for i, q := range queries {
		traces[i] = workload.GenerateTrace(c.W.Graph, q, gpsCfg, rng).Points
		res, err := matcher.MatchTrace(traces[i])
		if err != nil {
			return fmt.Errorf("GPS trace %d unmatched: %w", i, err)
		}
		p, _ := res.Path()
		accSum += workload.LCSAccuracy(p, q)
	}
	accuracy := accSum / float64(len(queries))
	emptyStats := &core.QueryStats{}
	var symbolsNs int64
	for _, d := range []struct {
		name   string
		runOne func(i int) (*core.QueryStats, error)
	}{
		{"GPS/symbols-only", func(i int) (*core.QueryStats, error) {
			q := queries[i%len(queries)]
			_, st, err := engTopK.SearchQuery(core.Query{Q: q, Tau: c.Tau(model, q, tauRatio), Parallelism: 1})
			return st, err
		}},
		{"GPS/match-only", func(i int) (*core.QueryStats, error) {
			if _, err := matcher.MatchTrace(traces[i%len(traces)]); err != nil {
				return nil, err
			}
			return emptyStats, nil
		}},
		{"GPS/match+search", func(i int) (*core.QueryStats, error) {
			res, err := matcher.MatchTrace(traces[i%len(traces)])
			if err != nil {
				return nil, err
			}
			q, _ := res.Path()
			_, st, err := engTopK.SearchQuery(core.Query{Q: q, Tau: c.Tau(model, q, tauRatio), Parallelism: 1})
			return st, err
		}},
	} {
		fmt.Fprintf(os.Stderr, "[benchall] %s...\n", d.name)
		bench, err := measureBench(d.name, quick, len(queries), d.runOne)
		if err != nil {
			return err
		}
		bench.Accuracy = accuracy
		switch d.name {
		case "GPS/symbols-only":
			symbolsNs = bench.NsPerOp
			bench.Accuracy = 0 // no matching involved
		case "GPS/match+search":
			if symbolsNs > 0 && bench.NsPerOp > 0 {
				bench.OverheadVsSymbols = float64(bench.NsPerOp) / float64(symbolsNs)
			}
		}
		snap.Benchmarks = append(snap.Benchmarks, bench)
	}

	// Durable-append configurations: the same ingest stream through the
	// volatile SafeEngine and through the WAL under each sync policy, on
	// private dataset clones so the shared snapshot workload stays
	// pristine. ns/op is dominated by the fsync policy — always pays one
	// fsync per append, interval amortizes it, never measures pure
	// framing cost.
	durBenches, err := durableAppendBenches(c.Data(model), costs, quick)
	if err != nil {
		return err
	}
	snap.Benchmarks = append(snap.Benchmarks, durBenches...)

	// Ingest load: the same searches while a background writer appends
	// at a fixed rate — the contention axis the epoch snapshot design
	// exists for.
	loadBench, err := ingestLoadBench(c, model, queries, tauRatio, quick)
	if err != nil {
		return err
	}
	snap.Benchmarks = append(snap.Benchmarks, loadBench)

	// Cancellation latency check: a top-k query under a 50 ms context
	// deadline must hand control back promptly — the driver checks the
	// context per trajectory its queue pops, so the return latency is
	// bounded by one trajectory's verification, asserted here at ≤ 2× the
	// deadline. A violation fails the whole snapshot.
	cancelBench, err := cancelledTopKBench(engTopK, queries, topkK, quick)
	if err != nil {
		return err
	}
	snap.Benchmarks = append(snap.Benchmarks, cancelBench)

	path := "BENCH_" + snap.Rev + ".json"
	if quick {
		path = "BENCH_quick.json"
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
	fmt.Printf("wrote %s\n", path)
	return nil
}

// opCounters accumulates the per-op QueryStats counters of one timed
// configuration — the cell-level band counters and the top-k driver's
// verified-trajectory count — and writes their per-op averages into a
// perfBench. One accumulation/finalization path serves both measurement
// strategies, so a new snapshot counter is added in exactly one place.
type opCounters struct {
	cellsC, cellsA, verified int64
	durs                     []time.Duration
}

func (c *opCounters) record(st *core.QueryStats, dur time.Duration) {
	c.cellsC += st.Verify.CellsComputed
	c.cellsA += st.Verify.CellsAvailable
	c.verified += int64(st.TrajVerified)
	c.durs = append(c.durs, dur)
}

func (c *opCounters) finalize(bench *perfBench, ops int64) {
	if ops > 0 {
		bench.CellsComputed = c.cellsC / ops
		bench.CellsAvailable = c.cellsA / ops
		bench.TrajVerified = c.verified / ops
	}
	if c.cellsA > 0 {
		bench.BandRatio = float64(c.cellsC) / float64(c.cellsA)
	}
	// Exact percentiles (nearest rank) over the individual op durations;
	// a single sample has no distribution to report.
	if len(c.durs) > 1 {
		sorted := append([]time.Duration(nil), c.durs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		pct := func(q float64) int64 {
			idx := int(math.Ceil(q*float64(len(sorted)))) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sorted) {
				idx = len(sorted) - 1
			}
			return sorted[idx].Nanoseconds()
		}
		bench.P50NsPerOp = pct(0.50)
		bench.P95NsPerOp = pct(0.95)
		bench.P99NsPerOp = pct(0.99)
	}
}

// measureBench times one configuration: a single timed query under
// -quick (no stable statistics — CI proves the pipeline runs), otherwise
// pool-warming passes followed by testing.Benchmark over the query set.
// Cell counters and top-k round/reuse counters are averaged per op.
func measureBench(name string, quick bool, warmups int, runOne func(int) (*core.QueryStats, error)) (perfBench, error) {
	bench := perfBench{Name: name}
	var counters opCounters
	var ops int64
	if quick {
		start := time.Now()
		st, err := runOne(0)
		if err != nil {
			return bench, err
		}
		bench.NsPerOp = time.Since(start).Nanoseconds()
		counters.record(st, time.Duration(bench.NsPerOp))
		ops = 1
	} else {
		// Warm the pools (verifier, trie arenas, candidate buffers)
		// before measuring, like TestPooledSearchAllocs: the snapshot
		// tracks steady-state per-op cost, not one-time pool growth.
		for i := 0; i < 2*warmups; i++ {
			if _, err := runOne(i); err != nil {
				return bench, err
			}
		}
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			counters = opCounters{}
			ops = int64(b.N)
			for i := 0; i < b.N; i++ {
				opStart := time.Now()
				st, err := runOne(i)
				if err != nil {
					benchErr = err
					b.Fatal(err)
				}
				counters.record(st, time.Since(opStart))
			}
		})
		if benchErr != nil {
			return bench, benchErr
		}
		bench.NsPerOp = r.NsPerOp()
		bench.AllocsPerOp = r.AllocsPerOp()
		bench.BytesPerOp = r.AllocedBytesPerOp()
	}
	counters.finalize(&bench, ops)
	return bench, nil
}

// kernelBench times passes of one DP kernel for a fifth of a second (a
// single pass under -quick).
func kernelBench(kern experiments.Kernel, quick bool) perfBench {
	fmt.Fprintf(os.Stderr, "[benchall] Kernel/%s...\n", kern.Name)
	passes, cells := 0, 0
	start := time.Now()
	for passes == 0 || (!quick && time.Since(start) < 200*time.Millisecond) {
		cells += kern.Pass()
		passes++
	}
	ns := time.Since(start).Nanoseconds()
	return perfBench{
		Name:          "Kernel/" + kern.Name,
		NsPerOp:       ns / int64(passes),
		NsPerCell:     float64(ns) / float64(cells),
		CellsComputed: int64(cells / passes),
	}
}

// measureFixed times one configuration over exactly `ops` iterations
// (after one warm rotation), with allocation statistics read from
// runtime.MemStats — for configurations whose per-op cost is too large
// for testing.Benchmark's time-targeted iteration count to cover the
// query set. Under -quick it degrades to the same single-op smoke as
// measureBench.
func measureFixed(name string, quick bool, ops int, runOne func(int) (*core.QueryStats, error)) (perfBench, error) {
	if quick {
		return measureBench(name, true, 0, runOne)
	}
	bench := perfBench{Name: name}
	for i := 0; i < ops; i++ { // warm pools, one full query rotation
		if _, err := runOne(i); err != nil {
			return bench, err
		}
	}
	var counters opCounters
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < ops; i++ {
		opStart := time.Now()
		st, err := runOne(i)
		if err != nil {
			return bench, err
		}
		counters.record(st, time.Since(opStart))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := int64(ops)
	bench.NsPerOp = elapsed.Nanoseconds() / n
	bench.AllocsPerOp = int64(m1.Mallocs-m0.Mallocs) / n
	bench.BytesPerOp = int64(m1.TotalAlloc-m0.TotalAlloc) / n
	counters.finalize(&bench, n)
	return bench, nil
}

// durableAppendBenches measures the same ingest stream through the
// volatile SafeEngine and through the WAL under each sync policy. Each
// configuration appends to a private clone of the snapshot dataset and a
// throwaway durable directory, so nothing leaks into later sections.
func durableAppendBenches(src *traj.Dataset, costs wed.FilterCosts, quick bool) ([]perfBench, error) {
	ops := 400
	if quick {
		ops = 3
	}
	payloads := make([]traj.Trajectory, min(ops, len(src.Trajs)))
	for i := range payloads {
		payloads[i] = src.Trajs[i]
	}
	emptyStats := &core.QueryStats{}
	var volatileNs int64
	var out []perfBench
	for _, d := range []struct {
		name string
		sync string // "" = no WAL
	}{
		{"DurableAppend/volatile", ""},
		{"DurableAppend/sync=always", "always"},
		{"DurableAppend/sync=interval", "interval"},
		{"DurableAppend/sync=never", "never"},
	} {
		fmt.Fprintf(os.Stderr, "[benchall] %s...\n", d.name)
		clone := traj.NewDataset(src.Rep)
		for _, t := range src.Trajs {
			clone.Add(t)
		}
		var safe *server.SafeEngine
		cleanup := func() error { return nil }
		if d.sync == "" {
			safe = server.NewSafeEngine(core.NewEngine(clone, costs))
		} else {
			pol, err := wal.ParseSyncPolicy(d.sync)
			if err != nil {
				return nil, err
			}
			dir, err := os.MkdirTemp("", "subtraj-walbench-")
			if err != nil {
				return nil, err
			}
			s, _, err := server.OpenDurable(dir, clone, costs, server.DurableOptions{
				Sync:         pol,
				SyncInterval: 10 * time.Millisecond,
			})
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			safe = s
			cleanup = func() error {
				err := safe.Durable().Close()
				os.RemoveAll(dir)
				return err
			}
		}
		runOne := func(i int) (*core.QueryStats, error) {
			if _, err := safe.Append(payloads[i%len(payloads)]); err != nil {
				return nil, err
			}
			return emptyStats, nil
		}
		bench, err := measureFixed(d.name, quick, ops, runOne)
		if cerr := cleanup(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if bench.NsPerOp > 0 {
			bench.AppendsPerSec = 1e9 / float64(bench.NsPerOp)
		}
		if d.sync == "" {
			volatileNs = bench.NsPerOp
		} else if volatileNs > 0 && bench.NsPerOp > 0 {
			bench.OverheadVsVolatile = float64(bench.NsPerOp) / float64(volatileNs)
		}
		out = append(out, bench)
	}
	return out, nil
}

// ingestLoadBench measures search latency under a sustained append
// stream: three plain searches then one departure-window search — the
// serving mix the temporal API produces — while one background writer
// appends rotated copies of existing trajectories through the SafeEngine
// at a fixed ~2000 appends/s. Publish and fold stalls would surface in
// the p99, not the median.
func ingestLoadBench(c *experiments.Ctx, model string, queries [][]traj.Symbol, tauRatio float64, quick bool) (perfBench, error) {
	const name = "IngestLoad/epoch"
	const appendEvery = 500 * time.Microsecond
	ops := 300
	if quick {
		ops = 3
	}
	src := c.Data(model)
	payloads := make([]traj.Trajectory, 256)
	for i := range payloads {
		payloads[i] = src.Trajs[i%len(src.Trajs)]
	}
	fmt.Fprintf(os.Stderr, "[benchall] %s...\n", name)
	clone := traj.NewDataset(src.Rep)
	for _, t := range src.Trajs {
		clone.Add(t)
	}
	safe := server.NewSafeEngine(core.NewEngine(clone, c.Model(model)))
	safe.SetCompactAppends(2048)

	// The fixed-rate writer runs across the warm-up AND the timed span,
	// so measured searches always contend with live appends.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var appendErr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(appendEvery)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := safe.Append(payloads[i%len(payloads)]); err != nil {
					appendErr.Store(err)
					return
				}
			}
		}
	}()
	bench, err := measureFixed(name, quick, ops, func(i int) (*core.QueryStats, error) {
		q := queries[i%len(queries)]
		qr := core.Query{Q: q, Tau: c.Tau(model, q, tauRatio), Parallelism: 1}
		if i%4 == 3 {
			qr.Temporal.Mode = core.TemporalDeparture
			qr.Temporal.Lo, qr.Temporal.Hi = 0, 1e12
		}
		_, st, err := safe.SearchQuery(qr)
		return st, err
	})
	close(stop)
	wg.Wait()
	if err != nil {
		return bench, err
	}
	if aerr, ok := appendErr.Load().(error); ok {
		return bench, fmt.Errorf("%s background writer: %w", name, aerr)
	}
	return bench, nil
}

// cancelledTopKBench runs top-k queries under a 50 ms context deadline
// and records the worst observed return latency. The driver's
// cancellation point (once per trajectory its queue pops) bounds that
// latency; exceeding twice the deadline fails the
// snapshot — a regression in cancellation responsiveness, not a perf
// number to track quietly.
func cancelledTopKBench(eng *core.Engine, queries [][]traj.Symbol, k int, quick bool) (perfBench, error) {
	const deadline = 50 * time.Millisecond
	const maxReturn = 2 * deadline
	iters := 5
	if quick {
		iters = 1
	}
	fmt.Fprintf(os.Stderr, "[benchall] TopK/k=%d/deadline=%s...\n", k, deadline)
	bench := perfBench{
		Name:       fmt.Sprintf("TopK/k=%d/deadline=%s", k, deadline),
		DeadlineNs: deadline.Nanoseconds(),
	}
	var worst time.Duration
	for i := 0; i < iters; i++ {
		q := queries[i%len(queries)]
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, _, err := eng.SearchTopKStats(q, k, core.TopKOptions{Parallelism: 1, Ctx: ctx})
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				return bench, fmt.Errorf("cancelled top-k: unexpected error: %w", err)
			}
			bench.DeadlineExceeded = true
		}
		if elapsed > worst {
			worst = elapsed
		}
	}
	bench.NsPerOp = worst.Nanoseconds()
	if worst > maxReturn {
		return bench, fmt.Errorf("cancelled top-k returned in %s; budget is %s for a %s deadline", worst, maxReturn, deadline)
	}
	return bench, nil
}

// mappedCompactEngine freezes ds into a compact arena, saves it to a
// temporary file, and re-opens the file zero-copy: the returned engine
// serves postings from the mmap, not from the freshly built heap arena,
// so benching it proves the whole persistence loop. The saved bytes are
// checked byte-identical to the in-heap arena before the build is
// discarded. The close function unmaps and removes the file.
func mappedCompactEngine(ds *traj.Dataset, costs wed.FilterCosts) (*core.Engine, func() error, error) {
	built := index.FreezeDataset(ds)
	dir, err := os.MkdirTemp("", "subtraj-bench-")
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*core.Engine, func() error, error) {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	path := filepath.Join(dir, "index.sbtj")
	f, err := os.Create(path)
	if err != nil {
		return fail(err)
	}
	if err := built.Save(f); err != nil {
		f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	mapped, err := index.OpenMapped(path)
	if err != nil {
		return fail(err)
	}
	if !bytes.Equal(mapped.Bytes(), built.Bytes()) {
		mapped.Close()
		return fail(fmt.Errorf("mapped arena differs from the built arena"))
	}
	eng := core.NewEngineWithBackend(ds, mapped, costs)
	closer := func() error {
		err := mapped.Close()
		os.RemoveAll(dir)
		return err
	}
	return eng, closer, nil
}

// gitRev returns the short HEAD revision, or "dev" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	rev := strings.TrimSpace(string(out))
	if rev == "" {
		return "dev"
	}
	return rev
}
