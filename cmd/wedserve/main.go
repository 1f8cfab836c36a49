// Command wedserve serves subtrajectory similarity queries over HTTP: it
// generates (or loads) a workload, builds an engine for a chosen cost
// model, wraps it for concurrency, and listens until SIGINT/SIGTERM, then
// shuts down gracefully.
//
// Usage:
//
//	wedserve [-addr :8080] [-dataset beijing] [-scale 0.1] [-model EDR]
//	         [-load workload.gob] [-cache 1024] [-concurrency 0]
//	         [-index-file idx.sbtj]
//	         [-wal-dir state/] [-wal-sync always|interval|never]
//	         [-wal-sync-interval 100ms] [-checkpoint-bytes 67108864]
//	         [-compact-appends 4096] [-request-timeout 0] [-queue-wait 1s]
//	         [-max-parallelism 0] [-gps-sigma 20] [-gps-beta 50]
//	         [-slow-query 250ms] [-trace-buffer 64]
//	         [-debug-addr localhost:6060]
//
// Endpoints (all JSON; see internal/server for the full shapes):
//
//	POST /v1/search    {"q":[...], "tau":12.5}   or {"q":[...], "tau_ratio":0.1}
//	POST /v1/topk      {"q":[...], "k":5}
//	POST /v1/temporal  {"q":[...], "tau_ratio":0.1, "lo":0, "hi":3600, "mode":"overlap"}
//	POST /v1/exact     {"q":[...]}
//	POST /v1/count     {"q":[...]}
//	POST /v1/append    {"path":[...], "times":[...]}
//	POST /v1/checkpoint            (durable mode: snapshot + WAL rotation)
//	POST /v1/match     {"trace":[[x,y],...]}
//	POST /v1/ingest    {"traces":[[[x,y],...],...]}
//	POST /v1/batch     {"queries":[{"kind":"search", ...}, ...]}
//	GET  /v1/stats
//	GET  /v1/debug/traces   span trees of recent slow queries
//	GET  /metrics           Prometheus text exposition
//	GET  /healthz
//
// Query bodies also accept "trace" in place of "q": the raw GPS samples
// are map-matched onto the network (tuned by -gps-sigma/-gps-beta) and
// the matched path is searched. Appending ?debug=trace to any query
// endpoint embeds the request's span tree in the response.
//
// Observability knobs: -slow-query sets the slow-query log threshold,
// -trace-buffer the /v1/debug/traces retention, and -debug-addr starts a
// second listener serving net/http/pprof (kept off the public address on
// purpose). /metrics and /v1/stats are always on: they read one registry.
//
// Durability: -wal-dir enables crash-safe ingest. Every /v1/append is
// written to a CRC-framed write-ahead log before it is applied, fsynced
// per -wal-sync, and recovered on restart (snapshot replay + WAL replay
// with torn-tail truncation). -checkpoint-bytes bounds the log by
// triggering background checkpoints; POST /v1/checkpoint forces one.
// The base workload (-dataset/-load/-scale/-model) must match across
// restarts: the durable directory persists only appended trajectories,
// and a checkpointed index built over another base workload is refused.
//
// Ingest under load: searches run lock-free against immutable epoch
// snapshots while appends publish new ones; -compact-appends bounds the
// per-publish delta by folding it into the frozen base in the
// background (see DESIGN.md §1.11).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"subtraj"
	"subtraj/internal/server"
	"subtraj/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wedserve: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dataset     = flag.String("dataset", "beijing", "workload: beijing|porto|singapore|sanfran|tiny")
		load        = flag.String("load", "", "load a workload gob written by datagen instead of generating")
		scale       = flag.Float64("scale", 0.1, "dataset scale factor")
		model       = flag.String("model", "EDR", "cost model: Lev|EDR|ERP|NetEDR|NetERP|SURS")
		cacheSize   = flag.Int("cache", 1024, "LRU result-cache entries (negative disables)")
		concurrency = flag.Int("concurrency", 0, "max in-flight engine queries (0 = 2x GOMAXPROCS)")
		indexFile   = flag.String("index-file", "", "index arena path: open zero-copy via mmap if it exists, else build, save, and re-open mapped")
		walDir      = flag.String("wal-dir", "", "durable-state directory: log appends to a WAL, checkpoint, and recover on restart (incompatible with -index-file)")
		walSync     = flag.String("wal-sync", "always", "WAL fsync policy: always (fsync per append) | interval | never")
		walInterval = flag.Duration("wal-sync-interval", 100*time.Millisecond, "flush period for -wal-sync interval")
		ckptBytes   = flag.Int64("checkpoint-bytes", 64<<20, "checkpoint automatically when the WAL passes this size (0 = only on POST /v1/checkpoint)")
		compactApps = flag.Int("compact-appends", 4096, "fold the append delta into the frozen base after this many unfolded appends (0 = never compact automatically)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request deadline; exceeded queries return 504 (0 disables)")
		queueWait   = flag.Duration("queue-wait", time.Second, "max wait for a worker slot before shedding the request with 503 (0 = wait for the request deadline)")
		maxPar      = flag.Int("max-parallelism", 0, "cap on workers per query (0 = GOMAXPROCS; 1 = sequential); the engine uses fewer when a query is small")
		maxBatch    = flag.Int("max-batch", 64, "max subqueries per /v1/batch request")
		gpsSigma    = flag.Float64("gps-sigma", 20, "GPS noise stddev in metres for map matching (0 disables the GPS endpoints)")
		gpsBeta     = flag.Float64("gps-beta", 50, "map-matching transition tolerance in metres")
		gpsMaxGap   = flag.Float64("gps-max-gap", 0, "split traces at sample jumps longer than this many metres (0 = stitch any gap)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		slowQuery   = flag.Duration("slow-query", 250*time.Millisecond, "slow-query log threshold (negative disables)")
		traceBuffer = flag.Int("trace-buffer", 64, "slow-query traces retained by /v1/debug/traces (negative disables)")
		debugAddr   = flag.String("debug-addr", "", "if set, serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	var w *subtraj.Workload
	start := time.Now()
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		w, err = subtraj.LoadWorkload(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %s", *load)
	} else {
		cfg, err := configByName(*dataset)
		if err != nil {
			log.Fatal(err)
		}
		cfg.NumTrajectories = int(float64(cfg.NumTrajectories) * *scale)
		if cfg.NumTrajectories < 10 {
			cfg.NumTrajectories = 10
		}
		log.Printf("generating %s workload (%d trajectories)...", cfg.Name, cfg.NumTrajectories)
		w = subtraj.Generate(cfg)
	}
	log.Printf("  graph: %d vertices, %d edges; data: %d trajectories, avg length %.1f (%s)",
		w.Graph.NumVertices(), w.Graph.NumEdges(), w.Data.Len(), w.Data.AvgLen(), time.Since(start).Round(time.Millisecond))

	net := subtraj.NewNetwork(w.Graph)
	costs, data, err := buildModel(net, w, *model)
	if err != nil {
		log.Fatal(err)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	start = time.Now()
	var inner *server.SafeEngine
	if *walDir != "" {
		if *indexFile != "" {
			log.Fatal("-index-file cannot be combined with -wal-dir: durable mode manages index.compact inside the state directory")
		}
		pol, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		var rec *server.RecoveryInfo
		inner, rec, err = server.OpenDurable(*walDir, data, costs, server.DurableOptions{
			Sync:            pol,
			SyncInterval:    *walInterval,
			CheckpointBytes: *ckptBytes,
			Logger:          logger,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("  durable state %s recovered in %s: %d snapshot + %d replayed records (%d skipped, gen %d, wal %s)",
			*walDir, time.Since(start).Round(time.Millisecond),
			rec.SnapshotRecords, rec.ReplayedRecords, rec.SkippedRecords,
			rec.CheckpointGen, byteSize(rec.WALBytes))
		if rec.TailTruncated {
			log.Printf("  WAL tail truncated at a torn frame: %s", rec.TruncateReason)
		}
		if rec.IndexMapped {
			log.Printf("  compact index mapped from checkpoint")
		}
	} else {
		eng, err := buildEngine(data, costs, *indexFile)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("  engine (%s, %s index) built in %s",
			*model, byteSize(eng.IndexBytes()), time.Since(start).Round(time.Millisecond))
		inner = subtraj.NewSafeEngine(eng).Inner()
	}
	inner.SetCompactAppends(*compactApps)

	// Crash-point hook for the fault-injection tests: when the named
	// point of the write path is reached, die as hard as SIGKILL — no
	// flush, no deferred cleanup — so recovery is exercised against the
	// worst window (e.g. between a compaction fold and its publish).
	if cp := os.Getenv("SUBTRAJ_CRASH_POINT"); cp != "" {
		server.SetCrashHook(func(point string) {
			if point == cp {
				p, _ := os.FindProcess(os.Getpid())
				p.Kill()
				select {} // unreachable once the signal lands
			}
		})
		log.Printf("  crash point armed: %s", cp)
	}

	// The alphabet bound keeps out-of-range symbols in request JSON from
	// reaching the cost models, which index per-symbol tables directly.
	maxSymbol := int32(w.Graph.NumVertices())
	if data.Rep == subtraj.EdgeRep {
		maxSymbol = int32(w.Graph.NumEdges())
	}

	scfg := server.Config{
		CacheSize:      *cacheSize,
		MaxConcurrent:  *concurrency,
		MaxBatch:       *maxBatch,
		MaxSymbol:      maxSymbol,
		MaxParallelism: *maxPar,
		RequestTimeout: *reqTimeout,
		QueueWait:      *queueWait,
		SlowQuery:      *slowQuery,
		TraceBuffer:    *traceBuffer,
		Logger:         logger,
	}
	if *gpsSigma > 0 {
		start = time.Now()
		matcher := subtraj.NewMapMatcher(w.Graph, subtraj.MapMatchConfig{
			Sigma:  *gpsSigma,
			Beta:   *gpsBeta,
			MaxGap: *gpsMaxGap,
		})
		scfg.Matcher = matcher.Internal()
		log.Printf("  GPS matcher (σ=%gm, β=%gm) built in %s", *gpsSigma, *gpsBeta, time.Since(start).Round(time.Millisecond))
	}
	srv := server.New(inner, scfg)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		// pprof gets its own mux on its own listener: profiling stays
		// reachable when the main pool saturates, and the public address
		// never exposes the profiler.
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on %s (model=%s, cache=%d, concurrency=%d)",
			*addr, *model, *cacheSize, *concurrency)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down (draining up to %s)...", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	if d := inner.Durable(); d != nil {
		// All handlers have drained; flush and close the WAL so the final
		// fsync covers every acknowledged append.
		if err := d.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
	snap := srv.Snapshot()
	log.Printf("served %d searches, %d batches, %d appends; cache hits %d/%d; exiting",
		snap.Requests.Search, snap.Requests.Batch, snap.Requests.Append,
		snap.Cache.Hits, snap.Cache.Hits+snap.Cache.Misses)
}

// buildEngine builds the engine, or with an -index-file that exists maps
// its arena zero-copy; with one that does not exist yet, it builds the
// arena, saves it, and re-opens it from the mapping so the serving process
// genuinely runs off the page cache.
func buildEngine(data *subtraj.Dataset, costs subtraj.FilterCosts, file string) (*subtraj.Engine, error) {
	if file == "" {
		return subtraj.NewEngine(data, costs)
	}
	if _, err := os.Stat(file); err == nil {
		eng, _, err := subtraj.OpenMappedEngine(data, costs, file)
		if err != nil {
			return nil, err
		}
		log.Printf("  compact index mapped from %s", file)
		return eng, nil
	}
	eng, err := subtraj.NewEngine(data, costs)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(file)
	if err != nil {
		return nil, err
	}
	if err := eng.SaveIndex(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	log.Printf("  compact index saved to %s; re-opening mapped", file)
	eng, _, err = subtraj.OpenMappedEngine(data, costs, file)
	return eng, err
}

// byteSize renders a byte count human-readably for startup logs.
func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func configByName(name string) (subtraj.WorkloadConfig, error) {
	switch name {
	case "beijing":
		return subtraj.BeijingLike(), nil
	case "porto":
		return subtraj.PortoLike(), nil
	case "singapore":
		return subtraj.SingaporeLike(), nil
	case "sanfran":
		return subtraj.SanFranLike(), nil
	case "tiny":
		return subtraj.TinyWorkload(42), nil
	default:
		return subtraj.WorkloadConfig{}, fmt.Errorf("unknown dataset %q", name)
	}
}

func buildModel(net *subtraj.Network, w *subtraj.Workload, model string) (subtraj.FilterCosts, *subtraj.Dataset, error) {
	switch model {
	case "Lev":
		return net.Lev(), w.Data, nil
	case "EDR":
		return net.EDR(100), w.Data, nil
	case "ERP":
		return net.ERP(net.DefaultERPEta()), w.Data, nil
	case "NetEDR":
		return net.NetEDR(w.Graph.MedianEdgeWeight()), w.Data, nil
	case "NetERP":
		return net.NetERP(2e6, w.Graph.MedianEdgeWeight()), w.Data, nil
	case "SURS":
		ed, err := w.Data.ToEdgeRep(w.Graph)
		if err != nil {
			return nil, nil, err
		}
		return net.SURS(), ed, nil
	default:
		return nil, nil, fmt.Errorf("unknown model %q", model)
	}
}
