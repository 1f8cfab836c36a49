package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"subtraj/internal/core"
	"subtraj/internal/obs"
	"subtraj/internal/verify"
)

// This file wires the obs package into the HTTP layer: the metric
// registry behind GET /metrics, the per-request trace middleware, the
// slow-query ring behind GET /v1/debug/traces, and the enriched
// /healthz. The registry is the only store of the server's own counters:
// /metrics renders it and /v1/stats reads the same handles, so the two
// surfaces cannot drift apart.

// serverMetrics holds the registry and the handles of every counter and
// histogram the server itself writes, each incremented in one place.
// State other types own — the cache, the pool, the SafeEngine and its
// Durability — is bridged into the registry by Func series read at
// scrape time.
type serverMetrics struct {
	reg *obs.Registry

	// Per endpoint, registered by route and written by instrument:
	// requests received and their end-to-end latency (cache hits
	// included).
	requests map[string]*obs.Counter
	latency  map[string]*obs.Histogram

	errors, panics, slow *obs.Counter
	executed             *obs.Counter // queries the engine answered (record)

	// Executed queries' QueryStats, summed and distributed (record). The
	// stage histograms' sums are the stage-time totals /v1/stats reports.
	matches, candidates, prunedTraj, prunedCands    *obs.Counter
	columnsVisited, columnsAvail, stepDPs           *obs.Counter
	cellsComputed, cellsAvail                       *obs.Counter
	shardWorkers, parallelQueries                   *obs.Counter
	topkQueued, topkVerified                        *obs.Counter
	stagePlan, stageFilter, stageVerify, stageMatch *obs.Histogram

	// The GPS pipeline (gps.go).
	tracesMatched, tracesFailed, tracesSplit *obs.Counter
	segmentsAppended, traceQueries           *obs.Counter
	matchConfidence                          *obs.Histogram
}

// newServerMetrics builds the registry over s. It must run after the
// cache, pool, and engine fields are set: the Func bridges capture them.
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	counter := func(name, help string) *obs.Counter { return r.Counter(name, help, nil) }
	m := &serverMetrics{reg: r, requests: map[string]*obs.Counter{}, latency: map[string]*obs.Histogram{}}
	m.errors = counter("subtraj_request_errors_total", "Requests and batch or ingest items answered with an error.")
	m.slow = counter("subtraj_slow_queries_total", "Requests at or above the slow-query threshold.")

	// Pipeline stages — the paper's filter/verify breakdown as live
	// distributions (plan = min-candidate computation, filter = index
	// lookups, verify = banded DP, match = GPS map matching).
	stage := func(name string) *obs.Histogram {
		return r.Histogram("subtraj_stage_duration_seconds",
			"Per-query pipeline-stage duration (summed work across fan-out workers).",
			obs.LatencyBuckets, obs.L("stage", name))
	}
	m.stagePlan, m.stageFilter, m.stageVerify, m.stageMatch = stage("plan"), stage("filter"), stage("verify"), stage("match")

	// Engine work and efficiency ratios — the /v1/stats Totals block.
	m.executed = counter("subtraj_queries_executed_total", "Engine-run (non-cached) queries.")
	m.matches = counter("subtraj_matches_total", "Matches answered by executed queries.")
	m.candidates = counter("subtraj_candidates_total", "Candidates executed queries verified.")
	m.prunedTraj = counter("subtraj_pruned_trajectories_total",
		"Trajectories the trajectory-level pre-filter dropped before verification.")
	m.prunedCands = counter("subtraj_pruned_candidates_total",
		"Candidates of the trajectories the pre-filter dropped.")
	m.columnsVisited = counter("subtraj_columns_visited_total", "DP columns verification visited.")
	m.columnsAvail = counter("subtraj_columns_available_total", "DP columns verification could have visited.")
	m.stepDPs = counter("subtraj_step_dp_calls_total", "DP column steps verification computed.")
	m.cellsComputed = counter("subtraj_cells_computed_total", "DP cells the banded verification computed.")
	m.cellsAvail = counter("subtraj_cells_available_total", "DP cells in the full-width columns visited.")
	m.shardWorkers = counter("subtraj_shard_workers_total", "Fan-out workers used across executed queries.")
	m.parallelQueries = counter("subtraj_parallel_queries_total", "Executed queries that used more than one worker.")
	m.topkQueued = counter("subtraj_topk_queued_total", "Trajectories top-k queries put on their best-first queue.")
	m.topkVerified = counter("subtraj_topk_verified_total", "Queued trajectories top-k queries scanned for their best match.")
	r.GaugeFunc("subtraj_engine_generation", "Appends applied so far (cache-validity tag).",
		nil, func() float64 { return float64(s.eng.Generation()) })
	r.GaugeFunc("subtraj_engine_trajectories", "Indexed trajectories.",
		nil, func() float64 { return float64(s.eng.NumTrajectories()) })
	r.GaugeFunc("subtraj_index_bytes",
		"Index memory footprint: the arena, plus a heap estimate for the append delta.",
		nil, func() float64 { return float64(s.eng.IndexBytes()) })
	r.GaugeFunc("subtraj_index_bytes_per_trajectory",
		"Index bytes divided by indexed trajectories.",
		nil, func() float64 { return ratio(s.eng.IndexBytes(), int64(s.eng.NumTrajectories())) })
	r.GaugeFunc("subtraj_band_ratio",
		"Fraction of DP cells the banded verification actually computed.",
		nil, func() float64 { return ratio(m.cellsComputed.Value(), m.cellsAvail.Value()) })
	r.GaugeFunc("subtraj_topk_verified_ratio",
		"Fraction of the trajectories queued by top-k queries that had to be verified.",
		nil, func() float64 { return ratio(m.topkVerified.Value(), m.topkQueued.Value()) })
	r.CounterFunc("subtraj_verifier_pool_gets_total",
		"Verifier checkouts from the process-wide pool.", nil,
		func() float64 { g, _, _ := verify.PoolStats(); return float64(g) })
	r.CounterFunc("subtraj_verifier_pool_news_total",
		"Verifier allocations the pool could not avoid.", nil,
		func() float64 { _, n, _ := verify.PoolStats(); return float64(n) })
	r.GaugeFunc("subtraj_verifier_pool_retained_bytes",
		"Compiled cost rows, DP column buffers and match buffers held by idle pooled verifiers.", nil,
		func() float64 { _, _, b := verify.PoolStats(); return float64(b) })

	// Result cache.
	r.CounterFunc("subtraj_cache_hits_total", "Result-cache hits.", nil, load(&s.cache.hits))
	r.CounterFunc("subtraj_cache_misses_total", "Result-cache misses.", nil, load(&s.cache.misses))
	r.CounterFunc("subtraj_cache_evictions_total", "LRU evictions.", nil, load(&s.cache.evictions))
	r.CounterFunc("subtraj_cache_invalidations_total",
		"Entries dropped because the engine generation moved.", nil, load(&s.cache.invalidations))
	r.GaugeFunc("subtraj_cache_size", "Current result-cache entries.",
		nil, func() float64 { return float64(s.cache.len()) })
	r.GaugeFunc("subtraj_cache_hit_ratio", "Hits over lookups since start.",
		nil, func() float64 { return ratio(s.cache.hits.Load(), s.cache.hits.Load()+s.cache.misses.Load()) })
	r.CounterFunc("subtraj_cache_hit_queries_total",
		"Query requests answered from the result cache (every cache hit is one).", nil, load(&s.cache.hits))

	// Worker pool.
	r.GaugeFunc("subtraj_pool_capacity", "Worker-pool slots.",
		nil, func() float64 { return float64(s.pool.capacity()) })
	r.GaugeFunc("subtraj_pool_in_flight", "Slots currently held.", nil, load(&s.pool.inFlight))
	r.CounterFunc("subtraj_pool_waited_total", "Acquisitions that had to block.", nil, load(&s.pool.waited))
	r.CounterFunc("subtraj_pool_rejected_total", "Acquisitions abandoned at the deadline.",
		nil, load(&s.pool.rejected))

	// GPS pipeline.
	r.GaugeFunc("subtraj_gps_enabled", "1 when the server was built with a map matcher.",
		nil, func() float64 { return boolFloat(s.matcher != nil) })
	m.tracesMatched = counter("subtraj_gps_traces_matched_total", "Traces matched successfully.")
	m.tracesFailed = counter("subtraj_gps_traces_failed_total", "Traces the matcher rejected.")
	m.tracesSplit = counter("subtraj_gps_traces_split_total", "Matched traces that split into segments.")
	m.segmentsAppended = counter("subtraj_gps_segments_appended_total", "Matched segments indexed via ingest.")
	m.traceQueries = counter("subtraj_gps_trace_queries_total", "Queries posed as raw GPS traces.")
	m.matchConfidence = r.Histogram("subtraj_gps_match_confidence",
		"Per-trace map-matching confidence.", obs.RatioBuckets, nil)

	// Epoch-snapshot ingest: how much of the published view is delta vs
	// frozen base, and the background compactor's progress.
	r.GaugeFunc("subtraj_delta_trajectories",
		"Appended trajectories in the published snapshot's delta index (not yet folded).",
		nil, func() float64 { return float64(s.eng.DeltaLen()) })
	r.GaugeFunc("subtraj_folded_trajectories",
		"Trajectories folded into the published snapshot's frozen base.",
		nil, func() float64 { return float64(s.eng.FoldedLen()) })
	r.CounterFunc("subtraj_compactions_total",
		"Completed background folds of the delta into a fresh frozen base.",
		nil, func() float64 { return float64(s.eng.Compactions()) })
	r.CounterFunc("subtraj_snapshot_publishes_total",
		"Immutable engine snapshots published (appends, folds, checkpoints).",
		nil, func() float64 { return float64(s.eng.Publishes()) })

	// Robustness: overload shedding and recovered panics.
	r.CounterFunc("subtraj_requests_shed_total",
		"Requests shed with a fast 503 because the worker pool stayed saturated past the queue-wait bound.",
		nil, load(&s.pool.shed))
	m.panics = counter("subtraj_panics_total", "Handler and item panics recovered into errors.")

	// Durability: the write-ahead log and checkpoint state. The bridges
	// read through s.eng.Durable() at scrape time and report zero on a
	// volatile engine, so dashboards need no conditional wiring.
	durGauge := func(f func(d *Durability) float64) func() float64 {
		return func() float64 {
			if d := s.eng.Durable(); d != nil {
				return f(d)
			}
			return 0
		}
	}
	r.GaugeFunc("subtraj_durable", "1 when appends are write-ahead logged.",
		nil, durGauge(func(*Durability) float64 { return 1 }))
	r.GaugeFunc("subtraj_wal_bytes", "Write-ahead log size on disk.",
		nil, durGauge(func(d *Durability) float64 { return float64(d.WALStats().Bytes) }))
	r.GaugeFunc("subtraj_wal_records", "Records in the write-ahead log: every append since the durable directory was created.",
		nil, durGauge(func(d *Durability) float64 { return float64(d.WALStats().Records) }))
	r.CounterFunc("subtraj_wal_fsyncs_total", "WAL fsync calls.",
		nil, durGauge(func(d *Durability) float64 { return float64(d.WALStats().Syncs) }))
	r.CounterFunc("subtraj_checkpoints_total", "Completed checkpoints.",
		nil, durGauge(func(d *Durability) float64 { return float64(d.Checkpoints()) }))
	r.CounterFunc("subtraj_checkpoint_errors_total", "Failed checkpoint attempts.",
		nil, durGauge(func(d *Durability) float64 { return float64(d.CheckpointErrors()) }))
	r.GaugeFunc("subtraj_recovery_replayed_records",
		"WAL records startup recovery applied to the base workload.",
		nil, durGauge(func(d *Durability) float64 { return float64(d.ReplayedRecords()) }))
	walFsync := r.Histogram("subtraj_wal_fsync_seconds", "WAL fsync latency.", obs.LatencyBuckets, nil)
	if d := s.eng.Durable(); d != nil {
		d.SetFsyncObserver(walFsync)
	}

	r.GaugeFunc("subtraj_uptime_seconds", "Seconds since the server was built.",
		nil, func() float64 { return time.Since(s.start).Seconds() })

	return m
}

// load bridges an atomic.Int64 owned by the cache or the pool.
func load(c *atomic.Int64) func() float64 {
	return func() float64 { return float64(c.Load()) }
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// --- request middleware ---------------------------------------------------

// route serves h at pattern behind instrument, registering the endpoint's
// request counter and latency histogram with it, so no endpoint is served
// without its series. Only New calls it, before the server serves.
func (s *Server) route(pattern, endpoint string, h http.HandlerFunc) {
	m := s.metrics
	m.requests[endpoint] = m.reg.Counter("subtraj_requests_total", "Requests received per endpoint.",
		obs.L("endpoint", endpoint))
	m.latency[endpoint] = m.reg.Histogram("subtraj_request_duration_seconds",
		"End-to-end request latency per endpoint, including cache hits.",
		obs.LatencyBuckets, obs.L("endpoint", endpoint))
	s.mux.HandleFunc(pattern, s.instrument(endpoint, h))
}

// instrument wraps a handler with the per-request observability and
// robustness spine: the endpoint's request count, a request ID (echoed in
// X-Request-ID and carried by the trace), a trace in the context for the
// layers below to hang spans on, the configured request deadline (the
// engine's cancellation points observe it and the query answers 504), a
// panic backstop that converts any handler panic — including one
// re-raised from a fan-out worker — into a 500 JSON error instead of a
// dead process, the endpoint's latency histogram (observed for every
// request — cache hits included, which is what makes the histogram the
// honest end-to-end distribution), and the slow-query sink (structured
// log line plus the debug ring).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reqs, lat := s.metrics.requests[endpoint], s.metrics.latency[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		id := obs.NewRequestID()
		tr := obs.NewTrace(id, endpoint)
		w.Header().Set("X-Request-ID", id)
		ctx := obs.WithTrace(r.Context(), tr)
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.recordPanic(ctx, endpoint, -1, p)
					// Best-effort: if the handler already wrote a status
					// line the superfluous-WriteHeader log is the only
					// casualty; the process survives either way.
					writeJSON(w, http.StatusInternalServerError,
						map[string]string{"error": s.errorMessage(errInternal), "request_id": id})
				}
			}()
			h(w, r.WithContext(ctx))
		}()
		dur := tr.Finish()
		lat.Observe(dur.Seconds())
		if s.cfg.SlowQuery > 0 && dur >= s.cfg.SlowQuery {
			s.metrics.slow.Inc()
			s.traces.Add(obs.TraceRecord{
				RequestID: id,
				Endpoint:  endpoint,
				Time:      time.Now(),
				DurUS:     dur.Microseconds(),
				Trace:     tr.JSON(),
			})
			s.cfg.Logger.Warn("slow query",
				"request_id", id,
				"endpoint", endpoint,
				"dur_ms", float64(dur.Microseconds())/1e3,
				"breakdown", tr.Breakdown(),
			)
		}
	}
}

// errInternal is what a request whose handler panicked answers.
var errInternal = &httpError{code: http.StatusInternalServerError, msg: "internal error"}

// recordPanic is what every recover in this package does with what it
// caught: count it and log it with the stack (its error is counted where
// it is answered). item is the /v1/batch or /v1/ingest item whose
// goroutine panicked, -1 when it was the handler's own.
func (s *Server) recordPanic(ctx context.Context, endpoint string, item int, p any) {
	s.metrics.panics.Inc()
	s.cfg.Logger.Error("handler panic",
		"request_id", obs.FromContext(ctx).ID(),
		"endpoint", endpoint,
		"item", item,
		"panic", fmt.Sprint(p),
		"stack", string(debug.Stack()),
	)
}

// attachStatSpans renders a query's core.QueryStats as work spans under
// the engine wall span. These durations are *summed work* across fan-out
// workers — under a parallel query they exceed the engine span's wall
// time by design — so each carries a "workers" attribute; only the
// trace's top-level wall spans are expected to sum to the root.
func attachStatSpans(tr *obs.Trace, eng *obs.Span, qs *core.QueryStats) {
	if tr == nil || qs == nil {
		return
	}
	add := func(name string, d time.Duration) *obs.Span {
		sp := tr.AddSpan(eng, name, d)
		sp.SetAttr("workers", qs.Workers)
		return sp
	}
	if qs.MinCandTime > 0 {
		add("plan", qs.MinCandTime)
	}
	if qs.LookupTime > 0 {
		add("filter", qs.LookupTime)
	}
	if qs.VerifyTime > 0 {
		v := add("verify", qs.VerifyTime)
		v.SetAttr("candidates", qs.Candidates)
		v.SetAttr("pruned_trajectories", qs.TrajPruned)
		v.SetAttr("pruned_candidates", qs.CandidatesPruned)
	}
	if qs.TrajQueued > 0 {
		// The driver's work is the three spans above; this one says how
		// much of its queue the lower bounds let it skip.
		topk := add("topk", qs.MinCandTime+qs.LookupTime+qs.VerifyTime)
		topk.SetAttr("queued", qs.TrajQueued)
		topk.SetAttr("verified", qs.TrajVerified)
	}
}

// --- endpoints ------------------------------------------------------------

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WriteTo(w)
}

type debugTracesResponse struct {
	Capacity int               `json:"capacity"`
	Traces   []obs.TraceRecord `json:"traces"`
}

// handleDebugTraces dumps the retained slow-query span trees, newest
// first.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	resp := debugTracesResponse{Capacity: max(s.cfg.TraceBuffer, 0), Traces: s.traces.Snapshot()}
	if resp.Traces == nil {
		resp.Traces = []obs.TraceRecord{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// healthResponse is the /healthz body: liveness plus the readiness facts
// a probe or load balancer actually wants — dataset generation (has the
// instance caught up after a restore?) and uptime.
type healthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Generation    uint64  `json:"generation"`
	Trajectories  int     `json:"trajectories"`
	GPSEnabled    bool    `json:"gps_enabled"`
	// Durable reports write-ahead logging; the remaining fields let a
	// probe confirm a restarted instance actually recovered (how many WAL
	// records were replayed, and to what durable generation).
	Durable           bool   `json:"durable"`
	DurableGeneration uint64 `json:"durable_generation,omitempty"`
	WALRecords        int64  `json:"wal_records,omitempty"`
	RecoveryReplayed  int64  `json:"recovery_replayed_records,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Generation:    s.eng.Generation(),
		Trajectories:  s.eng.NumTrajectories(),
		GPSEnabled:    s.matcher != nil,
	}
	if d := s.eng.Durable(); d != nil {
		ws := d.WALStats()
		resp.Durable = true
		resp.DurableGeneration = ws.Gen
		resp.WALRecords = ws.Records
		resp.RecoveryReplayed = d.ReplayedRecords()
	}
	writeJSON(w, http.StatusOK, resp)
}
