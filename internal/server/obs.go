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
// /healthz. Everything scrape-side reads the *same* atomics /v1/stats
// reads (via CounterFunc/GaugeFunc bridges), so the two surfaces cannot
// drift apart.

// instrumentedEndpoints lists every route the middleware wraps; each gets
// its own request-duration histogram series.
var instrumentedEndpoints = []string{
	"search", "topk", "temporal", "exact", "count",
	"append", "match", "ingest", "batch", "checkpoint",
	"stats", "debug_traces", "healthz",
}

// serverMetrics holds the handles the request path touches directly.
// Scrape-time bridges (request totals, cache/pool/engine gauges, band and
// reuse ratios) live only in the registry. With Config.DisableMetrics the
// registry is nil and every handle below is a nil no-op — the baseline
// the instrumentation-overhead benchmark compares against.
type serverMetrics struct {
	reg *obs.Registry

	reqLatency map[string]*obs.Histogram

	stagePlan   *obs.Histogram
	stageFilter *obs.Histogram
	stageVerify *obs.Histogram
	stageMatch  *obs.Histogram

	matchConfidence *obs.Histogram
	walFsync        *obs.Histogram
}

// newServerMetrics builds the registry over s. It must run after the
// cache, pool, and engine fields are set: the Func bridges capture them.
func newServerMetrics(s *Server) *serverMetrics {
	m := &serverMetrics{reqLatency: make(map[string]*obs.Histogram, len(instrumentedEndpoints))}
	if !s.cfg.DisableMetrics {
		m.reg = obs.NewRegistry()
	}
	r := m.reg // nil-safe: a nil registry hands out nil handles

	cf := func(c *atomic.Int64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}

	// Request traffic. Counts bridge the same per-endpoint atomics
	// /v1/stats reports; durations are observed by the instrument
	// middleware on *every* request, cache hits included.
	for _, ep := range []struct {
		name string
		c    *atomic.Int64
	}{
		{"search", &s.stats.search}, {"topk", &s.stats.topk},
		{"temporal", &s.stats.temporal}, {"exact", &s.stats.exact},
		{"count", &s.stats.count}, {"append", &s.stats.appendN},
		{"match", &s.stats.match}, {"ingest", &s.stats.ingest},
		{"batch", &s.stats.batch},
	} {
		r.CounterFunc("subtraj_requests_total", "Requests received per endpoint.",
			obs.L("endpoint", ep.name), cf(ep.c))
	}
	r.CounterFunc("subtraj_request_errors_total", "Requests answered with an error status.",
		nil, cf(&s.stats.errors))
	for _, ep := range instrumentedEndpoints {
		m.reqLatency[ep] = r.Histogram("subtraj_request_duration_seconds",
			"End-to-end request latency per endpoint, including cache hits.",
			obs.LatencyBuckets, obs.L("endpoint", ep))
	}
	r.CounterFunc("subtraj_slow_queries_total",
		"Requests at or above the slow-query threshold.", nil, cf(&s.stats.slowQueries))

	// Pipeline stages — the paper's filter/verify breakdown as live
	// distributions (plan = min-candidate computation, filter = index
	// lookups, verify = banded DP, match = GPS map matching).
	m.stagePlan = r.Histogram("subtraj_stage_duration_seconds",
		"Per-query pipeline-stage duration (summed work across fan-out workers).",
		obs.LatencyBuckets, obs.L("stage", "plan"))
	m.stageFilter = r.Histogram("subtraj_stage_duration_seconds", "",
		obs.LatencyBuckets, obs.L("stage", "filter"))
	m.stageVerify = r.Histogram("subtraj_stage_duration_seconds", "",
		obs.LatencyBuckets, obs.L("stage", "verify"))
	m.stageMatch = r.Histogram("subtraj_stage_duration_seconds", "",
		obs.LatencyBuckets, obs.L("stage", "match"))

	// Engine state and efficiency ratios — identical arithmetic to the
	// /v1/stats Totals block.
	r.CounterFunc("subtraj_queries_executed_total",
		"Engine-run (non-cached) queries.", nil, cf(&s.stats.executed))
	r.GaugeFunc("subtraj_engine_generation", "Appends applied so far (cache-validity tag).",
		nil, func() float64 { return float64(s.eng.Generation()) })
	r.GaugeFunc("subtraj_engine_trajectories", "Indexed trajectories.",
		nil, func() float64 { return float64(s.eng.NumTrajectories()) })
	r.GaugeFunc("subtraj_index_bytes",
		"Index memory footprint (exact arena size for the compact backend, heap estimate for pointer).",
		obs.L("backend", s.eng.IndexKind()), func() float64 { return float64(s.eng.IndexBytes()) })
	r.GaugeFunc("subtraj_index_bytes_per_trajectory",
		"Index bytes divided by indexed trajectories.",
		obs.L("backend", s.eng.IndexKind()), func() float64 {
			if n := s.eng.NumTrajectories(); n > 0 {
				return float64(s.eng.IndexBytes()) / float64(n)
			}
			return 0
		})
	r.GaugeFunc("subtraj_band_ratio",
		"Fraction of DP cells the banded verification actually computed.",
		nil, func() float64 {
			return ratio(s.stats.cellsComputed.Load(), s.stats.cellsAvail.Load())
		})
	r.GaugeFunc("subtraj_topk_verified_ratio",
		"Fraction of the trajectories queued by top-k queries that had to be verified.",
		nil, func() float64 {
			return ratio(s.stats.topkVerified.Load(), s.stats.topkQueued.Load())
		})
	r.CounterFunc("subtraj_shard_workers_total",
		"Fan-out workers used across executed queries.", nil, cf(&s.stats.shardWorkers))
	r.CounterFunc("subtraj_verifier_pool_gets_total",
		"Verifier checkouts from the process-wide pool.", nil,
		func() float64 { g, _, _ := verify.PoolStats(); return float64(g) })
	r.CounterFunc("subtraj_verifier_pool_news_total",
		"Verifier allocations the pool could not avoid.", nil,
		func() float64 { _, n, _ := verify.PoolStats(); return float64(n) })
	r.GaugeFunc("subtraj_verifier_pool_retained_bytes",
		"Column arena, compiled cost rows and trie node arrays held by idle pooled verifiers.", nil,
		func() float64 { _, _, b := verify.PoolStats(); return float64(b) })

	// Result cache.
	r.CounterFunc("subtraj_cache_hits_total", "Result-cache hits.", nil, cf64(&s.cache.hits))
	r.CounterFunc("subtraj_cache_misses_total", "Result-cache misses.", nil, cf64(&s.cache.misses))
	r.CounterFunc("subtraj_cache_evictions_total", "LRU evictions.", nil, cf64(&s.cache.evictions))
	r.CounterFunc("subtraj_cache_invalidations_total",
		"Entries dropped because the engine generation moved.", nil, cf64(&s.cache.invalidations))
	r.GaugeFunc("subtraj_cache_size", "Current result-cache entries.",
		nil, func() float64 { return float64(s.cache.len()) })
	r.GaugeFunc("subtraj_cache_hit_ratio", "Hits over lookups since start.",
		nil, func() float64 { return ratio(s.cache.hits.Load(), s.cache.hits.Load()+s.cache.misses.Load()) })
	r.CounterFunc("subtraj_cache_hit_queries_total",
		"Query requests answered from the result cache.", nil, cf(&s.stats.cacheHitQueries))

	// Worker pool.
	r.GaugeFunc("subtraj_pool_capacity", "Worker-pool slots.",
		nil, func() float64 { return float64(s.pool.capacity()) })
	r.GaugeFunc("subtraj_pool_in_flight", "Slots currently held.",
		nil, func() float64 { return float64(s.pool.inFlight.Load()) })
	r.CounterFunc("subtraj_pool_waited_total", "Acquisitions that had to block.",
		nil, cf(&s.pool.waited))
	r.CounterFunc("subtraj_pool_rejected_total", "Acquisitions abandoned at the deadline.",
		nil, cf(&s.pool.rejected))

	// GPS pipeline.
	r.GaugeFunc("subtraj_gps_enabled", "1 when the server was built with a map matcher.",
		nil, func() float64 { return boolFloat(s.matcher != nil) })
	r.CounterFunc("subtraj_gps_traces_matched_total", "Traces matched successfully.",
		nil, cf(&s.stats.tracesMatched))
	r.CounterFunc("subtraj_gps_traces_failed_total", "Traces the matcher rejected.",
		nil, cf(&s.stats.tracesFailed))
	r.CounterFunc("subtraj_gps_traces_split_total", "Matched traces that split into segments.",
		nil, cf(&s.stats.tracesSplit))
	r.CounterFunc("subtraj_gps_segments_appended_total", "Matched segments indexed via ingest.",
		nil, cf(&s.stats.segmentsAppended))
	r.CounterFunc("subtraj_gps_trace_queries_total", "Queries posed as raw GPS traces.",
		nil, cf(&s.stats.traceQueries))
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
		nil, cf(&s.pool.shed))
	r.CounterFunc("subtraj_panics_total",
		"Handler panics recovered into 500 responses.", nil, cf(&s.stats.panics))

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
	r.GaugeFunc("subtraj_wal_records", "Records in the write-ahead log (since the last checkpoint).",
		nil, durGauge(func(d *Durability) float64 { return float64(d.WALStats().Records) }))
	r.CounterFunc("subtraj_wal_fsyncs_total", "WAL fsync calls.",
		nil, durGauge(func(d *Durability) float64 { return float64(d.WALStats().Syncs) }))
	r.CounterFunc("subtraj_checkpoints_total", "Completed checkpoints.",
		nil, durGauge(func(d *Durability) float64 { return float64(d.Checkpoints()) }))
	r.CounterFunc("subtraj_checkpoint_errors_total", "Failed checkpoint attempts.",
		nil, durGauge(func(d *Durability) float64 { return float64(d.CheckpointErrors()) }))
	r.GaugeFunc("subtraj_wal_last_checkpoint_generation",
		"Durable generation barrier of the newest snapshot.",
		nil, durGauge(func(d *Durability) float64 { return float64(d.LastCheckpointGen()) }))
	r.GaugeFunc("subtraj_recovery_replayed_records",
		"WAL records startup recovery applied on top of the snapshot.",
		nil, durGauge(func(d *Durability) float64 { return float64(d.ReplayedRecords()) }))
	m.walFsync = r.Histogram("subtraj_wal_fsync_seconds", "WAL fsync latency.",
		obs.LatencyBuckets, nil)
	if d := s.eng.Durable(); d != nil {
		d.SetFsyncObserver(m.walFsync)
	}

	r.GaugeFunc("subtraj_uptime_seconds", "Seconds since the server was built.",
		nil, func() float64 { return time.Since(s.stats.start).Seconds() })

	return m
}

// cf64 bridges an atomic.Int64 owned by another struct (cache, pool).
func cf64(c *atomic.Int64) func() float64 {
	return func() float64 { return float64(c.Load()) }
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// --- request middleware ---------------------------------------------------

// instrument wraps a handler with the per-request observability and
// robustness spine: request ID (echoed in X-Request-ID and carried by
// the trace), a trace in the context for the layers below to hang spans
// on, the configured request deadline (the engine's cancellation points
// observe it and the query answers 504), a panic backstop that converts
// any handler panic — including one re-raised from a fan-out worker — into
// a 500 JSON error instead of a dead process, the endpoint's latency
// histogram (observed for every request — cache hits included, which is
// what makes the histogram the honest end-to-end distribution), and the
// slow-query sink (structured log line plus the debug ring).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.metrics.reqLatency[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
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
						map[string]string{"error": "internal error", "request_id": id})
				}
			}()
			h(w, r.WithContext(ctx))
		}()
		dur := tr.Finish()
		lat.Observe(dur.Seconds())
		if s.cfg.SlowQuery > 0 && dur >= s.cfg.SlowQuery {
			s.stats.slowQueries.Add(1)
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

// recordPanic is what every recover in this package does with what it
// caught: count it (panics and errors) and log it with the stack. item is
// the /v1/batch or /v1/ingest item whose goroutine panicked, -1 when it
// was the handler's own.
func (s *Server) recordPanic(ctx context.Context, endpoint string, item int, p any) {
	s.stats.panics.Add(1)
	s.stats.errors.Add(1)
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
		topk.SetAttr("requeues", qs.Requeues)
	}
}

// --- endpoints ------------------------------------------------------------

// handleMetrics serves the registry in Prometheus text exposition format.
// With metrics disabled the body is empty but the endpoint still answers
// 200, so scrapers see "up with nothing to say" rather than an outage.
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
	resp := debugTracesResponse{Traces: []obs.TraceRecord{}}
	if s.traces != nil {
		resp.Capacity = s.cfg.TraceBuffer
		if recs := s.traces.Snapshot(); recs != nil {
			resp.Traces = recs
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// healthResponse is the /healthz body: liveness plus the readiness facts
// a probe or load balancer actually wants — dataset generation (has the
// instance caught up after a restore?), uptime, and whether the temporal
// index is built.
type healthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Generation    uint64  `json:"generation"`
	Trajectories  int     `json:"trajectories"`
	TemporalReady bool    `json:"temporal_ready"`
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
		UptimeSeconds: time.Since(s.stats.start).Seconds(),
		Generation:    s.eng.Generation(),
		Trajectories:  s.eng.NumTrajectories(),
		TemporalReady: s.eng.TemporalReady(),
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
