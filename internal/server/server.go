package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"subtraj/internal/core"
	"subtraj/internal/filter"
	"subtraj/internal/mapmatch"
	"subtraj/internal/obs"
	"subtraj/internal/traj"
)

// Config parameterises a Server. The zero value selects production-ready
// defaults.
type Config struct {
	// CacheSize is the LRU result-cache capacity in entries (0 = default
	// 1024; negative disables caching).
	CacheSize int
	// MaxConcurrent bounds in-flight engine queries — the worker-pool
	// size (0 = default 2×GOMAXPROCS).
	MaxConcurrent int
	// MaxQueryLen rejects queries longer than this many symbols (0 =
	// default 4096).
	MaxQueryLen int
	// MaxBatch rejects batch requests with more subqueries than this
	// (0 = default 64).
	MaxBatch int
	// MaxK rejects top-k requests with k beyond this (0 = default 1000).
	MaxK int
	// MaxBodyBytes caps request body size (0 = default 8 MiB).
	MaxBodyBytes int64
	// MaxSymbol rejects query/append symbols outside [0, MaxSymbol).
	// Cost models index per-symbol tables directly, so an out-of-alphabet
	// symbol from untrusted JSON would panic the engine; set this to the
	// alphabet size (vertex or edge count). 0 disables the upper-bound
	// check — negative symbols are always rejected.
	MaxSymbol int32
	// MaxParallelism caps the intra-query fan-out per request (0 = one
	// worker per CPU). Fan-out workers draw from the same worker pool as
	// requests: a query holds its own pool slot and grabs up to
	// MaxParallelism−1 extra slots non-blockingly, so total engine-side
	// concurrency never exceeds MaxConcurrent however requests and
	// fan-outs mix. It is a cap: the engine sizes each query's fan-out
	// from its estimated work and answers small queries on one
	// goroutine whatever is borrowed. 1 forces the sequential path.
	MaxParallelism int
	// Matcher enables the GPS-native surface: POST /v1/match, POST
	// /v1/ingest, and the "trace" alternative to "q" on query bodies.
	// It must be built over the same road network as the engine's
	// dataset. nil leaves GPS requests answering 501.
	Matcher *mapmatch.Matcher
	// MaxTraceLen rejects raw GPS traces with more samples than this
	// (0 = default 16384). Traces oversample paths (several samples per
	// edge), so the cap is independent of MaxQueryLen.
	MaxTraceLen int
	// RequestTimeout bounds one request end to end: the context handed to
	// handlers (and, through the engine's cancellation points, to the
	// verification loops) expires after it, and the request answers 504.
	// 0 disables the server-side deadline — client disconnects still
	// cancel.
	RequestTimeout time.Duration
	// QueueWait bounds how long a request may wait for a worker-pool slot
	// before being shed with a fast 503 + Retry-After (0 = default 1s;
	// negative = wait until the request context is done, the pre-shedding
	// behavior).
	QueueWait time.Duration
	// SlowQuery is the slow-query threshold: requests at or above it are
	// written to the structured slow-query log (with their span
	// breakdown and request ID) and retained in the /v1/debug/traces
	// ring. 0 = default 250ms; negative disables both.
	SlowQuery time.Duration
	// TraceBuffer is the /v1/debug/traces ring capacity — how many slow
	// queries' span trees are retained (0 = default 64; negative
	// disables retention).
	TraceBuffer int
	// Logger receives the structured slow-query log (nil = slog.Default()).
	Logger *slog.Logger
	// DisableMetrics turns the /metrics registry off: every metric handle
	// is nil (a no-op), /metrics serves an empty payload, and /v1/stats
	// omits the latency block. This is the baseline the instrumentation-
	// overhead benchmark compares the enabled path against.
	DisableMetrics bool
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueryLen <= 0 {
		c.MaxQueryLen = 4096
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxTraceLen <= 0 {
		c.MaxTraceLen = 16384
	}
	if c.QueueWait == 0 {
		c.QueueWait = time.Second
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = 250 * time.Millisecond
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 64
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the HTTP query-serving front end over one SafeEngine:
//
//	POST /v1/search    similarity search (tau or tau_ratio)
//	POST /v1/topk      top-k most similar trajectories
//	POST /v1/temporal  temporally constrained search
//	POST /v1/exact     exact subtrajectory matches
//	POST /v1/count     exact-occurrence count (path popularity)
//	POST /v1/append    index one more trajectory
//	POST /v1/match     map-match a raw GPS trace to network symbols
//	POST /v1/ingest    batch of raw traces → match → append segments
//	POST /v1/batch     several of the above in one request
//	GET  /v1/stats     running counters (queries, cache, pool, GPS, engine)
//	GET  /healthz      liveness probe
//
// Query bodies accept "trace" (raw GPS samples, [[x,y],...]) in place of
// "q" when the server was built with a map matcher.
//
// All request and response bodies are JSON. Client errors (malformed
// JSON, validation failures, infeasible τ) map to 400; pool saturation
// past the request deadline maps to 503; everything else to 500.
type Server struct {
	eng     *SafeEngine
	cache   *resultCache
	pool    *workerPool
	matcher *mapmatch.Matcher
	cfg     Config
	mux     *http.ServeMux
	stats   counters
	metrics *serverMetrics
	traces  *obs.TraceRing
}

// counters aggregates per-endpoint request counts and the engine's
// QueryStats instrumentation as running totals for /v1/stats.
type counters struct {
	start time.Time

	search, topk, temporal, exact, count, appendN, batch atomic.Int64
	match, ingest                                        atomic.Int64
	errors                                               atomic.Int64
	executed                                             atomic.Int64 // engine-run (non-cached) queries

	candidates, matches                    atomic.Int64
	trajPruned, candidatesPruned           atomic.Int64
	minCandNS, lookupNS, verifyNS          atomic.Int64
	columnsVisited, columnsAvail, stepDPs  atomic.Int64
	cellsComputed, cellsAvail              atomic.Int64
	shardWorkers, parallelQueries          atomic.Int64
	topkQueued, topkVerified, topkRequeues atomic.Int64

	// GPS pipeline counters (see gps.go).
	tracesMatched, tracesFailed, tracesSplit atomic.Int64
	segmentsAppended, traceQueries           atomic.Int64
	matchNS                                  atomic.Int64

	// cacheHitQueries counts query requests answered from the result
	// cache (the complement of executed over query traffic); slowQueries
	// counts requests at or above the slow-query threshold.
	cacheHitQueries atomic.Int64
	slowQueries     atomic.Int64

	// panics counts handler panics the instrument middleware recovered
	// into 500 responses; checkpoint counts /v1/checkpoint requests.
	panics     atomic.Int64
	checkpoint atomic.Int64
}

// New builds a Server over eng.
func New(eng *SafeEngine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:     eng,
		cache:   newResultCache(cfg.CacheSize),
		pool:    newWorkerPool(cfg.MaxConcurrent, cfg.QueueWait),
		matcher: cfg.Matcher,
		cfg:     cfg,
	}
	s.stats.start = time.Now()
	if cfg.TraceBuffer > 0 {
		s.traces = obs.NewTraceRing(cfg.TraceBuffer)
	}
	s.metrics = newServerMetrics(s)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/search", s.instrument("search", s.handleQuery("search", &s.stats.search)))
	s.mux.HandleFunc("POST /v1/topk", s.instrument("topk", s.handleQuery("topk", &s.stats.topk)))
	s.mux.HandleFunc("POST /v1/temporal", s.instrument("temporal", s.handleQuery("temporal", &s.stats.temporal)))
	s.mux.HandleFunc("POST /v1/exact", s.instrument("exact", s.handleQuery("exact", &s.stats.exact)))
	s.mux.HandleFunc("POST /v1/count", s.instrument("count", s.handleQuery("count", &s.stats.count)))
	s.mux.HandleFunc("POST /v1/append", s.instrument("append", s.handleAppend))
	s.mux.HandleFunc("POST /v1/match", s.instrument("match", s.handleMatch))
	s.mux.HandleFunc("POST /v1/ingest", s.instrument("ingest", s.handleIngest))
	s.mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("POST /v1/checkpoint", s.instrument("checkpoint", s.handleCheckpoint))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("GET /v1/debug/traces", s.instrument("debug_traces", s.handleDebugTraces))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Engine returns the wrapped safe engine.
func (s *Server) Engine() *SafeEngine { return s.eng }

// --- request / response shapes ------------------------------------------

// queryRequest is the body of every read endpoint; Kind selects the
// operation inside /v1/batch (the dedicated endpoints fix it). Exactly
// one of Q and Trace identifies the query: Trace is a raw GPS trace that
// is map-matched first (its longest connected segment becomes the symbol
// query), so GPS-native clients query without speaking vertex IDs.
type queryRequest struct {
	Kind     string        `json:"kind,omitempty"`
	Q        []traj.Symbol `json:"q"`
	Trace    []tracePoint  `json:"trace,omitempty"`
	Tau      float64       `json:"tau,omitempty"`
	TauRatio float64       `json:"tau_ratio,omitempty"`
	K        int           `json:"k,omitempty"`
	// Temporal window (kind "temporal").
	Lo          float64 `json:"lo,omitempty"`
	Hi          float64 `json:"hi,omitempty"`
	Mode        string  `json:"mode,omitempty"` // overlap (default) | contain | departure
	NoPrefilter bool    `json:"no_prefilter,omitempty"`
}

type matchJSON struct {
	ID  int32   `json:"id"`
	S   int32   `json:"s"`
	T   int32   `json:"t"`
	WED float64 `json:"wed"`
}

type queryStatsJSON struct {
	SubseqLen  int   `json:"subseq_len"`
	Candidates int   `json:"candidates"`
	MinCandNS  int64 `json:"mincand_ns"`
	LookupNS   int64 `json:"lookup_ns"`
	VerifyNS   int64 `json:"verify_ns"`
	// The trajectory-level pre-filter: |Q⁺|, and the trajectories and
	// candidates it dropped before verification.
	PlusLen            int `json:"plus_len"`
	PrunedTrajectories int `json:"pruned_trajectories"`
	PrunedCandidates   int `json:"pruned_candidates"`
	// Top-k driver fields (absent for plain searches): trajectories put
	// on the best-first queue, those verified at least once, and how often
	// one went back on the queue under a tighter bound.
	Queued   int `json:"queued,omitempty"`
	Verified int `json:"verified,omitempty"`
	Requeues int `json:"requeues,omitempty"`
}

type queryResponse struct {
	Matches []matchJSON     `json:"matches,omitempty"`
	Count   int             `json:"count"`
	Tau     float64         `json:"tau,omitempty"` // resolved absolute τ
	Cached  bool            `json:"cached"`
	Stats   *queryStatsJSON `json:"stats,omitempty"`
	// GPS trace queries only: the symbols the trace resolved to and the
	// match quality, so clients can audit what was actually searched.
	ResolvedQ       []traj.Symbol `json:"resolved_q,omitempty"`
	MatchConfidence float64       `json:"match_confidence,omitempty"`
	MatchSplits     int           `json:"match_splits,omitempty"`
	// Trace is the request's span tree, present only with ?debug=trace.
	// Top-level children are wall spans that sum to the root's duration;
	// spans carrying a "workers" attribute are summed work across
	// fan-out workers (see internal/obs).
	Trace *obs.SpanJSON `json:"trace,omitempty"`
}

// httpError carries the status a handler should answer with.
// retryAfterSec, when positive, becomes a Retry-After header — shed
// requests tell well-behaved clients when to come back.
type httpError struct {
	code          int
	msg           string
	retryAfterSec int
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// --- handlers ------------------------------------------------------------

func (s *Server) handleQuery(kind string, counter *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		counter.Add(1)
		tr := obs.FromContext(r.Context())
		dec := tr.StartSpan(nil, "decode")
		var req queryRequest
		err := s.decode(w, r, &req)
		dec.End()
		if err != nil {
			s.fail(w, err)
			return
		}
		req.Kind = kind
		resp, err := s.execute(r.Context(), &req)
		if err != nil {
			s.fail(w, err)
			return
		}
		if r.URL.Query().Get("debug") == "trace" {
			// Finish before encoding: the root duration then brackets
			// exactly the spans in the tree (its top-level children sum to
			// it), and the instrument middleware's later Finish keeps this
			// value for the latency histogram.
			tr.Finish()
			resp.Trace = tr.JSON()
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

type appendRequest struct {
	Path  []traj.Symbol `json:"path"`
	Times []float64     `json:"times,omitempty"`
}

type appendResponse struct {
	ID         int32  `json:"id"`
	Generation uint64 `json:"generation"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	s.stats.appendN.Add(1)
	var req appendRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if err := s.validateAppend(&req); err != nil {
		s.fail(w, err)
		return
	}
	id, err := s.eng.Append(traj.Trajectory{Path: req.Path, Times: req.Times})
	if err != nil {
		// The write-ahead log refused the record: nothing was applied and
		// the client must not treat the append as durable.
		s.fail(w, &httpError{code: http.StatusInternalServerError, msg: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, appendResponse{ID: id, Generation: s.eng.Generation()})
}

// handleCheckpoint forces a checkpoint: snapshot the appended tail,
// persist the index (compact backends), truncate the WAL. 501 on a
// volatile engine, 409 when one is already running.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	s.stats.checkpoint.Add(1)
	res, err := s.eng.Checkpoint()
	switch {
	case errors.Is(err, ErrNotDurable):
		s.fail(w, &httpError{code: http.StatusNotImplemented, msg: err.Error()})
	case errors.Is(err, ErrCheckpointBusy):
		s.fail(w, &httpError{code: http.StatusConflict, msg: err.Error()})
	case err != nil:
		s.fail(w, &httpError{code: http.StatusInternalServerError, msg: err.Error()})
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

type batchRequest struct {
	Queries []queryRequest `json:"queries"`
}

type batchItemResponse struct {
	*queryResponse
	Error string `json:"error,omitempty"`
}

type batchResponse struct {
	Results []batchItemResponse `json:"results"`
}

// handleBatch fans the subqueries out through the worker pool and returns
// per-item results in request order; one bad subquery fails alone, not
// the whole batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.stats.batch.Add(1)
	var req batchRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, badRequest("empty batch"))
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		s.fail(w, badRequest("batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	results := make([]batchItemResponse, len(req.Queries))
	var wg sync.WaitGroup
	for i := range req.Queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// net/http's panic recovery only covers the handler's own
			// goroutine; without this, one panicking subquery would kill
			// the whole process instead of one batch item.
			defer func() {
				if p := recover(); p != nil {
					s.recordPanic(r.Context(), "batch", i, p)
					results[i].Error = fmt.Sprintf("internal error: %v", p)
				}
			}()
			resp, err := s.execute(r.Context(), &req.Queries[i])
			if err != nil {
				s.stats.errors.Add(1)
				results[i].Error = err.Error()
				return
			}
			results[i].queryResponse = resp
		}(i)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, batchResponse{Results: results})
}

// --- query execution -----------------------------------------------------

// execute validates req, consults the cache, and otherwise runs the query
// inside a worker-pool slot. A raw GPS trace is map-matched to symbols
// first (inside its own pool slot), after which the request is
// indistinguishable from a symbol query — including its cache key, so a
// trace query and its ground-truth symbol query share cache entries.
func (s *Server) execute(ctx context.Context, req *queryRequest) (*queryResponse, error) {
	tr := obs.FromContext(ctx)
	var matched *mapmatch.Result
	if len(req.Trace) > 0 {
		rt := tr.StartSpan(nil, "resolve_trace")
		var err error
		matched, err = s.resolveTrace(ctx, req)
		rt.End()
		if err != nil {
			return nil, err
		}
		// The matcher's own wall time nests under the resolve span (the
		// remainder is pool queueing plus symbol conversion).
		tr.AddSpan(rt, "map_match", matched.Elapsed).SetAttr("confidence", matched.Confidence)
	}
	if err := s.validateQuery(req); err != nil {
		return nil, err
	}

	// Resolve tau_ratio to an absolute τ first: the cache key and the
	// engine both want the absolute form.
	tau := req.Tau
	if req.TauRatio > 0 {
		tau = s.eng.Threshold(req.Q, req.TauRatio)
	}

	mode, err := temporalMode(req.Mode)
	if err != nil {
		return nil, err
	}

	var key string
	switch req.Kind {
	case "search":
		key = cacheKey("search", req.Q, tau)
	case "topk":
		key = cacheKey("topk", req.Q, float64(req.K))
	case "temporal":
		key = cacheKey("temporal", req.Q, tau, req.Lo, req.Hi, float64(mode), boolFloat(req.NoPrefilter))
	case "exact":
		key = cacheKey("exact", req.Q)
	case "count":
		key = cacheKey("count", req.Q)
	}

	lookup := tr.StartSpan(nil, "cache_lookup")
	gen := s.eng.Generation()
	ent, hit := s.cache.get(key, gen)
	lookup.End()
	lookup.SetAttr("hit", hit)
	if hit {
		s.stats.cacheHitQueries.Add(1)
		// ent.tau is the τ the computed response reported — for top-k the
		// driver's final effective threshold, which the request itself
		// does not carry, so cached hits must replay it from the entry.
		resp := &queryResponse{Count: ent.count, Tau: ent.tau, Cached: true}
		if req.Kind != "count" {
			resp.Matches = toMatchJSON(ent.matches)
		}
		attachMatchMeta(resp, req, matched)
		return resp, nil
	}

	var (
		matches []traj.Match
		n       int
		qstats  *core.QueryStats
		qerr    error
		engSpan *obs.Span
	)
	poolSpan := tr.StartSpan(nil, "pool_wait")
	perr := s.pool.do(ctx, func() {
		poolSpan.End()
		engSpan = tr.StartSpan(nil, "engine")
		defer engSpan.End()
		// The request's own pool slot is one fan-out worker; borrow up to
		// parallelism−1 extras from the same pool (non-blocking), so
		// intra-query fan-out and cross-query requests share one global
		// concurrency budget. Exact/count lookups never fan out, so they
		// must not reserve slots other requests could use.
		par := 1
		usesParallelism := req.Kind == "search" || req.Kind == "topk" || req.Kind == "temporal"
		if want := s.queryParallelism(); usesParallelism && want > 1 {
			extra := s.pool.tryAcquireN(want - 1)
			defer s.pool.releaseN(extra)
			par += extra
		}
		switch req.Kind {
		case "search":
			matches, qstats, qerr = s.eng.SearchQuery(core.Query{Q: req.Q, Tau: tau, Parallelism: par, Ctx: ctx})
		case "topk":
			matches, qstats, qerr = s.eng.SearchTopKStats(req.Q, req.K, core.TopKOptions{Parallelism: par, Ctx: ctx})
		case "temporal":
			qr := core.Query{Q: req.Q, Tau: tau, Parallelism: par, Ctx: ctx}
			qr.Temporal.Mode = mode
			qr.Temporal.Lo, qr.Temporal.Hi = req.Lo, req.Hi
			qr.Temporal.DisablePrefilter = req.NoPrefilter
			matches, qstats, qerr = s.eng.SearchQuery(qr)
		case "exact":
			matches, qerr = s.eng.SearchExact(req.Q)
		case "count":
			n, qerr = s.eng.CountExact(req.Q)
		}
		// par is what the query may use; what it did use — the engine
		// keeps a small query on this goroutine — is qstats.Workers.
		workers := 1
		if qstats != nil {
			workers = qstats.Workers
		}
		engSpan.SetAttr("parallelism", workers)
	})
	if perr != nil {
		poolSpan.End() // never acquired a slot; close the wait span
		if cerr := ctx.Err(); cerr != nil {
			// The request's own deadline (or the client) gave up while
			// queued — a timeout, not an overload signal.
			return nil, mapEngineError(cerr)
		}
		return nil, &httpError{code: http.StatusServiceUnavailable, msg: perr.Error(), retryAfterSec: 1}
	}
	if qerr != nil {
		return nil, mapEngineError(qerr)
	}
	// Post-engine bookkeeping (stat recording, cache fill, response
	// assembly) gets its own wall span so the top-level spans keep summing
	// to the request latency even when the engine phase is short.
	fin := tr.StartSpan(nil, "finalize")
	defer fin.End()
	attachStatSpans(tr, engSpan, qstats)
	s.stats.executed.Add(1)
	if req.Kind != "count" {
		n = len(matches)
	}
	s.stats.matches.Add(int64(n))
	s.recordQueryStats(qstats)
	if req.Kind == "topk" && qstats != nil {
		// A top-k request carries no τ; report the driver's final
		// effective threshold — the radius below which the answer is
		// provably complete.
		tau = qstats.EffectiveTau
	}

	// Tag the entry with the generation read *before* the query ran: if an
	// Append raced with us the entry is already stale and dies on lookup.
	s.cache.put(&cacheEntry{key: key, gen: gen, matches: matches, count: n, tau: tau})

	resp := &queryResponse{Count: n, Tau: tau}
	if req.Kind != "count" {
		resp.Matches = toMatchJSON(matches)
	}
	attachMatchMeta(resp, req, matched)
	if qstats != nil {
		resp.Stats = &queryStatsJSON{
			SubseqLen:          qstats.SubseqLen,
			Candidates:         qstats.Candidates,
			PlusLen:            qstats.PlusLen,
			PrunedTrajectories: qstats.TrajPruned,
			PrunedCandidates:   qstats.CandidatesPruned,
			MinCandNS:          qstats.MinCandTime.Nanoseconds(),
			LookupNS:           qstats.LookupTime.Nanoseconds(),
			VerifyNS:           qstats.VerifyTime.Nanoseconds(),
			Queued:             qstats.TrajQueued,
			Verified:           qstats.TrajVerified,
			Requeues:           qstats.Requeues,
		}
	}
	return resp, nil
}

// queryParallelism returns the most workers one query may use — the
// engine's own resolution of the configured MaxParallelism (0 = auto),
// so the slots reserved here bound the workers the engine starts.
func (s *Server) queryParallelism() int {
	return core.EffectiveParallelism(s.cfg.MaxParallelism)
}

func (s *Server) recordQueryStats(qs *core.QueryStats) {
	if qs == nil {
		return
	}
	s.stats.shardWorkers.Add(int64(qs.Workers))
	if qs.Workers > 1 {
		s.stats.parallelQueries.Add(1)
	}
	s.stats.candidates.Add(int64(qs.Candidates))
	s.stats.trajPruned.Add(int64(qs.TrajPruned))
	s.stats.candidatesPruned.Add(int64(qs.CandidatesPruned))
	s.stats.minCandNS.Add(qs.MinCandTime.Nanoseconds())
	s.stats.lookupNS.Add(qs.LookupTime.Nanoseconds())
	s.stats.verifyNS.Add(qs.VerifyTime.Nanoseconds())
	s.stats.columnsVisited.Add(qs.Verify.ColumnsVisited)
	s.stats.columnsAvail.Add(qs.Verify.ColumnsAvailable)
	s.stats.stepDPs.Add(qs.Verify.StepDPCalls)
	s.stats.cellsComputed.Add(qs.Verify.CellsComputed)
	s.stats.cellsAvail.Add(qs.Verify.CellsAvailable)
	s.stats.topkQueued.Add(int64(qs.TrajQueued))
	s.stats.topkVerified.Add(int64(qs.TrajVerified))
	s.stats.topkRequeues.Add(int64(qs.Requeues))
	s.metrics.stagePlan.Observe(qs.MinCandTime.Seconds())
	s.metrics.stageFilter.Observe(qs.LookupTime.Seconds())
	s.metrics.stageVerify.Observe(qs.VerifyTime.Seconds())
}

// --- validation and error mapping ---------------------------------------

func (s *Server) validateQuery(req *queryRequest) error {
	switch req.Kind {
	case "search", "topk", "temporal", "exact", "count":
	default:
		return badRequest("unknown query kind %q", req.Kind)
	}
	if len(req.Q) == 0 {
		return badRequest("empty query: provide q (symbols) or trace (GPS samples)")
	}
	if len(req.Q) > s.cfg.MaxQueryLen {
		return badRequest("query of %d symbols exceeds limit %d", len(req.Q), s.cfg.MaxQueryLen)
	}
	if err := s.validateSymbols(req.Q); err != nil {
		return err
	}
	switch req.Kind {
	case "search", "temporal":
		if req.Tau <= 0 && req.TauRatio <= 0 {
			return badRequest("one of tau or tau_ratio must be positive")
		}
		if req.Tau > 0 && req.TauRatio > 0 {
			return badRequest("tau and tau_ratio are mutually exclusive")
		}
		if req.TauRatio > 1 {
			return badRequest("tau_ratio %g out of range (0, 1]", req.TauRatio)
		}
	case "topk":
		if req.K <= 0 {
			return badRequest("k must be positive")
		}
		if req.K > s.cfg.MaxK {
			return badRequest("k = %d exceeds limit %d", req.K, s.cfg.MaxK)
		}
	}
	if req.Kind == "temporal" && req.Hi < req.Lo {
		return badRequest("temporal window [%g, %g] is empty", req.Lo, req.Hi)
	}
	return nil
}

func (s *Server) validateAppend(req *appendRequest) error {
	if len(req.Path) == 0 {
		return badRequest("empty trajectory path")
	}
	if len(req.Path) > s.cfg.MaxQueryLen {
		return badRequest("path of %d symbols exceeds limit %d", len(req.Path), s.cfg.MaxQueryLen)
	}
	if err := s.validateSymbols(req.Path); err != nil {
		return err
	}
	if len(req.Times) > 0 {
		// Vertex representation carries one timestamp per vertex; edge
		// representation one per vertex of the underlying path, i.e.
		// len(path)+1 (see traj.Trajectory.Times).
		want := len(req.Path)
		if s.eng.Unsafe().Dataset().Rep == traj.EdgeRep {
			want++
		}
		if len(req.Times) != want {
			return badRequest("got %d timestamps, want %d (or none)", len(req.Times), want)
		}
		for i := 1; i < len(req.Times); i++ {
			if req.Times[i] < req.Times[i-1] {
				return badRequest("timestamps must be non-decreasing (times[%d] < times[%d])", i, i-1)
			}
		}
	}
	return nil
}

// validateSymbols rejects symbols the cost model could not index.
func (s *Server) validateSymbols(q []traj.Symbol) error {
	for i, sym := range q {
		if sym < 0 {
			return badRequest("symbol %d at position %d is negative", sym, i)
		}
		if s.cfg.MaxSymbol > 0 && sym >= s.cfg.MaxSymbol {
			return badRequest("symbol %d at position %d outside alphabet [0, %d)", sym, i, s.cfg.MaxSymbol)
		}
	}
	return nil
}

func temporalMode(s string) (core.TemporalMode, error) {
	switch s {
	case "", "overlap":
		return core.TemporalOverlap, nil
	case "contain":
		return core.TemporalContain, nil
	case "departure":
		return core.TemporalDeparture, nil
	default:
		return 0, badRequest("unknown temporal mode %q", s)
	}
}

// mapEngineError classifies engine failures: ill-posed query parameters
// are the client's fault, an expired deadline is a timeout (504), a
// canceled context means the client hung up (the response is best-effort
// 503), anything else is ours.
func mapEngineError(err error) error {
	var infeasible filter.ErrInfeasible
	if errors.Is(err, core.ErrEmptyQuery) || errors.Is(err, core.ErrTauTooLarge) || errors.As(err, &infeasible) {
		return &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &httpError{code: http.StatusGatewayTimeout, msg: err.Error()}
	}
	if errors.Is(err, context.Canceled) {
		return &httpError{code: http.StatusServiceUnavailable, msg: err.Error()}
	}
	return &httpError{code: http.StatusInternalServerError, msg: err.Error()}
}

// --- stats ---------------------------------------------------------------

// StatsSnapshot is the /v1/stats response.
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Engine        struct {
		Trajectories int    `json:"trajectories"`
		Generation   uint64 `json:"generation"`
		// IndexBackend names the index family ("pointer" or "compact");
		// IndexBytes is its memory footprint (exact arena size for
		// compact, heap estimate for pointer) and BytesPerTrajectory the
		// same divided by the trajectory count — the benchmark's
		// index.bytes_per_traj(_compact).
		IndexBackend       string  `json:"index_backend"`
		IndexBytes         int64   `json:"index_bytes"`
		BytesPerTrajectory float64 `json:"bytes_per_trajectory"`
	} `json:"engine"`
	// Ingest reports the epoch-snapshot write path: how much of the
	// published view lives in the frozen base vs the append delta, and
	// how often the background compactor has folded and republished.
	Ingest struct {
		// FoldedTrajectories / DeltaTrajectories partition the published
		// dataset: folded ones are in the frozen base, delta ones in the
		// per-publish rebuilt tail index.
		FoldedTrajectories int `json:"folded_trajectories"`
		DeltaTrajectories  int `json:"delta_trajectories"`
		// CompactAppends is the delta size that triggers a background
		// fold (0 = automatic compaction disabled).
		CompactAppends int `json:"compact_appends"`
		// Compactions counts completed folds; SnapshotPublishes counts
		// published snapshots (one per append batch, fold, and compact
		// checkpoint, plus snapshot zero).
		Compactions       int64 `json:"compactions"`
		SnapshotPublishes int64 `json:"snapshot_publishes"`
		// LastCompactionMS is the wall time of the most recent fold.
		LastCompactionMS float64 `json:"last_compaction_ms"`
	} `json:"ingest"`
	Requests struct {
		Search   int64 `json:"search"`
		TopK     int64 `json:"topk"`
		Temporal int64 `json:"temporal"`
		Exact    int64 `json:"exact"`
		Count    int64 `json:"count"`
		Append   int64 `json:"append"`
		Match    int64 `json:"match"`
		Ingest   int64 `json:"ingest"`
		Batch    int64 `json:"batch"`
		Errors   int64 `json:"errors"`
		// Slow counts requests at or above the configured slow-query
		// threshold (the ones retained by /v1/debug/traces).
		Slow int64 `json:"slow"`
		// Panics counts handler panics recovered into 500s; Checkpoint
		// counts /v1/checkpoint requests.
		Panics     int64 `json:"panics"`
		Checkpoint int64 `json:"checkpoint"`
	} `json:"requests"`
	// GPS aggregates the map-matching pipeline: every matcher run —
	// whether from /v1/match, /v1/ingest, or a trace-carrying query —
	// lands in exactly one of TracesMatched/TracesFailed, and MatchNS
	// sums wall-clock matching time (MeanMatchNS = MatchNS over both
	// outcomes).
	GPS struct {
		Enabled          bool  `json:"enabled"`
		TracesMatched    int64 `json:"traces_matched"`
		TracesFailed     int64 `json:"traces_failed"`
		TracesSplit      int64 `json:"traces_split"`
		SegmentsAppended int64 `json:"segments_appended"`
		TraceQueries     int64 `json:"trace_queries"`
		MatchNS          int64 `json:"match_ns"`
		MeanMatchNS      int64 `json:"mean_match_ns"`
	} `json:"gps"`
	Cache struct {
		Size          int   `json:"size"`
		Capacity      int   `json:"capacity"`
		Hits          int64 `json:"hits"`
		Misses        int64 `json:"misses"`
		Evictions     int64 `json:"evictions"`
		Invalidations int64 `json:"invalidations"`
		// HitRatio is hits / (hits + misses) since start — the same value
		// /metrics exports as subtraj_cache_hit_ratio.
		HitRatio float64 `json:"hit_ratio"`
	} `json:"cache"`
	Pool struct {
		Capacity int   `json:"capacity"`
		InFlight int64 `json:"in_flight"`
		Waited   int64 `json:"waited"`
		Rejected int64 `json:"rejected"`
		// Shed counts the subset of rejections caused by the queue-wait
		// bound — fast 503s under sustained overload.
		Shed int64 `json:"shed"`
	} `json:"pool"`
	// Durability reports the write-ahead-log state; all-zero (Enabled
	// false) on a volatile engine.
	Durability struct {
		Enabled           bool   `json:"enabled"`
		SyncPolicy        string `json:"sync_policy,omitempty"`
		WALBytes          int64  `json:"wal_bytes"`
		WALRecords        int64  `json:"wal_records"`
		WALSyncs          int64  `json:"wal_syncs"`
		Generation        uint64 `json:"generation"`
		Checkpoints       int64  `json:"checkpoints"`
		CheckpointErrors  int64  `json:"checkpoint_errors"`
		LastCheckpointGen uint64 `json:"last_checkpoint_generation"`
		SnapshotRecords   int64  `json:"snapshot_records"`
		RecoveryReplayed  int64  `json:"recovery_replayed_records"`
	} `json:"durability"`
	Totals struct {
		Executed         int64 `json:"executed"`
		Candidates       int64 `json:"candidates"`
		Matches          int64 `json:"matches"`
		MinCandNS        int64 `json:"mincand_ns"`
		LookupNS         int64 `json:"lookup_ns"`
		VerifyNS         int64 `json:"verify_ns"`
		ColumnsVisited   int64 `json:"columns_visited"`
		ColumnsAvailable int64 `json:"columns_available"`
		StepDPCalls      int64 `json:"step_dp_calls"`
		// What the trajectory-level pre-filter dropped before any DP,
		// summed: trajectories, and the candidates they would have brought.
		PrunedTrajectories int64 `json:"pruned_trajectories"`
		PrunedCandidates   int64 `json:"pruned_candidates"`
		// CellsComputed/CellsAvailable are the cell-level band counters
		// of the τ-banded verification; BandRatio is their quotient (the
		// fraction of DP cells the banded columns actually evaluated).
		CellsComputed  int64   `json:"cells_computed"`
		CellsAvailable int64   `json:"cells_available"`
		UPR            float64 `json:"upr"`
		CMR            float64 `json:"cmr"`
		BandRatio      float64 `json:"band_ratio"`
		// ShardWorkers sums the workers executed queries used
		// (QueryStats.Workers); ParallelQueries counts the queries that
		// used more than one — not the ones that merely had pool slots
		// to spare: the engine fans out only queries whose estimated
		// work pays for it. Every executed query of every kind reports
		// its workers through the same QueryStats path, so
		// ShardWorkers ≥ Executed and the two stay consistent.
		ShardWorkers    int64 `json:"shard_workers"`
		ParallelQueries int64 `json:"parallel_queries"`
		// The best-first queue of executed top-k queries, summed:
		// trajectories queued, trajectories verified at least once (the
		// rest were dropped on their lower bound), and re-queues.
		TopKQueued   int64 `json:"topk_queued"`
		TopKVerified int64 `json:"topk_verified"`
		TopKRequeues int64 `json:"topk_requeues"`
	} `json:"totals"`
	// Latency summarizes each endpoint's request-duration histogram — the
	// very histograms /metrics exposes, so the two surfaces report the
	// same percentiles. Absent when metrics are disabled; endpoints with
	// no traffic are omitted.
	Latency map[string]LatencySummary `json:"latency,omitempty"`
}

// LatencySummary is the /v1/stats per-endpoint latency block: request
// count and estimated percentiles in milliseconds.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// Snapshot assembles the current running counters.
func (s *Server) Snapshot() StatsSnapshot {
	var out StatsSnapshot
	out.UptimeSeconds = time.Since(s.stats.start).Seconds()
	out.Engine.Trajectories = s.eng.NumTrajectories()
	out.Engine.Generation = s.eng.Generation()
	out.Engine.IndexBackend = s.eng.IndexKind()
	out.Engine.IndexBytes = s.eng.IndexBytes()
	if out.Engine.Trajectories > 0 {
		out.Engine.BytesPerTrajectory = float64(out.Engine.IndexBytes) / float64(out.Engine.Trajectories)
	}
	out.Ingest.FoldedTrajectories = s.eng.FoldedLen()
	out.Ingest.DeltaTrajectories = s.eng.DeltaLen()
	out.Ingest.CompactAppends = s.eng.CompactAppends()
	out.Ingest.Compactions = s.eng.Compactions()
	out.Ingest.SnapshotPublishes = s.eng.Publishes()
	out.Ingest.LastCompactionMS = s.eng.LastCompactionMS()
	out.Requests.Search = s.stats.search.Load()
	out.Requests.TopK = s.stats.topk.Load()
	out.Requests.Temporal = s.stats.temporal.Load()
	out.Requests.Exact = s.stats.exact.Load()
	out.Requests.Count = s.stats.count.Load()
	out.Requests.Append = s.stats.appendN.Load()
	out.Requests.Match = s.stats.match.Load()
	out.Requests.Ingest = s.stats.ingest.Load()
	out.Requests.Batch = s.stats.batch.Load()
	out.Requests.Errors = s.stats.errors.Load()
	out.Requests.Slow = s.stats.slowQueries.Load()
	out.Requests.Panics = s.stats.panics.Load()
	out.Requests.Checkpoint = s.stats.checkpoint.Load()
	out.GPS.Enabled = s.matcher != nil
	out.GPS.TracesMatched = s.stats.tracesMatched.Load()
	out.GPS.TracesFailed = s.stats.tracesFailed.Load()
	out.GPS.TracesSplit = s.stats.tracesSplit.Load()
	out.GPS.SegmentsAppended = s.stats.segmentsAppended.Load()
	out.GPS.TraceQueries = s.stats.traceQueries.Load()
	out.GPS.MatchNS = s.stats.matchNS.Load()
	if runs := out.GPS.TracesMatched + out.GPS.TracesFailed; runs > 0 {
		out.GPS.MeanMatchNS = out.GPS.MatchNS / runs
	}
	out.Cache.Size = s.cache.len()
	out.Cache.Capacity = s.cfg.CacheSize
	out.Cache.Hits = s.cache.hits.Load()
	out.Cache.Misses = s.cache.misses.Load()
	out.Cache.Evictions = s.cache.evictions.Load()
	out.Cache.Invalidations = s.cache.invalidations.Load()
	if lookups := out.Cache.Hits + out.Cache.Misses; lookups > 0 {
		out.Cache.HitRatio = float64(out.Cache.Hits) / float64(lookups)
	}
	out.Pool.Capacity = s.pool.capacity()
	out.Pool.InFlight = s.pool.inFlight.Load()
	out.Pool.Waited = s.pool.waited.Load()
	out.Pool.Rejected = s.pool.rejected.Load()
	out.Pool.Shed = s.pool.shed.Load()
	if d := s.eng.Durable(); d != nil {
		ws := d.WALStats()
		out.Durability.Enabled = true
		out.Durability.SyncPolicy = d.SyncPolicy()
		out.Durability.WALBytes = ws.Bytes
		out.Durability.WALRecords = ws.Records
		out.Durability.WALSyncs = ws.Syncs
		out.Durability.Generation = ws.Gen
		out.Durability.Checkpoints = d.Checkpoints()
		out.Durability.CheckpointErrors = d.CheckpointErrors()
		out.Durability.LastCheckpointGen = d.LastCheckpointGen()
		out.Durability.SnapshotRecords = d.SnapshotRecords()
		out.Durability.RecoveryReplayed = d.ReplayedRecords()
	}
	out.Totals.Executed = s.stats.executed.Load()
	out.Totals.Candidates = s.stats.candidates.Load()
	out.Totals.PrunedTrajectories = s.stats.trajPruned.Load()
	out.Totals.PrunedCandidates = s.stats.candidatesPruned.Load()
	out.Totals.Matches = s.stats.matches.Load()
	out.Totals.MinCandNS = s.stats.minCandNS.Load()
	out.Totals.LookupNS = s.stats.lookupNS.Load()
	out.Totals.VerifyNS = s.stats.verifyNS.Load()
	out.Totals.ColumnsVisited = s.stats.columnsVisited.Load()
	out.Totals.ColumnsAvailable = s.stats.columnsAvail.Load()
	out.Totals.StepDPCalls = s.stats.stepDPs.Load()
	out.Totals.CellsComputed = s.stats.cellsComputed.Load()
	out.Totals.CellsAvailable = s.stats.cellsAvail.Load()
	out.Totals.ShardWorkers = s.stats.shardWorkers.Load()
	out.Totals.ParallelQueries = s.stats.parallelQueries.Load()
	out.Totals.TopKQueued = s.stats.topkQueued.Load()
	out.Totals.TopKVerified = s.stats.topkVerified.Load()
	out.Totals.TopKRequeues = s.stats.topkRequeues.Load()
	if out.Totals.ColumnsAvailable > 0 {
		out.Totals.UPR = float64(out.Totals.ColumnsVisited) / float64(out.Totals.ColumnsAvailable)
	}
	if out.Totals.ColumnsVisited > 0 {
		out.Totals.CMR = float64(out.Totals.StepDPCalls) / float64(out.Totals.ColumnsVisited)
	}
	if out.Totals.CellsAvailable > 0 {
		out.Totals.BandRatio = float64(out.Totals.CellsComputed) / float64(out.Totals.CellsAvailable)
	}
	if s.metrics.reg != nil {
		out.Latency = make(map[string]LatencySummary)
		for ep, h := range s.metrics.reqLatency {
			if n := h.Count(); n > 0 {
				out.Latency[ep] = LatencySummary{
					Count: n,
					P50MS: h.Quantile(0.50) * 1e3,
					P95MS: h.Quantile(0.95) * 1e3,
					P99MS: h.Quantile(0.99) * 1e3,
				}
			}
		}
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// --- plumbing ------------------------------------------------------------

func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	s.stats.errors.Add(1)
	code := http.StatusInternalServerError
	var herr *httpError
	if errors.As(err, &herr) {
		code = herr.code
		if herr.retryAfterSec > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", herr.retryAfterSec))
		}
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// attachMatchMeta copies trace-resolution metadata onto a query response
// (no-op for symbol queries).
func attachMatchMeta(resp *queryResponse, req *queryRequest, matched *mapmatch.Result) {
	if matched == nil {
		return
	}
	resp.ResolvedQ = req.Q
	resp.MatchConfidence = matched.Confidence
	resp.MatchSplits = matched.Splits
}

func toMatchJSON(ms []traj.Match) []matchJSON {
	out := make([]matchJSON, len(ms))
	for i, m := range ms {
		out[i] = matchJSON{ID: m.ID, S: m.S, T: m.T, WED: m.WED}
	}
	return out
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
