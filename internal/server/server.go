package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sync"
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
// JSON, validation failures, infeasible τ) map to 400; a request shed by
// the worker pool to 503 + Retry-After, one whose deadline expired to
// 504; everything else to 500.
type Server struct {
	eng     *SafeEngine
	cache   *resultCache
	pool    *workerPool
	matcher *mapmatch.Matcher
	cfg     Config
	mux     *http.ServeMux
	start   time.Time
	metrics *serverMetrics
	traces  *obs.TraceRing
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
		start:   time.Now(),
	}
	if cfg.TraceBuffer > 0 {
		s.traces = obs.NewTraceRing(cfg.TraceBuffer)
	}
	s.metrics = newServerMetrics(s)
	s.mux = http.NewServeMux()
	for _, kind := range []string{"search", "topk", "temporal", "exact", "count"} {
		s.route("POST /v1/"+kind, kind, handle(s, s.query(kind)))
	}
	s.route("POST /v1/append", "append", handle(s, s.appendOne))
	s.route("POST /v1/match", "match", handle(s, s.match))
	s.route("POST /v1/ingest", "ingest", handle(s, s.ingest))
	s.route("POST /v1/batch", "batch", handle(s, s.batch))
	s.route("POST /v1/checkpoint", "checkpoint", handle(s, s.checkpoint))
	s.route("GET /v1/stats", "stats", s.handleStats)
	s.route("GET /v1/debug/traces", "debug_traces", s.handleDebugTraces)
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
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
	Trace    [][]float64   `json:"trace,omitempty"`
	Tau      float64       `json:"tau,omitempty"`
	TauRatio float64       `json:"tau_ratio,omitempty"`
	K        int           `json:"k,omitempty"`
	// Temporal window (kind "temporal").
	Lo          float64 `json:"lo,omitempty"`
	Hi          float64 `json:"hi,omitempty"`
	Mode        string  `json:"mode,omitempty"` // overlap (default) | contain | departure
	NoPrefilter bool    `json:"no_prefilter,omitempty"`
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
	// on the best-first queue, and those scanned for their best match.
	Queued   int `json:"queued,omitempty"`
	Verified int `json:"verified,omitempty"`
}

type queryResponse struct {
	Matches []traj.Match    `json:"matches,omitempty"`
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

type appendRequest struct {
	Path  []traj.Symbol `json:"path"`
	Times []float64     `json:"times,omitempty"`
}

type appendResponse struct {
	ID         int32  `json:"id"`
	Generation uint64 `json:"generation"`
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

// --- the request pipeline --------------------------------------------------
//
// Every POST endpoint is one pass of
//
//	decode → validate → admit → execute → record → encode
//
// handle decodes and encodes; the endpoint's run function validates its
// input against the one rule set below, admits its engine or matcher work
// through admit, executes it and records it in the registry. /v1/batch and
// /v1/ingest run validate → record once per item, through items.
// instrument wraps the whole pass in the request's trace, deadline and
// panic backstop.

// handle is the pipeline's decode and encode stages around run: the body
// is decoded into a Req (bounded by MaxBodyBytes, unknown fields and
// anything but whitespace after the value rejected; an empty body is the
// zero Req, which validation then judges), run answers it, and the
// answer — or the error, mapped to its status — is encoded as JSON.
func handle[Req any](s *Server, run func(r *http.Request, req *Req) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.FromContext(r.Context())
		dec := tr.StartSpan(nil, "decode")
		var req Req
		d := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		d.DisallowUnknownFields()
		err := d.Decode(&req)
		if err == nil {
			// One value per body: a second one would be silently dropped.
			if _, tail := d.Token(); tail != io.EOF {
				err = errors.New("trailing data after the JSON value")
			}
		}
		dec.End()
		if err != nil && err != io.EOF {
			s.fail(w, badRequest("bad request body: %v", err))
			return
		}
		resp, err := run(r, &req)
		// The answer's encoding and write are a top-level wall span of
		// their own, so a large answer's cost shows in the breakdown.
		enc := tr.StartSpan(nil, "encode")
		defer enc.End()
		if err != nil {
			s.fail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// admit is the pipeline's one pool admission: the engine query, a trace
// resolution, /v1/match and every /v1/ingest item run fn inside a
// worker-pool slot through it. With fanOut, fn may also use up to
// MaxParallelism−1 extra slots borrowed without blocking, so intra-query
// fan-out and cross-request concurrency share one budget; fn gets the
// worker count. A request past its deadline is not admitted. Refusals
// answer 504 when the request's deadline expired, 503 when the client
// went away, and 503 + Retry-After when the pool stayed full past
// QueueWait (shed).
func (s *Server) admit(ctx context.Context, fanOut bool, fn func(par int)) error {
	if err := ctx.Err(); err != nil {
		return mapEngineError(err)
	}
	err := s.pool.do(ctx, func() {
		par := 1
		if want := s.queryParallelism(); fanOut && want > 1 {
			extra := s.pool.tryAcquireN(want - 1)
			defer s.pool.releaseN(extra)
			par += extra
		}
		fn(par)
	})
	switch {
	case err == nil:
		return nil
	case ctx.Err() != nil:
		return mapEngineError(ctx.Err())
	default:
		return &httpError{code: http.StatusServiceUnavailable, msg: err.Error(), retryAfterSec: 1}
	}
}

// queryParallelism returns the most workers one query may use — the
// engine's own resolution of the configured MaxParallelism (0 = auto),
// so the slots reserved here bound the workers the engine starts.
func (s *Server) queryParallelism() int {
	return core.EffectiveParallelism(s.cfg.MaxParallelism)
}

// items is the item fan-out of /v1/batch and /v1/ingest: stage runs for
// items 0..n-1 concurrently, each validated and admitted on its own, and
// items returns each one's error message ("" for success). One bad, shed
// or panicking item fails alone. net/http's panic recovery covers the
// handler goroutine only, so this is the recover for every item's.
func (s *Server) items(ctx context.Context, endpoint string, n int, stage func(i int) error) []string {
	msgs := make([]string, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					s.recordPanic(ctx, endpoint, i, p)
					msgs[i] = s.errorMessage(fmt.Errorf("internal error: %v", p))
				}
			}()
			if err := stage(i); err != nil {
				msgs[i] = s.errorMessage(err)
			}
		}()
	}
	wg.Wait()
	return msgs
}

// errorMessage is the record stage of every failed request or item: the
// one place subtraj_request_errors_total moves. It returns the message
// the answer carries.
func (s *Server) errorMessage(err error) string {
	s.metrics.errors.Inc()
	return err.Error()
}

// fail encodes err as a JSON error answer with its status.
func (s *Server) fail(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var herr *httpError
	if errors.As(err, &herr) {
		code = herr.code
		if herr.retryAfterSec > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", herr.retryAfterSec))
		}
	}
	writeJSON(w, code, map[string]string{"error": s.errorMessage(err)})
}

// --- endpoints -------------------------------------------------------------

// query runs the five query endpoints; ?debug=trace embeds the request's
// span tree in the answer.
func (s *Server) query(kind string) func(*http.Request, *queryRequest) (any, error) {
	return func(r *http.Request, req *queryRequest) (any, error) {
		req.Kind = kind
		resp, err := s.execute(r.Context(), req)
		if err == nil && r.URL.Query().Get("debug") == "trace" {
			// Finish before encoding: the root duration then brackets
			// exactly the spans in the tree (its top-level children sum to
			// it), and the instrument middleware's later Finish keeps this
			// value for the latency histogram. The tree so cannot hold its
			// own encode span: that one shows only in the slow-query ring
			// and log of requests without ?debug=trace.
			tr := obs.FromContext(r.Context())
			tr.Finish()
			resp.Trace = tr.JSON()
		}
		return resp, err
	}
}

func (s *Server) appendOne(_ *http.Request, req *appendRequest) (any, error) {
	if err := s.checkPath("trajectory path", req.Path); err != nil {
		return nil, err
	}
	t := traj.Trajectory{Path: req.Path, Times: req.Times}
	if err := t.CheckTimes(s.eng.Unsafe().Dataset().Rep); err != nil {
		return nil, badRequest("%v", err)
	}
	// A write-ahead log refusal applied nothing; it answers 500, and the
	// client must not treat the append as durable.
	id, err := s.eng.Append(t)
	if err != nil {
		return nil, err
	}
	return appendResponse{ID: id, Generation: s.eng.Generation()}, nil
}

// batch executes the subqueries concurrently and returns per-item results
// in request order; one bad subquery fails alone, not the whole batch.
func (s *Server) batch(r *http.Request, req *batchRequest) (any, error) {
	if err := checkLen("batch", "queries", len(req.Queries), s.cfg.MaxBatch); err != nil {
		return nil, err
	}
	results := make([]batchItemResponse, len(req.Queries))
	msgs := s.items(r.Context(), "batch", len(req.Queries), func(i int) (err error) {
		results[i].queryResponse, err = s.execute(r.Context(), &req.Queries[i])
		return err
	})
	for i, msg := range msgs {
		results[i].Error = msg
	}
	return batchResponse{Results: results}, nil
}

// checkpoint forces a checkpoint: fold the delta and persist the arena.
// 501 on a volatile engine, 409 when a fold or checkpoint is already
// running. It takes no parameters.
func (s *Server) checkpoint(*http.Request, *struct{}) (any, error) {
	res, err := s.eng.Checkpoint()
	switch {
	case errors.Is(err, ErrNotDurable):
		return nil, &httpError{code: http.StatusNotImplemented, msg: err.Error()}
	case errors.Is(err, ErrFoldBusy):
		return nil, &httpError{code: http.StatusConflict, msg: err.Error()}
	}
	return res, err
}

// --- query execution -----------------------------------------------------

// execute is one query's pass through validate → admit → execute →
// record, shared by the query endpoints and every /v1/batch item. A raw
// GPS trace is map-matched to symbols first (inside its own pool
// slot), after which the request is indistinguishable from a symbol query
// — including its cache key, so a trace query and its ground-truth symbol
// query share cache entries.
func (s *Server) execute(ctx context.Context, req *queryRequest) (*queryResponse, error) {
	mode, err := s.validateQuery(req)
	if err != nil {
		return nil, err
	}
	var matched *mapmatch.Result
	if len(req.Trace) > 0 {
		if matched, err = s.resolveTrace(ctx, req); err != nil {
			return nil, err
		}
	}
	if err := s.checkPath("query", req.Q); err != nil {
		return nil, err
	}

	// Resolve tau_ratio to an absolute τ first: the cache key and the
	// engine both want the absolute form.
	qr := core.Query{Q: req.Q, Tau: req.Tau, Ctx: ctx}
	if req.TauRatio > 0 {
		qr.Tau = s.eng.Threshold(req.Q, req.TauRatio)
	}
	qr.Temporal.Mode, qr.Temporal.Lo, qr.Temporal.Hi, qr.Temporal.DisablePrefilter = mode, req.Lo, req.Hi, req.NoPrefilter

	var key string
	switch req.Kind {
	case "search":
		key = cacheKey("search", req.Q, qr.Tau)
	case "topk":
		key = cacheKey("topk", req.Q, float64(req.K))
	case "temporal":
		key = cacheKey("temporal", req.Q, qr.Tau, req.Lo, req.Hi, float64(mode), boolFloat(req.NoPrefilter))
	default:
		key = cacheKey(req.Kind, req.Q)
	}

	tr := obs.FromContext(ctx)
	lookup := tr.StartSpan(nil, "cache_lookup")
	gen := s.eng.Generation()
	ent, hit := s.cache.get(key, gen)
	lookup.End()
	lookup.SetAttr("hit", hit)
	var qs *core.QueryStats
	if !hit {
		// Tag the entry with the generation read *before* the query ran: if
		// an Append raced with us the entry is already stale and dies on
		// lookup.
		ent = &cacheEntry{key: key, gen: gen, tau: qr.Tau}
		if qs, err = s.run(ctx, req, qr, ent); err != nil {
			return nil, err
		}
		// Post-engine bookkeeping (recording, cache fill, response
		// assembly) gets its own wall span so the top-level spans keep
		// summing to the request latency even when the engine phase is
		// short.
		fin := tr.StartSpan(nil, "finalize")
		defer fin.End()
		s.record(ent.count, qs)
		s.cache.put(ent)
	}

	// ent.tau is the τ the computed response reported — for top-k the
	// driver's final effective threshold, which the request itself does
	// not carry, so cached hits replay it from the entry.
	resp := &queryResponse{Count: ent.count, Tau: ent.tau, Cached: hit, Stats: statsJSON(qs)}
	if req.Kind != "count" {
		resp.Matches = ent.matches // read-only from here on, like every cached entry
	}
	if matched != nil {
		resp.ResolvedQ, resp.MatchConfidence, resp.MatchSplits = req.Q, matched.Confidence, matched.Splits
	}
	return resp, nil
}

// run is the execute stage proper: it admits the query and runs the
// engine call for its kind, leaving the answer in ent. Only the kinds
// that can fan out borrow extra pool slots; exact and count lookups must
// not reserve slots other requests could use.
func (s *Server) run(ctx context.Context, req *queryRequest, qr core.Query, ent *cacheEntry) (qs *core.QueryStats, err error) {
	tr := obs.FromContext(ctx)
	wait := tr.StartSpan(nil, "pool_wait")
	fanOut := req.Kind == "search" || req.Kind == "topk" || req.Kind == "temporal"
	aerr := s.admit(ctx, fanOut, func(par int) {
		wait.End()
		eng := tr.StartSpan(nil, "engine")
		defer eng.End()
		qr.Parallelism = par
		switch req.Kind {
		case "search", "temporal":
			ent.matches, qs, err = s.eng.SearchQuery(qr)
		case "topk":
			ent.matches, qs, err = s.eng.SearchTopKStats(req.Q, req.K, core.TopKOptions{Parallelism: par, Ctx: ctx})
		case "exact":
			ent.matches, err = s.eng.SearchExact(req.Q)
		case "count":
			ent.count, err = s.eng.CountExact(req.Q)
		}
		// par is what the query may use; what it did use — the engine
		// keeps a small query on this goroutine — is qs.Workers.
		workers := 1
		if qs != nil {
			workers = qs.Workers
		}
		eng.SetAttr("parallelism", workers)
		attachStatSpans(tr, eng, qs)
	})
	wait.End() // a refused request never reached the engine
	switch {
	case aerr != nil:
		return nil, aerr
	case err != nil:
		return nil, mapEngineError(err)
	}
	if req.Kind != "count" {
		ent.count = len(ent.matches)
	}
	if req.Kind == "topk" && qs != nil {
		// A top-k request carries no τ; report the driver's final
		// effective threshold — the radius below which the answer is
		// provably complete.
		ent.tau = qs.EffectiveTau
	}
	return qs, nil
}

// record adds one executed query to the registry's totals.
func (s *Server) record(matches int, qs *core.QueryStats) {
	m := s.metrics
	m.executed.Inc()
	m.matches.Add(int64(matches))
	if qs == nil {
		return
	}
	m.shardWorkers.Add(int64(qs.Workers))
	if qs.Workers > 1 {
		m.parallelQueries.Inc()
	}
	m.candidates.Add(int64(qs.Candidates))
	m.prunedTraj.Add(int64(qs.TrajPruned))
	m.prunedCands.Add(int64(qs.CandidatesPruned))
	m.columnsVisited.Add(qs.Verify.ColumnsVisited)
	m.columnsAvail.Add(qs.Verify.ColumnsAvailable)
	m.stepDPs.Add(qs.Verify.StepDPCalls)
	m.cellsComputed.Add(qs.Verify.CellsComputed)
	m.cellsAvail.Add(qs.Verify.CellsAvailable)
	m.topkQueued.Add(int64(qs.TrajQueued))
	m.topkVerified.Add(int64(qs.TrajVerified))
	m.stagePlan.Observe(qs.MinCandTime.Seconds())
	m.stageFilter.Observe(qs.LookupTime.Seconds())
	m.stageVerify.Observe(qs.VerifyTime.Seconds())
}

func statsJSON(qs *core.QueryStats) *queryStatsJSON {
	if qs == nil {
		return nil
	}
	return &queryStatsJSON{
		SubseqLen:          qs.SubseqLen,
		Candidates:         qs.Candidates,
		PlusLen:            qs.PlusLen,
		PrunedTrajectories: qs.TrajPruned,
		PrunedCandidates:   qs.CandidatesPruned,
		MinCandNS:          qs.MinCandTime.Nanoseconds(),
		LookupNS:           qs.LookupTime.Nanoseconds(),
		VerifyNS:           qs.VerifyTime.Nanoseconds(),
		Queued:             qs.TrajQueued,
		Verified:           qs.TrajVerified,
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

// --- validate: the one rule set for input from outside --------------------

// validateQuery checks a query's kind, its choice of q or trace, τ or
// τ_ratio, k and temporal window before any work is admitted, and returns
// the temporal mode it asks for (TemporalNone unless kind is "temporal").
// Its symbols are checked by checkPath once a trace has resolved to them.
func (s *Server) validateQuery(req *queryRequest) (core.TemporalMode, error) {
	if req.Tau < 0 || req.TauRatio < 0 {
		return 0, badRequest("tau and tau_ratio must not be negative")
	}
	switch req.Kind {
	case "search", "temporal":
		if req.Tau == 0 && req.TauRatio == 0 {
			return 0, badRequest("one of tau or tau_ratio must be positive")
		}
		if req.Tau > 0 && req.TauRatio > 0 {
			return 0, badRequest("tau and tau_ratio are mutually exclusive")
		}
		if req.TauRatio > 1 {
			return 0, badRequest("tau_ratio %g out of range (0, 1]", req.TauRatio)
		}
	case "topk":
		if req.K <= 0 {
			return 0, badRequest("k must be positive")
		}
		if req.K > s.cfg.MaxK {
			return 0, badRequest("k = %d exceeds limit %d", req.K, s.cfg.MaxK)
		}
	case "exact", "count":
	default:
		return 0, badRequest("unknown query kind %q", req.Kind)
	}
	if len(req.Trace) > 0 {
		if len(req.Q) > 0 {
			return 0, badRequest("q and trace are mutually exclusive")
		}
		if err := s.checkTrace(req.Trace); err != nil {
			return 0, err
		}
	}
	var mode core.TemporalMode
	switch req.Mode {
	case "", "overlap":
		mode = core.TemporalOverlap
	case "contain":
		mode = core.TemporalContain
	case "departure":
		mode = core.TemporalDeparture
	default:
		return 0, badRequest("unknown temporal mode %q", req.Mode)
	}
	if req.Kind != "temporal" {
		return core.TemporalNone, nil
	}
	if req.Hi < req.Lo {
		return 0, badRequest("temporal window [%g, %g] is empty", req.Lo, req.Hi)
	}
	return mode, nil
}

// checkLen is the rule for every list from outside — a path, a trace, the
// items of a batch: 1 to limit entries.
func checkLen(what, unit string, n, limit int) error {
	if n == 0 {
		return badRequest("empty %s", what)
	}
	if n > limit {
		return badRequest("%s of %d %s exceeds limit %d", what, n, unit, limit)
	}
	return nil
}

// checkPath is the rule for every symbol path from outside, queried or
// appended: 1 to MaxQueryLen symbols, each one inside the alphabet the
// cost model can index.
func (s *Server) checkPath(what string, p []traj.Symbol) error {
	if err := checkLen(what, "symbols", len(p), s.cfg.MaxQueryLen); err != nil {
		return err
	}
	for i, sym := range p {
		if sym < 0 {
			return badRequest("symbol %d at position %d is negative", sym, i)
		}
		if s.cfg.MaxSymbol > 0 && sym >= s.cfg.MaxSymbol {
			return badRequest("symbol %d at position %d outside alphabet [0, %d)", sym, i, s.cfg.MaxSymbol)
		}
	}
	return nil
}

// checkTrace is the rule for a raw GPS trace: the server has a matcher
// (501 otherwise), and the trace has 1 to MaxTraceLen samples, each
// exactly [x, y].
func (s *Server) checkTrace(trace [][]float64) error {
	if s.matcher == nil {
		return errGPSDisabled
	}
	if err := checkLen("trace", "samples", len(trace), s.cfg.MaxTraceLen); err != nil {
		return err
	}
	for i, p := range trace {
		if len(p) != 2 {
			return badRequest("GPS sample %d must be [x, y], got %d elements", i, len(p))
		}
	}
	return nil
}

// --- stats ---------------------------------------------------------------

// StatsSnapshot is the /v1/stats response.
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Engine        struct {
		Trajectories int    `json:"trajectories"`
		Generation   uint64 `json:"generation"`
		// IndexBytes is the index's memory footprint (the arena, plus a
		// heap estimate for the append delta) and BytesPerTrajectory the
		// same divided by the trajectory count — the benchmark's
		// index.bytes_per_traj.
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
		Enabled          bool   `json:"enabled"`
		SyncPolicy       string `json:"sync_policy,omitempty"`
		WALBytes         int64  `json:"wal_bytes"`
		WALRecords       int64  `json:"wal_records"`
		WALSyncs         int64  `json:"wal_syncs"`
		Generation       uint64 `json:"generation"`
		Checkpoints      int64  `json:"checkpoints"`
		CheckpointErrors int64  `json:"checkpoint_errors"`
		RecoveryReplayed int64  `json:"recovery_replayed_records"`
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
		// trajectories queued, and trajectories scanned (the rest were
		// dropped on their lower bound).
		TopKQueued   int64 `json:"topk_queued"`
		TopKVerified int64 `json:"topk_verified"`
	} `json:"totals"`
	// Latency summarizes each endpoint's request-duration histogram — the
	// very histograms /metrics exposes, so the two surfaces report the
	// same percentiles. Endpoints with no traffic are omitted.
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

// Snapshot assembles the current running counters: the server's own are
// read from their registry handles, the rest from the types that own them.
func (s *Server) Snapshot() StatsSnapshot {
	m := s.metrics
	var out StatsSnapshot
	out.UptimeSeconds = time.Since(s.start).Seconds()
	out.Engine.Trajectories = s.eng.NumTrajectories()
	out.Engine.Generation = s.eng.Generation()
	out.Engine.IndexBytes = s.eng.IndexBytes()
	out.Engine.BytesPerTrajectory = ratio(out.Engine.IndexBytes, int64(out.Engine.Trajectories))
	out.Ingest.FoldedTrajectories = s.eng.FoldedLen()
	out.Ingest.DeltaTrajectories = s.eng.DeltaLen()
	out.Ingest.CompactAppends = s.eng.CompactAppends()
	out.Ingest.Compactions = s.eng.Compactions()
	out.Ingest.SnapshotPublishes = s.eng.Publishes()
	out.Ingest.LastCompactionMS = s.eng.LastCompactionMS()
	out.Requests.Search = m.requests["search"].Value()
	out.Requests.TopK = m.requests["topk"].Value()
	out.Requests.Temporal = m.requests["temporal"].Value()
	out.Requests.Exact = m.requests["exact"].Value()
	out.Requests.Count = m.requests["count"].Value()
	out.Requests.Append = m.requests["append"].Value()
	out.Requests.Match = m.requests["match"].Value()
	out.Requests.Ingest = m.requests["ingest"].Value()
	out.Requests.Batch = m.requests["batch"].Value()
	out.Requests.Checkpoint = m.requests["checkpoint"].Value()
	out.Requests.Errors = m.errors.Value()
	out.Requests.Slow = m.slow.Value()
	out.Requests.Panics = m.panics.Value()
	out.GPS.Enabled = s.matcher != nil
	out.GPS.TracesMatched = m.tracesMatched.Value()
	out.GPS.TracesFailed = m.tracesFailed.Value()
	out.GPS.TracesSplit = m.tracesSplit.Value()
	out.GPS.SegmentsAppended = m.segmentsAppended.Value()
	out.GPS.TraceQueries = m.traceQueries.Value()
	out.GPS.MatchNS = nanos(m.stageMatch)
	if runs := out.GPS.TracesMatched + out.GPS.TracesFailed; runs > 0 {
		out.GPS.MeanMatchNS = out.GPS.MatchNS / runs
	}
	out.Cache.Size = s.cache.len()
	out.Cache.Capacity = s.cfg.CacheSize
	out.Cache.Hits = s.cache.hits.Load()
	out.Cache.Misses = s.cache.misses.Load()
	out.Cache.Evictions = s.cache.evictions.Load()
	out.Cache.Invalidations = s.cache.invalidations.Load()
	out.Cache.HitRatio = ratio(out.Cache.Hits, out.Cache.Hits+out.Cache.Misses)
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
		out.Durability.RecoveryReplayed = d.ReplayedRecords()
	}
	t := &out.Totals
	t.Executed = m.executed.Value()
	t.Candidates = m.candidates.Value()
	t.PrunedTrajectories = m.prunedTraj.Value()
	t.PrunedCandidates = m.prunedCands.Value()
	t.Matches = m.matches.Value()
	t.MinCandNS = nanos(m.stagePlan)
	t.LookupNS = nanos(m.stageFilter)
	t.VerifyNS = nanos(m.stageVerify)
	t.ColumnsVisited = m.columnsVisited.Value()
	t.ColumnsAvailable = m.columnsAvail.Value()
	t.StepDPCalls = m.stepDPs.Value()
	t.CellsComputed = m.cellsComputed.Value()
	t.CellsAvailable = m.cellsAvail.Value()
	t.ShardWorkers = m.shardWorkers.Value()
	t.ParallelQueries = m.parallelQueries.Value()
	t.TopKQueued = m.topkQueued.Value()
	t.TopKVerified = m.topkVerified.Value()
	t.UPR = ratio(t.ColumnsVisited, t.ColumnsAvailable)
	t.BandRatio = ratio(t.CellsComputed, t.CellsAvailable)
	out.Latency = make(map[string]LatencySummary)
	for ep, h := range m.latency {
		if n := h.Count(); n > 0 {
			out.Latency[ep] = LatencySummary{
				Count: n,
				P50MS: h.Quantile(0.50) * 1e3,
				P95MS: h.Quantile(0.95) * 1e3,
				P99MS: h.Quantile(0.99) * 1e3,
			}
		}
	}
	return out
}

// nanos reads a stage histogram's summed seconds as whole nanoseconds.
func nanos(h *obs.Histogram) int64 { return int64(math.Round(h.Sum() * 1e9)) }

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// --- plumbing ------------------------------------------------------------

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
