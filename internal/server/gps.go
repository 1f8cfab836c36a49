package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"subtraj/internal/geo"
	"subtraj/internal/mapmatch"
	"subtraj/internal/traj"
)

// This file is the server's GPS-native surface: raw lat/lon traces in,
// matched/searchable trajectories out. Three entry points share one
// matching path (matchTrace):
//
//	POST /v1/match   one trace → symbols per connected segment + confidence
//	POST /v1/ingest  batch of traces → match → append matched segments
//	"trace" field    on /v1/search //v1/topk/... bodies: query by raw GPS
//
// Matching runs inside the same bounded worker pool as queries, so GPS
// traffic cannot oversubscribe the engine; matcher outcomes (matched /
// failed / split, match latency) feed the /v1/stats GPS block.

// tracePoint is one GPS sample, wire format [x, y] (planar metres, same
// coordinate system as the road network).
type tracePoint [2]float64

// UnmarshalJSON rejects samples that are not exactly [x, y]: the default
// array decoding would silently zero-fill [x] and truncate
// [x, y, timestamp], map-matching garbage coordinates instead of
// erroring.
func (t *tracePoint) UnmarshalJSON(b []byte) error {
	var raw []float64
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	if len(raw) != 2 {
		return fmt.Errorf("GPS sample must be [x, y], got %d elements", len(raw))
	}
	t[0], t[1] = raw[0], raw[1]
	return nil
}

func tracePoints(ts []tracePoint) []geo.Point {
	out := make([]geo.Point, len(ts))
	for i, t := range ts {
		out[i] = geo.Point{X: t[0], Y: t[1]}
	}
	return out
}

// errGPSDisabled answers GPS requests on servers built without a matcher.
var errGPSDisabled = &httpError{code: http.StatusNotImplemented, msg: "GPS matching not enabled (server built without a matcher)"}

// validateTrace bounds a raw trace before matching.
func (s *Server) validateTrace(trace []tracePoint) error {
	if s.matcher == nil {
		return errGPSDisabled
	}
	if len(trace) == 0 {
		return badRequest("empty trace")
	}
	if len(trace) > s.cfg.MaxTraceLen {
		return badRequest("trace of %d samples exceeds limit %d", len(trace), s.cfg.MaxTraceLen)
	}
	return nil
}

// matchTrace runs the matcher inside a worker-pool slot and records the
// GPS counters. The returned result is already stats-accounted.
func (s *Server) matchTrace(ctx context.Context, trace []tracePoint) (mapmatch.Result, error) {
	var (
		res     mapmatch.Result
		merr    error
		elapsed time.Duration
	)
	perr := s.pool.do(ctx, func() {
		// Time inside the slot: match_ns is matcher wall-clock, not
		// worker-pool queueing.
		start := time.Now()
		res, merr = s.matcher.MatchTrace(tracePoints(trace))
		elapsed = time.Since(start)
	})
	if perr != nil {
		return res, &httpError{code: http.StatusServiceUnavailable, msg: perr.Error()}
	}
	s.stats.matchNS.Add(elapsed.Nanoseconds())
	s.metrics.stageMatch.Observe(elapsed.Seconds())
	if merr != nil {
		s.stats.tracesFailed.Add(1)
		return res, badRequest("map matching failed: %v", merr)
	}
	s.stats.tracesMatched.Add(1)
	s.metrics.matchConfidence.Observe(res.Confidence)
	if res.Splits > 0 {
		s.stats.tracesSplit.Add(1)
	}
	return res, nil
}

// segmentSymbols converts a matched vertex path into the engine's symbol
// alphabet: vertex IDs for vertex-representation datasets, edge IDs for
// edge representation (SURS). A single-vertex segment converts to an
// empty edge-representation path.
func (s *Server) segmentSymbols(path []int32) ([]traj.Symbol, error) {
	if s.eng.Unsafe().Dataset().Rep == traj.VertexRep {
		return path, nil
	}
	edges, err := s.matcher.Graph().VertexPathToEdges(path)
	if err != nil {
		// Matched segments are connected by construction; a failure here
		// means the matcher and engine disagree about the network.
		return nil, &httpError{code: http.StatusInternalServerError, msg: "matched path not convertible: " + err.Error()}
	}
	return edges, nil
}

// resolveTrace turns a query request's raw trace into symbols in req.Q
// (the longest matched segment; the whole path when the match is
// split-free) and returns the match metadata for the response.
func (s *Server) resolveTrace(ctx context.Context, req *queryRequest) (*mapmatch.Result, error) {
	if len(req.Q) > 0 {
		return nil, badRequest("q and trace are mutually exclusive")
	}
	if err := s.validateTrace(req.Trace); err != nil {
		return nil, err
	}
	res, err := s.matchTrace(ctx, req.Trace)
	if err != nil {
		return nil, err
	}
	s.stats.traceQueries.Add(1)
	path, _ := res.Path()
	syms, err := s.segmentSymbols(path)
	if err != nil {
		return nil, err
	}
	if len(syms) == 0 {
		return nil, badRequest("trace matched to an empty path")
	}
	req.Q = syms
	return &res, nil
}

// --- /v1/match ------------------------------------------------------------

type matchRequest struct {
	Trace []tracePoint `json:"trace"`
}

type matchSegmentJSON struct {
	// Symbols is the segment's path in the engine's query alphabet.
	Symbols []traj.Symbol `json:"symbols"`
	// First and Last are the inclusive sample range the segment explains.
	First int `json:"first"`
	Last  int `json:"last"`
	// Confidence is the segment's mean per-sample match likelihood.
	Confidence float64 `json:"confidence"`
}

type matchResponse struct {
	Segments   []matchSegmentJSON `json:"segments"`
	Confidence float64            `json:"confidence"`
	Splits     int                `json:"splits"`
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	s.stats.match.Add(1)
	var req matchRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if err := s.validateTrace(req.Trace); err != nil {
		s.fail(w, err)
		return
	}
	res, err := s.matchTrace(r.Context(), req.Trace)
	if err != nil {
		s.fail(w, err)
		return
	}
	resp := matchResponse{Confidence: res.Confidence, Splits: res.Splits}
	for _, seg := range res.Segments {
		syms, serr := s.segmentSymbols(seg.Path)
		if serr != nil {
			s.fail(w, serr)
			return
		}
		resp.Segments = append(resp.Segments, matchSegmentJSON{
			Symbols:    syms,
			First:      seg.First,
			Last:       seg.Last,
			Confidence: seg.Confidence,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- /v1/ingest -----------------------------------------------------------

type ingestRequest struct {
	Traces [][]tracePoint `json:"traces"`
}

type ingestItemResponse struct {
	// IDs are the trajectory IDs assigned to the trace's appended
	// segments (one per connected segment with at least one symbol).
	IDs        []int32 `json:"ids,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	Splits     int     `json:"splits,omitempty"`
	// Skipped counts matched segments too short to index.
	Skipped int    `json:"skipped,omitempty"`
	Error   string `json:"error,omitempty"`
}

type ingestResponse struct {
	Results []ingestItemResponse `json:"results"`
	// Appended is the total number of trajectories indexed.
	Appended   int    `json:"appended"`
	Generation uint64 `json:"generation"`
}

// handleIngest matches a batch of raw traces and appends every matched
// segment as a new trajectory. Matching fans out through the worker pool
// (bounded like every other engine operation); each trace's segments are
// appended under one write-lock acquisition. One unmatched trace fails
// alone, not the batch.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.stats.ingest.Add(1)
	var req ingestRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if s.matcher == nil {
		s.fail(w, errGPSDisabled)
		return
	}
	if len(req.Traces) == 0 {
		s.fail(w, badRequest("empty ingest batch"))
		return
	}
	if len(req.Traces) > s.cfg.MaxBatch {
		s.fail(w, badRequest("ingest batch of %d traces exceeds limit %d", len(req.Traces), s.cfg.MaxBatch))
		return
	}
	results := make([]ingestItemResponse, len(req.Traces))
	var wg sync.WaitGroup
	for i := range req.Traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					s.recordPanic(r.Context(), "ingest", i, p)
					results[i].Error = "internal error during ingest"
				}
			}()
			results[i] = s.ingestOne(r.Context(), req.Traces[i])
			if results[i].Error != "" {
				s.stats.errors.Add(1)
			}
		}(i)
	}
	wg.Wait()
	resp := ingestResponse{Results: results, Generation: s.eng.Generation()}
	for i := range results {
		resp.Appended += len(results[i].IDs)
	}
	writeJSON(w, http.StatusOK, resp)
}

// ingestOne matches one trace and appends its usable segments.
func (s *Server) ingestOne(ctx context.Context, trace []tracePoint) ingestItemResponse {
	var item ingestItemResponse
	if err := s.validateTrace(trace); err != nil {
		item.Error = err.Error()
		return item
	}
	res, err := s.matchTrace(ctx, trace)
	if err != nil {
		item.Error = err.Error()
		return item
	}
	item.Confidence = res.Confidence
	item.Splits = res.Splits
	var trajs []traj.Trajectory
	for _, seg := range res.Segments {
		syms, serr := s.segmentSymbols(seg.Path)
		if serr != nil {
			item.Error = serr.Error()
			return item
		}
		// Indexing needs at least one symbol, and single-vertex paths
		// carry no route information worth storing.
		if len(syms) == 0 || (s.eng.Unsafe().Dataset().Rep == traj.VertexRep && len(syms) < 2) {
			item.Skipped++
			continue
		}
		trajs = append(trajs, traj.Trajectory{Path: append([]traj.Symbol(nil), syms...)})
	}
	ids, err := s.eng.AppendBatch(trajs)
	if err != nil {
		// WAL failure: the whole batch was rejected atomically.
		item.Error = err.Error()
		return item
	}
	item.IDs = ids
	s.stats.segmentsAppended.Add(int64(len(item.IDs)))
	return item
}
