package server

import (
	"context"
	"fmt"
	"net/http"

	"subtraj/internal/geo"
	"subtraj/internal/mapmatch"
	"subtraj/internal/obs"
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

// A raw GPS trace is [[x, y], ...] on the wire: planar metres, the road
// network's coordinate system. checkTrace holds every sample to exactly
// [x, y] — decoding alone would accept [x] or [x, y, timestamp] — so
// tracePoints may index both coordinates.
func tracePoints(ts [][]float64) []geo.Point {
	out := make([]geo.Point, len(ts))
	for i, t := range ts {
		out[i] = geo.Point{X: t[0], Y: t[1]}
	}
	return out
}

// errGPSDisabled answers GPS requests on servers built without a matcher.
var errGPSDisabled = &httpError{code: http.StatusNotImplemented, msg: "GPS matching not enabled (server built without a matcher)"}

// matchTrace admits the matcher to a worker-pool slot, runs it, and
// records the GPS counters. The match stage is the matcher's own wall
// time, not worker-pool queueing.
func (s *Server) matchTrace(ctx context.Context, trace [][]float64) (mapmatch.Result, error) {
	var (
		res  mapmatch.Result
		merr error
	)
	if err := s.admit(ctx, false, func(int) {
		res, merr = s.matcher.MatchTrace(tracePoints(trace))
	}); err != nil {
		return res, err
	}
	s.metrics.stageMatch.Observe(res.Elapsed.Seconds())
	if merr != nil {
		s.metrics.tracesFailed.Inc()
		return res, badRequest("map matching failed: %v", merr)
	}
	s.metrics.tracesMatched.Inc()
	s.metrics.matchConfidence.Observe(res.Confidence)
	if res.Splits > 0 {
		s.metrics.tracesSplit.Inc()
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
		return nil, fmt.Errorf("matched path not convertible: %w", err)
	}
	return edges, nil
}

// resolveTrace map-matches a query's raw trace and puts the symbols of
// its longest matched segment (the whole path when the match is
// split-free) in req.Q; the match metadata goes into the response. It is
// the request's resolve_trace span, with the matcher's own wall time
// nested under it (the remainder is pool queueing plus symbol
// conversion).
func (s *Server) resolveTrace(ctx context.Context, req *queryRequest) (*mapmatch.Result, error) {
	tr := obs.FromContext(ctx)
	rt := tr.StartSpan(nil, "resolve_trace")
	defer rt.End()
	res, err := s.matchTrace(ctx, req.Trace)
	if err != nil {
		return nil, err
	}
	tr.AddSpan(rt, "map_match", res.Elapsed).SetAttr("confidence", res.Confidence)
	s.metrics.traceQueries.Inc()
	path, _ := res.Path()
	if req.Q, err = s.segmentSymbols(path); err != nil {
		return nil, err
	}
	return &res, nil
}

// --- /v1/match ------------------------------------------------------------

type matchRequest struct {
	Trace [][]float64 `json:"trace"`
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

func (s *Server) match(r *http.Request, req *matchRequest) (any, error) {
	if err := s.checkTrace(req.Trace); err != nil {
		return nil, err
	}
	res, err := s.matchTrace(r.Context(), req.Trace)
	if err != nil {
		return nil, err
	}
	segs, err := s.segments(res)
	if err != nil {
		return nil, err
	}
	return matchResponse{Segments: segs, Confidence: res.Confidence, Splits: res.Splits}, nil
}

// segments converts every matched segment into the engine's alphabet.
func (s *Server) segments(res mapmatch.Result) ([]matchSegmentJSON, error) {
	out := make([]matchSegmentJSON, len(res.Segments))
	for i, seg := range res.Segments {
		syms, err := s.segmentSymbols(seg.Path)
		if err != nil {
			return nil, err
		}
		out[i] = matchSegmentJSON{Symbols: syms, First: seg.First, Last: seg.Last, Confidence: seg.Confidence}
	}
	return out, nil
}

// --- /v1/ingest -----------------------------------------------------------

type ingestRequest struct {
	Traces [][][]float64 `json:"traces"`
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

// ingest matches a batch of raw traces and appends every matched segment
// as a new trajectory. Each trace is one item: matched in its own pool
// slot, its segments appended under one ingest-mutex acquisition, and an
// unmatched trace fails alone, not the batch.
func (s *Server) ingest(r *http.Request, req *ingestRequest) (any, error) {
	if s.matcher == nil {
		return nil, errGPSDisabled
	}
	if err := checkLen("ingest batch", "traces", len(req.Traces), s.cfg.MaxBatch); err != nil {
		return nil, err
	}
	resp := ingestResponse{Results: make([]ingestItemResponse, len(req.Traces))}
	msgs := s.items(r.Context(), "ingest", len(req.Traces), func(i int) error {
		return s.ingestOne(r.Context(), req.Traces[i], &resp.Results[i])
	})
	for i, msg := range msgs {
		resp.Results[i].Error = msg
		resp.Appended += len(resp.Results[i].IDs)
	}
	resp.Generation = s.eng.Generation()
	return resp, nil
}

// ingestOne matches one trace and appends its usable segments.
func (s *Server) ingestOne(ctx context.Context, trace [][]float64, item *ingestItemResponse) error {
	if err := s.checkTrace(trace); err != nil {
		return err
	}
	res, err := s.matchTrace(ctx, trace)
	if err != nil {
		return err
	}
	item.Confidence, item.Splits = res.Confidence, res.Splits
	segs, err := s.segments(res)
	if err != nil {
		return err
	}
	var trajs []traj.Trajectory
	for _, seg := range segs {
		// Indexing needs at least one symbol, and single-vertex paths
		// carry no route information worth storing.
		if len(seg.Symbols) == 0 || (s.eng.Unsafe().Dataset().Rep == traj.VertexRep && len(seg.Symbols) < 2) {
			item.Skipped++
			continue
		}
		trajs = append(trajs, traj.Trajectory{Path: append([]traj.Symbol(nil), seg.Symbols...)})
	}
	// A WAL failure rejects the whole trace's segments atomically.
	if item.IDs, err = s.eng.AppendBatch(trajs); err != nil {
		return err
	}
	s.metrics.segmentsAppended.Add(int64(len(item.IDs)))
	return nil
}
