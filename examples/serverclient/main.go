// Command serverclient demonstrates the wedserve HTTP API end to end: it
// starts an in-process server over the tiny workload (so the example is
// self-contained — point base at a running wedserve to use it as a real
// client), then walks through search, top-k, batch, append, cache
// behaviour, and the stats counters.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"subtraj"
	"subtraj/internal/server"
)

func main() {
	log.SetFlags(0)

	// Stand up an in-process server (swap for your wedserve address).
	w := subtraj.Generate(subtraj.TinyWorkload(42))
	net := subtraj.NewNetwork(w.Graph)
	eng, err := subtraj.NewEngine(w.Data, net.Lev())
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(server.New(subtraj.NewSafeEngine(eng), server.Config{
		MaxSymbol: int32(w.Graph.NumVertices()),
		Matcher:   subtraj.NewMapMatcher(w.Graph, subtraj.MapMatchConfig{}),
	}))
	defer ts.Close()
	base := ts.URL

	q, err := subtraj.SampleQuery(w.Data, 8, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}

	// Similarity search with a threshold ratio.
	var res struct {
		Count  int     `json:"count"`
		Tau    float64 `json:"tau"`
		Cached bool    `json:"cached"`
	}
	post(base+"/v1/search", map[string]any{"q": q, "tau_ratio": 0.2}, &res)
	fmt.Printf("search: %d matches under tau=%.3g (cached=%v)\n", res.Count, res.Tau, res.Cached)

	// The identical query again: served from the LRU cache.
	post(base+"/v1/search", map[string]any{"q": q, "tau_ratio": 0.2}, &res)
	fmt.Printf("search again: %d matches (cached=%v)\n", res.Count, res.Cached)

	// Top-k and a mixed batch.
	post(base+"/v1/topk", map[string]any{"q": q, "k": 3}, &res)
	fmt.Printf("topk: %d best trajectories\n", res.Count)

	var batch struct {
		Results []struct {
			Count int    `json:"count"`
			Error string `json:"error"`
		} `json:"results"`
	}
	post(base+"/v1/batch", map[string]any{"queries": []map[string]any{
		{"kind": "count", "q": q},
		{"kind": "exact", "q": q},
	}}, &batch)
	fmt.Printf("batch: count=%d exact=%d\n", batch.Results[0].Count, batch.Results[1].Count)

	// Appending invalidates cached answers for the new generation.
	var app struct {
		ID         int32  `json:"id"`
		Generation uint64 `json:"generation"`
	}
	post(base+"/v1/append", map[string]any{"path": q}, &app)
	fmt.Printf("append: new trajectory %d (generation %d)\n", app.ID, app.Generation)
	post(base+"/v1/search", map[string]any{"q": q, "tau_ratio": 0.2}, &res)
	fmt.Printf("search after append: %d matches (cached=%v)\n", res.Count, res.Cached)

	// GPS-native clients skip symbols entirely: synthesise a noisy trace
	// of a known route, match it, ingest it, and query by raw GPS.
	truth := w.Data.Get(0).Path
	trace := subtraj.GenerateGPSTrace(w.Graph, truth,
		subtraj.GPSConfig{NoiseSigma: 10, SampleSpacing: 50}, rand.New(rand.NewSource(2)))
	pts := make([][2]float64, len(trace.Points))
	for i, p := range trace.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}

	var matched struct {
		Segments []struct {
			Symbols []subtraj.Symbol `json:"symbols"`
		} `json:"segments"`
		Confidence float64 `json:"confidence"`
		Splits     int     `json:"splits"`
	}
	post(base+"/v1/match", map[string]any{"trace": pts}, &matched)
	fmt.Printf("match: %d segments, confidence %.2f (truth %d vertices, matched %d)\n",
		len(matched.Segments), matched.Confidence, len(truth), len(matched.Segments[0].Symbols))

	var ingest struct {
		Appended   int    `json:"appended"`
		Generation uint64 `json:"generation"`
	}
	post(base+"/v1/ingest", map[string]any{"traces": []any{pts}}, &ingest)
	fmt.Printf("ingest: %d segment(s) appended (generation %d)\n", ingest.Appended, ingest.Generation)

	var traceRes struct {
		Count           int     `json:"count"`
		MatchConfidence float64 `json:"match_confidence"`
	}
	post(base+"/v1/search", map[string]any{"trace": pts, "tau_ratio": 0.2}, &traceRes)
	fmt.Printf("trace search: %d matches (match confidence %.2f)\n", traceRes.Count, traceRes.MatchConfidence)

	// Running counters.
	var stats server.StatsSnapshot
	get(base+"/v1/stats", &stats)
	fmt.Printf("stats: %d searches executed, cache %d hits / %d misses, %d invalidations\n",
		stats.Totals.Executed, stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Invalidations)
	fmt.Printf("gps: %d matched, %d split, %d segments ingested, mean match %s\n",
		stats.GPS.TracesMatched, stats.GPS.TracesSplit, stats.GPS.SegmentsAppended,
		time.Duration(stats.GPS.MeanMatchNS))
}

func post(url string, body, dst any) {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		log.Fatal(err)
	}
}

func get(url string, dst any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		log.Fatal(err)
	}
}
