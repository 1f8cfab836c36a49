// Command wedsearch is an interactive demonstration CLI: it generates (or
// loads) a workload, builds an engine for a chosen cost model, and answers
// subtrajectory similarity queries.
//
// Usage:
//
//	wedsearch [-dataset beijing] [-scale 0.1] [-model EDR] [-qlen 60]
//	          [-tau 0.1] [-n 5] [-temporal-hi 0] [-v]
//
// It samples -n queries from the dataset, runs them, and prints matches
// and per-query statistics.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"subtraj"
	"subtraj/internal/setup"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wedsearch: ")
	var (
		dataset    = flag.String("dataset", "beijing", "workload: "+strings.Join(setup.Datasets, "|"))
		load       = flag.String("load", "", "load a workload gob written by datagen instead of generating")
		scale      = flag.Float64("scale", 0.1, "dataset scale factor")
		model      = flag.String("model", "EDR", "cost model: "+strings.Join(setup.Models, "|"))
		qlen       = flag.Int("qlen", 60, "query length")
		tau        = flag.Float64("tau", 0.1, "threshold ratio in (0,1]")
		n          = flag.Int("n", 5, "number of sampled queries")
		temporalHi = flag.Float64("temporal-hi", 0, "if >0, restrict matches to [0, temporal-hi] seconds (overlap)")
		seed       = flag.Int64("seed", 42, "random seed for query sampling")
		verbose    = flag.Bool("v", false, "print every match")
	)
	flag.Parse()
	if !(*tau > 0 && *tau <= 1) {
		fmt.Fprintf(os.Stderr, "wedsearch: -tau %g out of range (0, 1]\n", *tau)
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	w, err := setup.Workload(*load, *dataset, *scale, func(f string, a ...any) { fmt.Printf(f+"\n", a...) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  graph: %d vertices, %d edges; data: %d trajectories, avg length %.1f (%s)\n",
		w.Graph.NumVertices(), w.Graph.NumEdges(), w.Data.Len(), w.Data.AvgLen(), time.Since(start).Round(time.Millisecond))

	costs, data, err := setup.Build(w, *model)
	if err != nil {
		log.Fatal(err)
	}

	start = time.Now()
	eng, err := subtraj.NewEngine(data, costs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  engine (%s) built in %s\n\n", *model, time.Since(start).Round(time.Millisecond))

	rng := rand.New(rand.NewSource(*seed))
	for i := 0; i < *n; i++ {
		q, err := subtraj.SampleQuery(data, *qlen, rng)
		if err != nil {
			log.Fatal(err)
		}
		qr := subtraj.Query{Q: q, Tau: eng.Threshold(q, *tau)}
		if *temporalHi > 0 {
			qr.Temporal.Mode, qr.Temporal.Hi = subtraj.TemporalOverlap, *temporalHi
		}
		start = time.Now()
		ms, stats, err := eng.SearchQuery(qr)
		elapsed := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %d: |Q|=%d tau=%.3g -> %d matches in %s (candidates=%d, pruned=%d, |Q'|=%d, |Q+|=%d)\n",
			i+1, len(q), qr.Tau, len(ms), elapsed.Round(time.Microsecond), stats.Candidates, stats.CandidatesPruned, stats.SubseqLen, stats.PlusLen)
		if *verbose {
			for _, m := range ms {
				fmt.Printf("  trajectory %d [%d..%d] wed=%.4g\n", m.ID, m.S, m.T, m.WED)
			}
		}
	}
	os.Exit(0)
}
