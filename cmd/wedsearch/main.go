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
	"time"

	"subtraj"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wedsearch: ")
	var (
		dataset    = flag.String("dataset", "beijing", "workload: beijing|porto|singapore|sanfran|tiny")
		load       = flag.String("load", "", "load a workload gob written by datagen instead of generating")
		scale      = flag.Float64("scale", 0.1, "dataset scale factor")
		model      = flag.String("model", "EDR", "cost model: Lev|EDR|ERP|NetEDR|NetERP|SURS")
		qlen       = flag.Int("qlen", 60, "query length")
		tau        = flag.Float64("tau", 0.1, "threshold ratio in (0,1]")
		n          = flag.Int("n", 5, "number of sampled queries")
		temporalHi = flag.Float64("temporal-hi", 0, "if >0, restrict matches to [0, temporal-hi] seconds (overlap)")
		seed       = flag.Int64("seed", 42, "random seed for query sampling")
		verbose    = flag.Bool("v", false, "print every match")
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
		fmt.Printf("loaded %s\n", *load)
	} else {
		cfg, err := configByName(*dataset)
		if err != nil {
			log.Fatal(err)
		}
		cfg.NumTrajectories = int(float64(cfg.NumTrajectories) * *scale)
		if cfg.NumTrajectories < 10 {
			cfg.NumTrajectories = 10
		}
		fmt.Printf("generating %s workload (%d trajectories)...\n", cfg.Name, cfg.NumTrajectories)
		w = subtraj.Generate(cfg)
	}
	fmt.Printf("  graph: %d vertices, %d edges; data: %d trajectories, avg length %.1f (%s)\n",
		w.Graph.NumVertices(), w.Graph.NumEdges(), w.Data.Len(), w.Data.AvgLen(), time.Since(start).Round(time.Millisecond))

	net := subtraj.NewNetwork(w.Graph)
	costs, data, err := buildModel(net, w, *model)
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
		absTau := eng.Threshold(q, *tau)
		var (
			ms    []subtraj.Match
			stats *subtraj.QueryStats
		)
		start = time.Now()
		if *temporalHi > 0 {
			ms, stats, err = eng.SearchTemporal(q, absTau, subtraj.TemporalWindow{Lo: 0, Hi: *temporalHi})
		} else {
			ms, stats, err = eng.SearchStats(q, absTau, subtraj.VerifyOptions{})
		}
		elapsed := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %d: |Q|=%d tau=%.3g -> %d matches in %s (candidates=%d, pruned=%d, |Q'|=%d, |Q+|=%d)\n",
			i+1, len(q), absTau, len(ms), elapsed.Round(time.Microsecond), stats.Candidates, stats.CandidatesPruned, stats.SubseqLen, stats.PlusLen)
		if *verbose {
			for _, m := range ms {
				fmt.Printf("  trajectory %d [%d..%d] wed=%.4g\n", m.ID, m.S, m.T, m.WED)
			}
		}
	}
	os.Exit(0)
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
