// Quickstart: generate a small city, index it under EDR, and answer one
// subtrajectory similarity query end to end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"subtraj"
)

func main() {
	log.SetFlags(0)

	// 1. A workload: road network + network-constrained trajectories.
	//    (Bring your own data by filling a subtraj.Dataset and Graph.)
	w := subtraj.Generate(subtraj.BeijingLike().Scale(0.05))
	fmt.Printf("city: %d vertices, %d road segments; %d trajectories (avg %.0f vertices)\n",
		w.Graph.NumVertices(), w.Graph.NumEdges(), w.Data.Len(), w.Data.AvgLen())

	// 2. A cost model. EDR treats two vertices within ε as matching.
	net := subtraj.NewNetwork(w.Graph)
	costs := net.EDR(100) // ε = 100 m

	// 3. The engine: inverted index + subsequence filtering +
	//    local bidirectional verification.
	eng, err := subtraj.NewEngine(w.Data, costs)
	if err != nil {
		log.Fatal(err)
	}

	// 4. A query: any path on the network. Here, a 40-vertex stretch of
	//    a real trajectory.
	rng := rand.New(rand.NewSource(7))
	q, err := subtraj.SampleQuery(w.Data, 40, rng)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Search. τ_ratio = 0.1 means "up to 10% of the query's filtering
	//    cost in edits".
	matches, err := eng.SearchRatio(q, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query |Q|=%d, τ=%.3g: %d matching subtrajectories\n",
		len(q), eng.Threshold(q, 0.1), len(matches))
	for i, m := range matches {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(matches)-5)
			break
		}
		fmt.Printf("  trajectory %-5d span [%3d..%3d]  wed=%.3g\n", m.ID, m.S, m.T, m.WED)
	}

	// 6. The same query under a different similarity function — no
	//    algorithm change needed (the headline property of WED).
	eng2, err := subtraj.NewEngine(w.Data, net.Lev())
	if err != nil {
		log.Fatal(err)
	}
	matches2, err := eng2.SearchRatio(q, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same query under Levenshtein: %d matches\n", len(matches2))
}
