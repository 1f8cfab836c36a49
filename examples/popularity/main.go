// Path popularity estimation (the paper's §1, third motivating
// application): count how often a given path appears in the database as a
// subtrajectory. Exact counts come from the engine's exact path query
// (rarest-symbol postings); similarity search adds a "fuzzy popularity"
// that tolerates small route variations.
//
//	go run ./examples/popularity
package main

import (
	"fmt"
	"log"
	"math/rand"

	"subtraj"
)

func main() {
	log.SetFlags(0)
	w := subtraj.Generate(subtraj.BeijingLike().Scale(0.08))
	net := subtraj.NewNetwork(w.Graph)
	eng, err := subtraj.NewEngine(w.Data, net.EDR(100))
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	fmt.Println("path popularity (20-vertex route segments):")
	fmt.Println("len  exact  fuzzy(τ=0.1)")
	for i := 0; i < 6; i++ {
		q, err := subtraj.SampleQuery(w.Data, 20, rng)
		if err != nil {
			log.Fatal(err)
		}
		exact, err := eng.CountExact(q)
		if err != nil {
			log.Fatal(err)
		}
		fuzzy, err := eng.SearchRatio(q, 0.1)
		if err != nil {
			log.Fatal(err)
		}
		// Fuzzy popularity: distinct trajectories with a similar span.
		trajs := map[int32]bool{}
		for _, m := range fuzzy {
			trajs[m.ID] = true
		}
		fmt.Printf("%3d  %5d  %12d\n", len(q), exact, len(trajs))
	}
}
