package subtraj_test

import (
	"fmt"
	"math/rand"

	"subtraj"
)

// ExampleEngine_Search indexes a small synthetic city and answers one
// subtrajectory similarity query under EDR.
func ExampleEngine_Search() {
	w := subtraj.Generate(subtraj.TinyWorkload(7))
	net := subtraj.NewNetwork(w.Graph)
	eng, _ := subtraj.NewEngine(w.Data, net.EDR(60))

	rng := rand.New(rand.NewSource(7))
	q, _ := subtraj.SampleQuery(w.Data, 10, rng)

	matches, _ := eng.SearchRatio(q, 0.2)
	exact := 0
	for _, m := range matches {
		if m.WED == 0 {
			exact++
		}
	}
	fmt.Printf("query length %d: %d matches, %d exact\n", len(q), len(matches), exact)
	// Output:
	// query length 10: 5 matches, 1 exact
}

// ExampleEngine_SearchTopK retrieves the three most similar trajectories.
func ExampleEngine_SearchTopK() {
	w := subtraj.Generate(subtraj.TinyWorkload(7))
	net := subtraj.NewNetwork(w.Graph)
	eng, _ := subtraj.NewEngine(w.Data, net.Lev())

	rng := rand.New(rand.NewSource(9))
	q, _ := subtraj.SampleQuery(w.Data, 10, rng)

	top, _ := eng.SearchTopK(q, 3)
	fmt.Printf("top-%d distances:", len(top))
	for _, m := range top {
		fmt.Printf(" %.0f", m.WED)
	}
	fmt.Println()
	// Output:
	// top-3 distances: 0 5 5
}

// ExampleEngine_CountExact estimates path popularity.
func ExampleEngine_CountExact() {
	w := subtraj.Generate(subtraj.TinyWorkload(7))
	net := subtraj.NewNetwork(w.Graph)
	eng, _ := subtraj.NewEngine(w.Data, net.Lev())

	rng := rand.New(rand.NewSource(3))
	q, _ := subtraj.SampleQuery(w.Data, 6, rng)

	n, _ := eng.CountExact(q)
	fmt.Printf("occurrences: %d\n", n)
	// Output:
	// occurrences: 1
}
