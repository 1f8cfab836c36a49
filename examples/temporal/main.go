// Temporal-constrained search (§4.3, §6.6): a Query's Temporal window
// restricts matches to trajectories driven during a time interval — e.g.
// "find rush-hour traversals of this route" for time-of-day-aware travel
// time estimation.
//
//	go run ./examples/temporal
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"subtraj"
)

func main() {
	log.SetFlags(0)
	w := subtraj.Generate(subtraj.BeijingLike().Scale(0.05))
	net := subtraj.NewNetwork(w.Graph)
	eng, err := subtraj.NewEngine(w.Data, net.EDR(100))
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(31))
	q, err := subtraj.SampleQuery(w.Data, 40, rng)
	if err != nil {
		log.Fatal(err)
	}
	tau := eng.Threshold(q, 0.15)

	all, err := eng.Search(q, tau)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unconstrained: %d matches\n", len(all))

	// Morning rush hour: 07:00–10:00 (dataset timestamps are seconds
	// from midnight). A Query carries the window; the default overlap
	// form keeps traversals that touch it.
	qr := subtraj.Query{Q: q, Tau: tau}
	qr.Temporal.Mode = subtraj.TemporalOverlap
	qr.Temporal.Lo, qr.Temporal.Hi = 7*3600, 10*3600
	morning, stats, err := eng.SearchQuery(qr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("07:00-10:00 (overlap):  %3d matches, %d candidates after temporal pruning\n",
		len(morning), stats.Candidates)

	// Contained: the whole traversal inside the window.
	qr.Temporal.Mode = subtraj.TemporalContain
	contained, _, err := eng.SearchQuery(qr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("07:00-10:00 (contained): %3d matches\n", len(contained))

	// The overlap query without the candidate-level pre-filter (the
	// paper's "no-TF"): identical answers, more work.
	qr.Temporal.Mode = subtraj.TemporalOverlap
	qr.Temporal.DisablePrefilter = true
	start := time.Now()
	noTF, noTFStats, err := eng.SearchQuery(qr)
	if err != nil {
		log.Fatal(err)
	}
	noTFTime := time.Since(start)

	qr.Temporal.DisablePrefilter = false
	start = time.Now()
	tf, tfStats, err := eng.SearchQuery(qr)
	if err != nil {
		log.Fatal(err)
	}
	tfTime := time.Since(start)
	fmt.Printf("TF vs no-TF: %d = %d matches; candidates %d vs %d; time %s vs %s\n",
		len(tf), len(noTF), tfStats.Candidates, noTFStats.Candidates,
		tfTime.Round(time.Microsecond), noTFTime.Round(time.Microsecond))

	// Per-match traversal times for the morning matches.
	for i, m := range morning {
		if i == 5 {
			fmt.Printf("  ...\n")
			break
		}
		t := w.Data.Get(m.ID)
		dep := time.Duration(t.Times[m.S]) * time.Second
		arr := time.Duration(t.Times[m.T]) * time.Second
		fmt.Printf("  trajectory %-5d driven %s -> %s (wed=%.2f)\n",
			m.ID, fmtClock(dep), fmtClock(arr), m.WED)
	}
}

func fmtClock(d time.Duration) string {
	h := int(d.Hours())
	m := int(d.Minutes()) % 60
	return fmt.Sprintf("%02d:%02d", h, m)
}
