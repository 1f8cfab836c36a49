package core

import "testing"

// ForceFanOut zeroes the fan-out's work threshold for the rest of the
// test, so every query uses as many workers as its Parallelism allows:
// the equivalence suites reach the fan-out on datasets of a few dozen
// trajectories, where no query's estimated work would.
func ForceFanOut(t testing.TB) {
	old := workPerWorker
	workPerWorker = 0
	t.Cleanup(func() { workPerWorker = old })
}
