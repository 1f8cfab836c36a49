package core_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"subtraj/internal/core"
	"subtraj/internal/testutil"
)

// TestSearchCanceledContext: a context that is already dead must stop
// every search path — sequential, fanned out, top-k at either parallelism
// — with an error wrapping the context's cause, and a nil/live context
// must leave results untouched.
func TestSearchCanceledContext(t *testing.T) {
	core.ForceFanOut(t)
	env := testutil.NewEnv(31, 40, 24)
	m := env.Models()[0]
	eng := core.NewEngine(m.DS, m.Costs)
	q := env.Query(m, 8)
	tau := oracleTaus(m.Costs, m.DS, q)[1]

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"sequential", func() error {
			_, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: 1, Ctx: canceled})
			return err
		}},
		{"fanned-out", func() error {
			_, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Parallelism: 4, Ctx: canceled})
			return err
		}},
		{"topk", func() error {
			_, _, err := eng.SearchTopKStats(q, 5, core.TopKOptions{Ctx: canceled})
			return err
		}},
		{"topk-fanned-out", func() error {
			_, _, err := eng.SearchTopKStats(q, 5, core.TopKOptions{Ctx: canceled, Parallelism: 4})
			return err
		}},
	} {
		if err := tc.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err
// poll on: it cancels a query at a chosen depth of its work loop.
type cancelAfter struct {
	context.Context
	left atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestTopKCanceledMidQueue: the top-k driver polls its context once per
// trajectory it takes off the queue, so a cancellation that arrives after
// a few pops stops it there, at either parallelism.
func TestTopKCanceledMidQueue(t *testing.T) {
	core.ForceFanOut(t)
	env := testutil.NewEnv(34, 40, 24)
	m := env.Models()[0]
	eng := core.NewEngine(m.DS, m.Costs)
	q := env.Query(m, 8)
	for _, par := range []int{1, 4} {
		_, st, err := eng.SearchTopKStats(q, 40, core.TopKOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		const polls = 4 // the entry check, then one per pop
		if st.TrajVerified+st.Requeues < 3*polls {
			t.Fatalf("par=%d: only %d pops, cannot cancel mid-queue", par, st.TrajVerified+st.Requeues)
		}
		ctx := &cancelAfter{Context: context.Background()}
		ctx.left.Store(polls)
		if _, _, err := eng.SearchTopKStats(q, 40, core.TopKOptions{Parallelism: par, Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Errorf("par=%d: err = %v, want context.Canceled", par, err)
		}
	}
}

// TestSearchLiveContextUnchanged: passing a live context must not change
// the answer relative to the nil-context path.
func TestSearchLiveContextUnchanged(t *testing.T) {
	env := testutil.NewEnv(32, 40, 24)
	for _, m := range env.Models() {
		eng := core.NewEngine(m.DS, m.Costs)
		q := env.Query(m, 8)
		tau := oracleTaus(m.Costs, m.DS, q)[1]
		want, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		got, _, err := eng.SearchQuery(core.Query{Q: q, Tau: tau, Ctx: context.Background()})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		assertIdenticalResults(t, m.Name+"/ctx", got, want)

		wantK, _, err := eng.SearchTopKStats(q, 5, core.TopKOptions{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		gotK, _, err := eng.SearchTopKStats(q, 5, core.TopKOptions{Ctx: context.Background()})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		assertIdenticalResults(t, m.Name+"/ctx-topk", gotK, wantK)
	}
}

// TestDeadlineExceededSurfaces: an expired deadline is distinguishable
// from a plain cancel, so servers can map it to 504.
func TestDeadlineExceededSurfaces(t *testing.T) {
	env := testutil.NewEnv(33, 40, 24)
	m := env.Models()[0]
	eng := core.NewEngine(m.DS, m.Costs)
	q := env.Query(m, 8)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, _, err := eng.SearchQuery(core.Query{Q: q, Tau: oracleTaus(m.Costs, m.DS, q)[1], Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
