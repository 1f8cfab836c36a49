package verify

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"subtraj/internal/testutil"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// runOnce verifies every position of every trajectory against q (every
// (id, j) as a candidate with iq cycling over q), returning the results.
func runOnce(v *Verifier, ds *traj.Dataset, q []traj.Symbol) []traj.Match {
	for id := range ds.Trajs {
		for j := range ds.Trajs[id].Path {
			v.Verify(Candidate{ID: int32(id), Pos: int32(j), IQ: int32(j % len(q))})
		}
	}
	return v.Results()
}

// TestVerifierResetReusesCleanly runs the same query through a fresh
// verifier and through one recycled across unrelated queries; the pooled
// run must be indistinguishable, including stats.
func TestVerifierResetReusesCleanly(t *testing.T) {
	env := testutil.NewEnv(31, 20, 16)
	for _, m := range env.Models()[:3] {
		q1 := env.Query(m, 6)
		q2 := env.Query(m, 9)
		tau := wed.SumIns(m.Costs, q1) * 0.4

		for _, mode := range []Mode{ModeLocal, ModeSW} {
			opts := Options{Mode: mode}
			fresh := New(m.Costs, m.DS, q1, tau, opts)
			want := runOnce(fresh, m.DS, q1)
			wantStats := fresh.Stats

			// Pollute a verifier with a different query, then Reset into
			// the query under test.
			v := New(m.Costs, m.DS, q2, wed.SumIns(m.Costs, q2)*0.5, opts)
			runOnce(v, m.DS, q2)
			v.Reset(m.Costs, m.DS, q1, tau, opts)
			got := runOnce(v, m.DS, q1)

			if len(got) != len(want) {
				t.Fatalf("%s/%s: reused verifier returned %d matches, fresh %d", m.Name, mode, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: match %d = %+v, want %+v", m.Name, mode, i, got[i], want[i])
				}
			}
			if v.Stats != wantStats {
				t.Fatalf("%s/%s: reused stats %+v != fresh %+v", m.Name, mode, v.Stats, wantStats)
			}
		}
	}
}

// TestVerifierPoolRoundTrip exercises Get/Put across queries.
func TestVerifierPoolRoundTrip(t *testing.T) {
	env := testutil.NewEnv(32, 20, 16)
	m := env.Models()[0]
	q := env.Query(m, 6)
	tau := wed.SumIns(m.Costs, q) * 0.4
	want := runOnce(New(m.Costs, m.DS, q, tau, Options{}), m.DS, q)
	for i := 0; i < 5; i++ {
		v := Get(m.Costs, m.DS, q, tau, Options{})
		got := runOnce(v, m.DS, q)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d matches, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("round %d: match %d = %+v, want %+v", i, j, got[j], want[j])
			}
		}
		Put(v)
	}
}

// sameMatches fails the test unless got and want are identical.
func sameMatches(t *testing.T, label string, got, want []traj.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// heldCosts is a cost model the test can watch being collected.
type heldCosts struct{ wed.Costs }

// TestPutRetainsBudgetAndNoReferences runs a query whose compiled rows
// outgrow the retention budget — a query thousands of symbols long, one
// candidate per trajectory, so that a row is compiled for nearly every
// data symbol — and checks what Put leaves behind: at most
// maxRetainedBytes, accounted to the pool gauge, and nothing that keeps
// the query, the dataset or the cost model (whose compiled rows the
// verifier still holds) alive.
func TestPutRetainsBudgetAndNoReferences(t *testing.T) {
	env := testutil.NewEnv(33, 120, 60)
	m := env.Models()[1] // EDR
	q := append([]traj.Symbol(nil), env.RandomString(m, 3000)...)
	ds := traj.NewDataset(m.DS.Rep)
	ds.Trajs = append(ds.Trajs, m.DS.Trajs...)
	costs := &heldCosts{m.Costs}
	freed := make(chan string, 3)
	runtime.SetFinalizer(&q[0], func(*traj.Symbol) { freed <- "query" })
	runtime.SetFinalizer(ds, func(*traj.Dataset) { freed <- "dataset" })
	runtime.SetFinalizer(costs, func(*heldCosts) { freed <- "cost model" })

	v := Get(costs, ds, q, wed.SumIns(costs, q)*0.5, Options{})
	for id := range ds.Trajs {
		v.Verify(Candidate{ID: int32(id)})
	}
	v.Results()
	if used := v.retainedBytes(); used <= maxRetainedBytes {
		t.Fatalf("query holds %d bytes of scratch, not enough to exceed the %d budget", used, maxRetainedBytes)
	}
	_, _, before := PoolStats()
	Put(v)
	_, _, after := PoolStats()
	held := v.retainedBytes()
	if held > maxRetainedBytes || held == 0 {
		t.Fatalf("Put retained %d bytes, want within (0, %d]", held, maxRetainedBytes)
	}
	if after-before != held {
		t.Fatalf("pool gauge moved by %d, verifier retains %d", after-before, held)
	}

	q, ds, costs = nil, nil, nil
	for want := 3; want > 0; want-- {
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(10 * time.Second):
			t.Fatalf("a pooled verifier still references its query, dataset or cost model (%d of 3 not collected)", want)
		}
	}
	runtime.KeepAlive(v)
}

// TestPutTrimsOutlierMatchBuffers runs a query whose one trajectory
// buffers more raw matches than maxRetainedBytes allows — 40 zero symbols
// against a run of zeros under Levenshtein, every position a candidate, so
// each candidate reports a thousand-odd copies — and checks that Put drops
// both match buffers of flush's counting sort and its count buffer, where
// the pool would otherwise pin them.
func TestPutTrimsOutlierMatchBuffers(t *testing.T) {
	ds := traj.NewDataset(traj.VertexRep)
	ds.Add(traj.Trajectory{Path: make([]traj.Symbol, 400)})
	q := make([]traj.Symbol, 40)
	v := Get(wed.NewLev(), ds, q, float64(len(q)), Options{})
	for j := range ds.Trajs[0].Path {
		v.Verify(Candidate{Pos: int32(j), IQ: int32(j % len(q))})
	}
	if len(v.Results()) == 0 {
		t.Fatal("no match")
	}
	size := int64(unsafe.Sizeof(traj.Match{}))
	if int64(cap(v.chunk))*size <= maxRetainedBytes || int64(cap(v.byT))*size <= maxRetainedBytes || cap(v.counts) == 0 {
		t.Fatalf("chunk %d, byT %d, counts %d entries: not an outlier over the %d-byte budget", cap(v.chunk), cap(v.byT), cap(v.counts), maxRetainedBytes)
	}
	Put(v)
	if cap(v.chunk) != 0 || cap(v.byT) != 0 || cap(v.counts) != 0 || cap(v.out) != 0 {
		t.Fatalf("Put kept chunk %d, byT %d, counts %d, out %d entries", cap(v.chunk), cap(v.byT), cap(v.counts), cap(v.out))
	}
	if held := v.retainedBytes(); held > maxRetainedBytes {
		t.Fatalf("Put retained %d bytes, over the %d budget", held, maxRetainedBytes)
	}
}

// TestPoolRetainedGaugeSettles checks the gauge's other two exits: Get
// takes a verifier's bytes off again, and so does the collector when it
// empties the pool.
func TestPoolRetainedGaugeSettles(t *testing.T) {
	env := testutil.NewEnv(34, 20, 16)
	m := env.Models()[0]
	q := env.Query(m, 6)
	tau := wed.SumIns(m.Costs, q) * 0.4
	// Empty the pool of what earlier tests left in it.
	settled := func() int64 {
		var b int64
		for i := 0; i < 100; i++ {
			runtime.GC()
			if _, _, b = PoolStats(); b == 0 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		return b
	}
	if b := settled(); b != 0 {
		t.Fatalf("gauge reads %d with the pool collected", b)
	}
	v := Get(m.Costs, m.DS, q, tau, Options{})
	runOnce(v, m.DS, q)
	Put(v)
	if _, _, b := PoolStats(); b <= 0 {
		t.Fatalf("gauge reads %d after a Put", b)
	}
	v = Get(m.Costs, m.DS, q, tau, Options{})
	if _, _, b := PoolStats(); v.held != nil && b != 0 {
		t.Fatalf("gauge reads %d with the only pooled verifier checked out", b)
	}
	Put(v)
	v = nil
	if b := settled(); b != 0 {
		t.Fatalf("gauge reads %d after the pool was collected", b)
	}
}

// TestQueryWiderThanSlab: a query longer than slabCells needs cost rows
// no standard slab can hold; the rows arena must size slabs to them and
// results must still equal the exhaustive scan.
// Query symbols are distinct, so under Lev the complete candidate set is
// every data position holding a query symbol, paired with that symbol's
// one query position.
func TestQueryWiderThanSlab(t *testing.T) {
	costs := wed.NewLev()
	q := make([]traj.Symbol, slabCells+37)
	for i := range q {
		q[i] = traj.Symbol(1000 + i)
	}
	ds := traj.NewDataset(traj.VertexRep)
	ds.Add(traj.Trajectory{Path: append([]traj.Symbol(nil), q[500:508]...)})
	ds.Add(traj.Trajectory{Path: []traj.Symbol{q[100], q[101], q[102], 5, 5, q[105], q[106], q[107]}})
	tau := float64(len(q) - 4) // a match aligns at least five symbols
	feed := func(v *Verifier) []traj.Match {
		for id := range ds.Trajs {
			for pos, sym := range ds.Trajs[id].Path {
				if sym >= 1000 {
					v.Verify(Candidate{ID: int32(id), Pos: int32(pos), IQ: int32(sym - 1000)})
				}
			}
		}
		return v.Results()
	}
	want := feed(New(costs, ds, q, tau, Options{Mode: ModeSW}))
	if len(want) == 0 {
		t.Fatal("oracle found no match; the test would prove nothing")
	}
	v := New(costs, ds, q, tau, Options{})
	sameMatches(t, "wide query", feed(v), want)
	if len(v.rows.mem.slabs[0]) <= slabCells {
		t.Fatalf("cost rows of a %d-symbol query fit a %d-cell slab?", len(q), len(v.rows.mem.slabs[0]))
	}
}

// TestColumnMemoryIsTwoColumns: every walk alternates between the same
// two columns of |Q|+1 cells, so a verifier's column memory after a
// handful of candidates and after hundreds is those two columns — and the
// results still equal the full-matrix scan's.
func TestColumnMemoryIsTwoColumns(t *testing.T) {
	env := testutil.NewEnv(35, 300, 30)
	m := env.Models()[1] // EDR
	q := env.Query(m, 24)
	tau := 0.6 * float64(len(q)) // EDR: c(q) = 1 per symbol
	// Every position of Q is a candidate source: a superset of any
	// τ-subsequence's, so the two modes below must still agree.
	// (internal/filter imports this package; an in-package test cannot
	// ask it for a plan.)
	var cands []Candidate
	for id, tr := range m.DS.Trajs {
		for iq, sym := range q {
			for _, b := range m.Costs.Neighbors(sym, nil) {
				for pos, p := range tr.Path {
					if p == b {
						cands = append(cands, Candidate{ID: int32(id), Pos: int32(pos), IQ: int32(iq)})
					}
				}
			}
		}
	}
	if len(cands) < 500 {
		t.Fatalf("only %d candidates", len(cands))
	}
	run := func(mode Mode, cands []Candidate) (*Verifier, []traj.Match) {
		v := New(m.Costs, m.DS, q, tau, Options{Mode: mode})
		for _, c := range cands {
			v.Verify(c)
		}
		return v, v.Results()
	}
	for _, n := range []int{8, len(cands)} {
		v, _ := run(ModeLocal, cands[:n])
		if v.Stats.ColumnsVisited == 0 {
			t.Fatalf("%d candidates visited no column", n)
		}
		if got, want := cap(v.cols), 2*(len(q)+1); got != want {
			t.Fatalf("after %d candidates the verifier holds %d column cells, want %d", n, got, want)
		}
	}
	_, got := run(ModeLocal, cands)
	_, swRes := run(ModeSW, cands)
	sameMatches(t, "Local vs SW", got, swRes)
}
