package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"subtraj/internal/core"
	"subtraj/internal/filter"
	"subtraj/internal/index"
	"subtraj/internal/mapmatch"
	"subtraj/internal/server"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/wal"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// span is one timed call into a layer's public function. Spans of one
// replayed query share Op; Parent is the index of the enclosing span, -1
// for a root. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the traced run writes them out when it
// ends, so recording costs two clock reads and one append per span.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// layers holds the in-process handles the probes call into, built once
// per traced run from the same inputs wedserve loaded.
type layers struct {
	in  *inputs
	eng *core.Engine // pointer backend, default shards: what wedserve builds
	tr  *tracer
	ms  *metricSet
	t   tally
}

func us(d time.Duration, n int) float64    { return float64(d) / 1e3 / float64(n) }
func msPer(d time.Duration, n int) float64 { return float64(d) / 1e6 / float64(n) }

// candidates generates one source's candidate stream the way
// core.shardCandidates does for the query's temporal mode.
func candidates(plan *filter.Plan, src index.PostingSource, q *query, dst []filter.Candidate) []filter.Candidate {
	if q.temporal {
		return plan.CandidatesByDeparture(src, q.lo, q.hi, dst)
	}
	return plan.Candidates(src, dst)
}

func lookup(plan *filter.Plan, idx index.Backend, q *query, dst []filter.Candidate) []filter.Candidate {
	for s := 0; s < idx.NumShards(); s++ {
		src := idx.Source(s)
		dst = candidates(plan, src, q, dst)
		index.ReleaseSource(src)
	}
	return dst
}

func coreQuery(q *query, parallelism int) core.Query {
	qr := core.Query{Q: q.q, Tau: q.tau, Parallelism: parallelism}
	if q.temporal {
		qr.Temporal.Mode = core.TemporalDeparture
		qr.Temporal.Lo, qr.Temporal.Hi = q.lo, q.hi
	}
	return qr
}

// verifyCandidates is the verify stage exactly as core.runSequential
// composes it: one pooled verifier over the grouped candidates.
func verifyCandidates(costs wed.Costs, ds *traj.Dataset, q *query, cands []filter.Candidate) ([]traj.Match, verify.Stats) {
	ver := verify.Get(costs, ds, q.q, q.tau, verify.Options{})
	defer verify.Put(ver)
	for _, c := range cands {
		ver.Verify(verify.Candidate{ID: c.ID, Pos: c.Pos, IQ: c.IQ})
	}
	res := ver.Results()
	return res, ver.Stats
}

// stageSums accumulates the staged replay over a query list.
type stageSums struct {
	plan, look, group, verify, ops time.Duration
	vst                            verify.Stats
	subseq, cands, matches         int
	buf                            []filter.Candidate
}

// staged answers one query stage by stage exactly as core.runSequential
// composes the stages, a span around each public call.
func (l *layers) staged(i int, q *query, acc *stageSums) ([]traj.Match, *filter.Plan, error) {
	ds, costs, idx := l.in.wl.Data, l.in.costs, l.eng.Backend()
	op := l.tr.begin("op", i, -1)
	s := l.tr.begin("filter.BuildPlan", i, op)
	p, err := filter.BuildPlan(costs, idx, q.q, q.tau)
	acc.plan += l.tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = l.tr.begin("index.Candidates", i, op)
	acc.buf = lookup(p, idx, q, acc.buf[:0])
	acc.look += l.tr.end(s)
	s = l.tr.begin("filter.GroupByTrajectory", i, op)
	filter.GroupByTrajectory(acc.buf)
	acc.group += l.tr.end(s)
	s = l.tr.begin("verify.Verify", i, op)
	res, st := verifyCandidates(costs, ds, q, acc.buf)
	acc.verify += l.tr.end(s)
	if q.temporal {
		res = keepDeparture(ds, res, q.lo, q.hi)
	}
	acc.ops += l.tr.end(op)

	acc.vst.Add(st)
	acc.subseq += len(p.Subseq)
	acc.cands += len(acc.buf)
	acc.matches += len(res)
	return res, p, nil
}

// replaySearch runs each query three ways — untraced through
// Engine.SearchQuery at Parallelism 1, untraced at default parallelism,
// and staged — and derives the filter / index / verify / wed / core
// numbers. The three run back to back and in rotating order: the host
// changes speed by 20% within seconds, so separate passes would not add
// up for that reason alone, and whichever runs later finds the query's
// paths cached. The staged and the parallel answer must equal the
// sequential one for every query.
func (l *layers) replaySearch(qs []query) error {
	eng, ds, costs := l.eng, l.in.wl.Data, l.in.costs
	eng.PrepareTemporal()
	n := len(qs)
	for i := 0; i < n && i < 8; i++ { // warm pools and caches
		if _, _, err := eng.SearchQuery(coreQuery(&qs[i], 1)); err != nil {
			return err
		}
	}

	var seq, par time.Duration
	var acc stageSums
	var mallocs uint64
	plans := make([]*filter.Plan, n)
	runtime.GC()
	for i := range qs {
		q := &qs[i]
		var want, got, gotPar []traj.Match
		steps := []func() error{
			func() (err error) {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				begin := time.Now()
				want, _, err = eng.SearchQuery(coreQuery(q, 1))
				seq += time.Since(begin)
				runtime.ReadMemStats(&m1)
				mallocs += m1.Mallocs - m0.Mallocs
				return err
			},
			func() (err error) {
				got, plans[i], err = l.staged(i, q, &acc)
				return err
			},
			func() (err error) {
				begin := time.Now()
				gotPar, _, err = eng.SearchQuery(coreQuery(q, 0))
				par += time.Since(begin)
				return err
			},
		}
		for k := range steps {
			if err := steps[(i+k)%len(steps)](); err != nil {
				return err
			}
		}
		l.t.attempted += 2
		if !slices.Equal(got, want) {
			l.t.fail("query %d: staged replay has %d matches, Engine.SearchQuery %d, or they differ", i, len(got), len(want))
		}
		if !slices.Equal(gotPar, want) {
			l.t.fail("query %d: default parallelism and Parallelism 1 disagree", i)
		}
	}

	stageSum := acc.plan + acc.look + acc.group + acc.verify
	// "The numbers must add up" (ROADMAP 1b) — asserted where the
	// untraced pass ran long enough (search_default, search_wide) that
	// one GC cycle or scheduler hiccup cannot decide the ratio; reported
	// everywhere.
	if r := float64(stageSum) / float64(seq); seq >= 250*time.Millisecond {
		l.t.attempted++
		if r < 0.9 || r > 1.1 {
			l.t.fail("stages sum to %.3f of core.search_ms, outside 0.9–1.1", r)
		}
	}

	// The same lookups on the compact backend.
	ceng := core.NewEngineCompact(ds, costs)
	ceng.PrepareTemporal()
	var lookCompact time.Duration
	for i := range qs {
		s := l.tr.begin("index.Candidates(compact)", i, -1)
		acc.buf = lookup(plans[i], ceng.Backend(), &qs[i], acc.buf[:0])
		lookCompact += l.tr.end(s)
	}

	ms := l.ms
	ms.put("wed.cells_per_op", "count", float64(acc.vst.CellsComputed)/float64(n), n)
	ms.put("verify.ms_per_op", "ms", msPer(acc.verify, n), n)
	ms.put("verify.us_per_candidate", "us", us(acc.verify, max(acc.cands, 1)), acc.cands)
	ms.put("verify.stepdp_per_op", "count", float64(acc.vst.StepDPCalls)/float64(n), n)
	ms.put("verify.columns_per_op", "count", float64(acc.vst.ColumnsVisited)/float64(n), n)
	ms.put("verify.trie_nodes_per_op", "count", float64(acc.vst.TrieNodes)/float64(n), n)
	ms.put("verify.trie_hit_ratio", "ratio", 1-acc.vst.CMR(), n)
	ms.put("verify.upr", "ratio", acc.vst.UPR(), n)
	ms.put("filter.plan_us", "us", us(acc.plan, n), n)
	ms.put("filter.group_us", "us", us(acc.group, n), n)
	ms.put("filter.subseq_len", "count", float64(acc.subseq)/float64(n), n)
	ms.put("filter.candidates_per_op", "count", float64(acc.cands)/float64(n), n)
	ms.put("filter.candidates_per_match", "ratio", float64(acc.cands)/float64(max(acc.matches, 1)), n)
	ms.put("index.lookup_us", "us", us(acc.look, n), n)
	ms.put("index.lookup_us_compact", "us", us(lookCompact, n), n)
	ms.put("index.build_ms", "ms", float64(eng.BuildTime)/1e6, 0)
	ms.put("index.bytes_per_traj", "B", float64(eng.IndexBytes())/float64(ds.Len()), 0)
	ms.put("index.bytes_per_traj_compact", "B", float64(ceng.IndexBytes())/float64(ds.Len()), 0)
	ms.put("core.search_ms", "ms", msPer(seq, n), n)
	ms.put("core.stage_sum_ratio", "ratio", float64(stageSum)/float64(seq), n)
	ms.put("core.search_par_ms", "ms", msPer(par, n), n)
	ms.put("core.par_speedup", "ratio", float64(seq)/float64(par), n)
	ms.put("core.search_allocs_per_op", "count", float64(mallocs)/float64(n), n)
	ms.put("trace.overhead_ratio", "ratio", float64(acc.ops)/float64(seq), n)

	l.kernels(qs, plans)
	return nil
}

// keepDeparture is the exact post-verification check of a departure
// window (core.applyTemporal's TemporalDeparture arm).
func keepDeparture(ds *traj.Dataset, ms []traj.Match, lo, hi float64) []traj.Match {
	out := ms[:0]
	for _, m := range ms {
		if dep, ok := ds.Get(m.ID).Departure(); ok && dep >= lo && dep <= hi {
			out = append(out, m)
		}
	}
	return out
}

// kernelJob is one trie walk to replay: the DP columns of a candidate's
// forward direction, Q^d = Q[iq+1:] against the path after the candidate.
type kernelJob struct {
	qd, syms []traj.Symbol
	tau      float64
}

// kernels replays wed.StepDPBanded over the columns of sampled
// candidates, outside the trie, so the kernel's cost per computed cell
// stands alone — under EDR (an interface call and a squared distance per
// cell), under Lev, and against a hand-written three-way min over the
// same columns (ROADMAP 2a's yardstick for compiled cost rows).
func (l *layers) kernels(qs []query, plans []*filter.Plan) {
	var jobs []kernelJob
	var cands []filter.Candidate
	for i := 0; i < len(qs) && len(jobs) < 512; i++ {
		q := &qs[i]
		cands = lookup(plans[i], l.eng.Backend(), q, cands[:0])
		for c := 0; c < len(cands) && c < 16; c++ {
			p := l.in.wl.Data.Path(cands[c].ID)
			if rest := p[cands[c].Pos+1:]; len(rest) > 0 && int(cands[c].IQ)+1 < len(q.q) {
				jobs = append(jobs, kernelJob{qd: q.q[cands[c].IQ+1:], syms: rest, tau: q.tau})
			}
		}
	}
	if len(jobs) == 0 {
		jobs = append(jobs, kernelJob{qd: qs[0].q[1:], syms: qs[0].q[1:], tau: qs[0].tau})
	}
	perCell := func(step func(j *kernelJob) int) float64 {
		var cells int
		begin := time.Now()
		for time.Since(begin) < 150*time.Millisecond {
			for j := range jobs {
				cells += step(&jobs[j])
			}
		}
		return float64(time.Since(begin)) / float64(cells)
	}
	width := 0
	for _, j := range jobs {
		width = max(width, len(j.qd)+1)
	}
	bufA, bufB := make([]float64, width), make([]float64, width)
	banded := func(costs wed.Costs) func(j *kernelJob) int {
		return func(j *kernelJob) int {
			// Root band: the insertion prefix sums below τ (trie.reset).
			a, b := bufA, bufB
			lo, hi, sum := 0, 0, 0.0
			for k := 0; k <= len(j.qd) && sum < j.tau; k++ {
				a[k] = sum
				hi = k + 1
				if k < len(j.qd) {
					sum += costs.Ins(j.qd[k])
				}
			}
			cells := 0
			for _, sym := range j.syms {
				nlo, nhi, c := wed.StepDPBanded(costs, j.qd, sym, a[lo:hi], lo, hi, j.tau, b)
				cells += c
				if nlo == nhi {
					break
				}
				lo, hi = nlo, nhi
				a, b = b, a
			}
			return cells
		}
	}
	floor := func(j *kernelJob) int {
		a, b := bufA[:len(j.qd)+1], bufB[:len(j.qd)+1]
		for k := range a {
			a[k] = float64(k)
		}
		for _, sym := range j.syms {
			b[0] = a[0] + 1
			for k, qs := range j.qd {
				v := a[k]
				if sym != qs {
					v++
				}
				if d := a[k+1] + 1; d < v {
					v = d
				}
				if d := b[k] + 1; d < v {
					v = d
				}
				b[k+1] = v
			}
			a, b = b, a
		}
		return len(j.syms) * (len(j.qd) + 1)
	}
	l.ms.put("wed.ns_per_cell_edr", "ns", perCell(banded(l.in.costs)), len(jobs))
	l.ms.put("wed.ns_per_cell_lev", "ns", perCell(banded(wed.NewLev())), len(jobs))
	l.ms.put("wed.ns_per_cell_floor", "ns", perCell(floor), len(jobs))
}

// replayTopK times core's top-k driver, one span per call, at the
// parallelism wedserve uses, and reads its round schedule and work
// counters from the QueryStats it returns.
func (l *layers) replayTopK(qs []query) error {
	n := len(qs)
	var rounds, reused, verified int
	var cells int64
	var m0, m1 runtime.MemStats
	var total time.Duration
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range qs {
		s := l.tr.begin("core.SearchTopKStats", i, -1)
		res, st, err := l.eng.SearchTopKStats(qs[i].q, l.in.size.topK, core.TopKOptions{})
		total += l.tr.end(s)
		if err != nil {
			return err
		}
		rounds += st.Rounds
		reused += st.CandidatesReused
		verified += st.Candidates
		cells += st.Verify.CellsComputed
		l.t.attempted++
		if len(res) == 0 || res[0].WED != 0 {
			l.t.fail("top-k query %d: rank 1 is not the WED-0 match it was sampled from", i)
		}
	}
	runtime.ReadMemStats(&m1)
	l.ms.put("core.topk_ms", "ms", msPer(total, n), n)
	l.ms.put("core.topk_rounds", "count", float64(rounds)/float64(n), n)
	l.ms.put("core.topk_reused_ratio", "ratio", float64(reused)/float64(max(reused+verified, 1)), n)
	l.ms.put("core.topk_alloc_mb_per_op", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(n), n)
	l.ms.put("core.topk_cells_per_op", "count", float64(cells)/float64(n), n)
	return nil
}

// probeMatcher times Matcher.MatchTrace on the ingest stream's traces
// with the matcher wedserve builds by default (σ=20 m, β=50 m).
func (l *layers) probeMatcher() {
	m := mapmatch.New(l.in.wl.Graph, mapmatch.Config{Sigma: 20, Beta: 50})
	var traces []*write
	for i := range l.in.writes {
		if l.in.writes[i].trace != nil && len(traces) < l.in.size.matchTraces {
			traces = append(traces, &l.in.writes[i])
		}
	}
	n := len(traces)
	for i := 0; i < n && i < 4; i++ { // fill the matcher's scratch pool
		_, _ = m.MatchTrace(traces[i].trace) // a failure shows in the timed pass
	}
	var acc float64
	var total time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, w := range traces {
		s := l.tr.begin("mapmatch.MatchTrace", i, -1)
		res, err := m.MatchTrace(w.trace)
		total += l.tr.end(s)
		l.t.attempted++
		if err != nil {
			l.t.fail("MatchTrace %d: %v", i, err)
			continue
		}
		path, _ := res.Path()
		acc += workload.LCSAccuracy(path, w.truth)
	}
	runtime.ReadMemStats(&m1)
	l.ms.put("mapmatch.match_ms", "ms", msPer(total, n), n)
	l.ms.put("mapmatch.allocs_per_trace", "count", float64(m1.Mallocs-m0.Mallocs)/float64(n), n)
	l.ms.put("mapmatch.lcs_accuracy", "ratio", acc/float64(n), n)
}

// probeIngest calls the write path directly: SafeEngine.Append (volatile)
// for every delta trajectory, candidate lookups against the resulting
// Epoch (frozen base + unfolded delta), then one Compact() fold of it.
func (l *layers) probeIngest(qs []query) error {
	z := l.in.size
	base := l.in.wl.Data
	ds := &traj.Dataset{Rep: base.Rep, Trajs: append([]traj.Trajectory(nil), base.Trajs...)}
	safe := server.NewSafeEngine(core.NewEngineShards(ds, l.in.costs, 0))
	safe.SetCompactAppends(0) // the fold below is the only one
	n := min(z.deltaAppends, len(l.in.heldOut))
	var app time.Duration
	for i := 0; i < n; i++ {
		s := l.tr.begin("server.SafeEngine.Append", i, -1)
		_, err := safe.Append(l.in.heldOut[i])
		app += l.tr.end(s)
		if err != nil {
			return err
		}
	}
	safe.PrepareTemporal()
	eng := safe.Unsafe()
	nq := min(len(qs), 256)
	var plain, window time.Duration
	var cands []filter.Candidate
	for i := 0; i < nq; i++ {
		q := qs[i]
		p, err := filter.BuildPlan(l.in.costs, eng.Backend(), q.q, q.tau)
		if err != nil {
			return err
		}
		q.temporal = false
		s := l.tr.begin("index.Candidates(epoch)", i, -1)
		cands = lookup(p, eng.Backend(), &q, cands[:0])
		plain += l.tr.end(s)
		if !qs[i].temporal {
			dep, _ := base.Get(q.src).Departure()
			w := 0.1 * l.in.wl.Config.Horizon
			q.lo, q.hi = dep-w/2, dep+w/2
		}
		q.temporal = true
		s = l.tr.begin("index.CandidatesByDeparture(epoch)", i, -1)
		cands = lookup(p, eng.Backend(), &q, cands[:0])
		window += l.tr.end(s)
	}
	s := l.tr.begin("server.SafeEngine.Compact", 0, -1)
	res, err := safe.Compact()
	fold := l.tr.end(s)
	if err != nil {
		return err
	}
	l.t.attempted++
	if res.DeltaBefore != n || safe.DeltaLen() != 0 {
		l.t.fail("fold covered %d of %d delta trajectories, %d left", res.DeltaBefore, n, safe.DeltaLen())
	}
	l.ms.put("index.delta_lookup_us", "us", us(plain, nq), nq)
	l.ms.put("index.delta_window_us", "us", us(window, nq), nq)
	l.ms.put("server.append_us", "us", us(app, n), n)
	l.ms.put("server.fold_ms", "ms", float64(fold)/1e6, n)
	return nil
}

// probeWAL appends the held-out trajectories to a log on disk under the
// interval policy, one frame each, as SafeEngine does per /v1/append.
func (l *layers) probeWAL(dir string) error {
	w, err := wal.Create(filepath.Join(dir, "probe.wal"), 0, wal.Options{Policy: wal.SyncInterval})
	if err != nil {
		return err
	}
	n := min(l.in.size.deltaAppends, len(l.in.heldOut))
	var user int64
	var total time.Duration
	for i := 0; i < n; i++ {
		t := l.in.heldOut[i]
		user += int64(4*len(t.Path) + 8*len(t.Times))
		s := l.tr.begin("wal.Writer.Append", i, -1)
		err := w.Append([]traj.Trajectory{t})
		total += l.tr.end(s)
		if err != nil {
			_ = w.Close() // the append error is the one to report
			return err
		}
	}
	st := w.StatsSnapshot()
	if err := w.Close(); err != nil {
		return err
	}
	l.ms.put("wal.append_us", "us", us(total, n), n)
	l.ms.put("wal.bytes_per_user_byte", "ratio", float64(st.Bytes)/float64(user), n)
	return nil
}

// spin times a fixed arithmetic loop: the median of 15 repetitions of
// about 4 ms. What it takes before and after a run says whether the host
// itself changed speed meanwhile. On the 2-CPU shared VM this benchmark
// was sized on, back-to-back calls already differ by up to 10%, so a run
// is flagged from 15%.
func spin() float64 {
	reps := make([]float64, 15)
	x := 1.0
	for rep := range reps {
		begin := time.Now()
		for i := 0; i < 2_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		reps[rep] = float64(time.Since(begin)) / 1e6
	}
	spinSink = x
	return median(reps)
}

// hostCheck brackets a run with two spins.
type hostCheck struct{ before float64 }

func startHostCheck() hostCheck { return hostCheck{before: spin()} }

// done returns the slower of the two spins and whether they differ by
// more than 15% — a run whose numbers should be read as unresolved.
func (h hostCheck) done() (spinMS float64, noisy bool) {
	after := spin()
	return math.Max(h.before, after), math.Abs(after-h.before) > 0.15*math.Min(after, h.before)
}

var spinSink float64

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

var cachedTrue = []byte(`"cached":true`)

// traced is the per-layer run: in-process probes with a span around every
// call into a layer, then a socket phase on a durable wedserve for the
// server and WAL numbers that only exist across a process boundary.
func (b *bench) traced(sp spec) (runRecord, error) {
	in := b.in
	var ms metricSet
	host := startHostCheck()
	l := &layers{
		in: in, ms: &ms,
		eng: core.NewEngineShards(in.wl.Data, in.costs, 0),
		tr:  &tracer{t0: time.Now()},
	}

	// Threshold-search replay on the workload's own queries; under the
	// top-k workload, on its queries at τ_ratio 0.1 as a reference.
	searchQs := append([]query(nil), in.reads[sp.name][:sp.traced]...)
	topkQs := in.reads["topk_k10"][:in.size.topkProbe]
	if sp.k > 0 {
		topkQs = searchQs
		searchQs = append([]query(nil), searchQs...)
		for i := range searchQs {
			searchQs[i].tau = 0.1 * float64(len(searchQs[i].q))
		}
	}
	if err := l.replaySearch(searchQs); err != nil {
		return runRecord{}, err
	}
	if err := l.replayTopK(topkQs); err != nil {
		return runRecord{}, err
	}
	l.probeMatcher()
	if err := l.probeIngest(searchQs); err != nil {
		return runRecord{}, err
	}
	if err := l.probeWAL(b.env.dir); err != nil {
		return runRecord{}, err
	}
	if err := b.socketProbe(sp, l); err != nil {
		return runRecord{}, err
	}

	spinMS, noisy := host.done()
	ms.put("host.spin_ms", "ms", spinMS, 2)
	ms.put("host.noisy", "bool", boolFloat(noisy), 0)

	self := l.tr.selfTimes()
	file := struct {
		Workload string                   `json:"workload"`
		Seed     int64                    `json:"seed"`
		SelfNS   map[string]time.Duration `json:"self_ns_by_name"`
		Spans    []span                   `json:"spans"`
	}{sp.name, in.seed, self, l.tr.spans}
	if err := writeJSON(filepath.Join(b.outDir, fmt.Sprintf("trace-%s.json", sp.name)), &file); err != nil {
		return runRecord{}, err
	}
	return newRecord(sp, in.seed, true, noisy, &ms, l.t), nil
}

// socketProbe is the traced run's part across the process boundary, on a
// wedserve started with the ingest_mixed flags: each of the workload's
// traced queries twice back to back (the second answer comes from the
// result cache: HTTP + JSON + cache cost at the same response size), then
// a short ingest_mixed phase for the write-path numbers, then SIGKILL and
// a restart on the same WAL directory.
func (b *bench) socketProbe(sp spec, l *layers) error {
	in, ms := b.in, l.ms
	walDir := filepath.Join(b.env.dir, fmt.Sprintf("wal-probe-%s", sp.name))
	flags := durableFlags(walDir, in.size.compactAppends)
	srv, err := b.env.start(b.gob, flags...)
	if err != nil {
		return err
	}
	defer func() { b.env.stop(srv) }()
	before, err := srv.stats()
	if err != nil {
		return err
	}

	qs := in.reads[sp.name][:sp.traced]
	c := newConn(srv.url)
	var miss, hit []float64
	for i := range qs {
		for pass := 0; pass < 2; pass++ {
			begin := time.Now()
			status, body, err := c.post(qs[i].endpoint, qs[i].body)
			took := float64(time.Since(begin)) / 1e6
			l.t.attempted++
			cached := err == nil && bytes.Contains(body, cachedTrue)
			switch {
			case err != nil || status != 200:
				l.t.fail("%s: status %d, %v", qs[i].endpoint, status, err)
			case !hasZeroMatch(body, qs[i].k > 0):
				l.t.fail("%s: query %d has no WED-0 match in its answer", qs[i].endpoint, i)
			case cached != (pass == 1):
				l.t.fail("%s: query %d pass %d: cached = %v", qs[i].endpoint, i, pass, cached)
			}
			if pass == 0 {
				miss = append(miss, took)
			} else {
				hit = append(hit, took)
			}
		}
	}
	c.close()
	mid, err := srv.stats()
	if err != nil {
		return err
	}
	hits := mid.Cache.Hits - before.Cache.Hits
	misses := mid.Cache.Misses - before.Cache.Misses
	ms.put("server.miss_ms", "ms", median(miss), len(miss))
	ms.put("server.hit_ms", "ms", median(hit), len(hit))
	ms.put("server.miss_minus_hit_ms", "ms", median(miss)-median(hit), len(hit))
	ms.put("server.cache_hit_ratio", "ratio", float64(hits)/float64(max(hits+misses, 1)), int(hits+misses))
	ms.put("server.pool_waited", "count", float64(mid.Pool.Waited-before.Pool.Waited), 0)
	ms.put("wed.band_ratio", "ratio",
		float64(mid.Totals.CellsComputed-before.Totals.CellsComputed)/
			float64(max(mid.Totals.CellsAvailable-before.Totals.CellsAvailable, 1)), len(miss))

	// Write probe: the ingest_mixed traffic, shortened.
	dur := time.Duration(in.size.probeSeconds * float64(time.Second))
	m := runMixed(srv, in, in.reads["ingest_mixed"], time.Now(), dur/10, dur)
	l.t.add(m.reads.tally)
	l.t.add(m.writes.tally)
	l.t.add(checkIngested(srv, in, &m.writes))
	after, err := srv.stats()
	if err != nil {
		return err
	}
	var search, temporal []float64
	for i, v := range m.reads.lat {
		if m.reads.temporal[i] {
			temporal = append(temporal, v)
		} else {
			search = append(search, v)
		}
	}
	w := &m.writes
	writes := append(append([]float64(nil), w.appendLat...), w.ingestLat...)
	ms.put("server.append_p50_ms", "ms", median(w.appendLat), len(w.appendLat))
	ms.put("server.ingest_p50_ms", "ms", median(w.ingestLat), len(w.ingestLat))
	ms.put("server.write_p95_ms", "ms", percentile(writes, 0.95), len(writes))
	ms.put("server.gen_late_p99_ms", "ms", percentile(w.late, 0.99), len(w.late))
	ms.put("server.search_p50_ms", "ms", median(search), len(search))
	ms.put("server.temporal_p50_ms", "ms", median(temporal), len(temporal))
	ms.put("server.read_p99_ms", "ms", percentile(m.reads.lat, 0.99), len(m.reads.lat))
	ms.put("server.publishes", "count", float64(after.Ingest.SnapshotPublishes-mid.Ingest.SnapshotPublishes), 0)
	ms.put("server.folds", "count", float64(after.Ingest.Compactions-mid.Ingest.Compactions), 0)
	ms.put("wal.fsyncs", "count", float64(after.Durability.WALSyncs-mid.Durability.WALSyncs), 0)

	// Crash and recover: every acknowledged write must come back.
	b.env.crash(srv)
	srv, err = b.env.start(b.gob, flags...)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	h, err := srv.health()
	if err != nil {
		return err
	}
	recovered := float64(h.Trajectories-in.size.base) / float64(max(w.acked, 1))
	l.t.attempted++
	if recovered != 1 {
		l.t.fail("recovered %d of %d acknowledged trajectories after SIGKILL", h.Trajectories-in.size.base, w.acked)
	}
	ms.put("wal.recovery_s", "s", srv.setup.Seconds(), w.acked)
	ms.put("wal.recovered_ratio", "ratio", recovered, w.acked)
	return nil
}
