// Package verify implements the candidate verification of §5: local
// verification that runs the WED dynamic programming bidirectionally from
// the candidate position (Lemma 1, Algorithms 4–6) and early termination
// on the column lower bound (Eq. 11). Columns are τ-banded: only the cell
// range that can still influence a result under the query threshold is
// computed (see wed.StepDPBanded); the CellsComputed/CellsAvailable
// counters measure the saving, and banding is bit-equal to the full-width
// DP. The two directions of a candidate are not walked independently: the
// minimum of the first walk either rejects the candidate outright or
// tightens the second walk's cut (Verify). Each walk alternates between
// two column buffers, and the DP kernel reads its costs from rows
// compiled once per query and data symbol (rows.go) rather than through a
// wed.Costs call per cell. The paper's bidirectional tries, which cached
// columns across candidates sharing path prefixes (§5.2), are not kept:
// after the trajectory-level pre-filter too few candidates share a prefix
// to pay for them (DESIGN.md §1.4). The top-k driver reads the same rows
// through Best (best.go): one Smith–Waterman scan per trajectory — or,
// under a unit-cost model and |Q| ≤ 64, Myers' bit-parallel scan over the
// caller's match masks, a machine word per column and no row at all.
//
// Two modes with identical result sets support the paper's ablations:
//
//	ModeLocal — local bidirectional DP                 (the zero value)
//	ModeSW    — full-trajectory DP scan per candidate  (the paper's -SW)
package verify

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// Mode selects the verification algorithm.
type Mode uint8

const (
	// ModeLocal is local bidirectional verification of each candidate.
	ModeLocal Mode = iota
	// ModeSW runs a full dynamic-programming scan over each distinct
	// candidate trajectory (threshold-aware), ignoring positions.
	ModeSW
)

func (m Mode) String() string {
	switch m {
	case ModeLocal:
		return "Local"
	case ModeSW:
		return "SW"
	default:
		return "Mode(?)"
	}
}

// Options tunes the verifier; the zero value is the paper's configuration.
type Options struct {
	Mode Mode
	// DisableEarlyTermination is the "no pruning" ablation behind Table
	// 5's UPR: it turns off the Eq. 11 lower-bound cut and the one-sided
	// rejection with it, so both walks of every candidate run to the
	// trajectory's ends and ColumnsVisited equals ColumnsAvailable for
	// every candidate with τ′ > 0.
	DisableEarlyTermination bool
}

// Stats instruments a verification run with the quantities of Table 5.
type Stats struct {
	// Candidates is the number of (id, j, iq) triples verified.
	Candidates int
	// ColumnsAvailable is the total DP-column count a full SW scan of
	// every candidate would compute (the UPR denominator).
	ColumnsAvailable int64
	// ColumnsVisited counts the columns the walks computed, the one that
	// tripped early termination included (UPR numerator).
	ColumnsVisited int64
	// StepDPCalls counts columns computed by StepDP. No column is cached,
	// so it equals ColumnsVisited.
	StepDPCalls int64
	// OneSided counts candidates rejected after a single walk: the
	// prefix-WED array of the side walked first held no value < τ′, so
	// the other side's columns were never visited. It is what a halved
	// ColumnsVisited per candidate reads as in a stats dump.
	OneSided int64
	// CellsComputed counts DP-cell recurrence evaluations inside those
	// StepDP calls; CellsAvailable is what full-width columns would have
	// cost (StepDPCalls × (|Q^d|+1)). Their ratio is the cell-level
	// band-pruning rate — the Table-5-style metric of the τ-banded
	// verification.
	CellsComputed  int64
	CellsAvailable int64
	// TrieNodes was the cached-column count of the paper's bidirectional
	// tries (§5.2). No column is cached any more, so it is always 0; it
	// stays only because the benchmark's trace rows still read it.
	TrieNodes int
	// Matches is the number of distinct (id, s, t) results.
	Matches int
}

// Add accumulates o's counters into s — the merge of the fanned-out
// query pipeline. Keeping it next to the struct means a future counter
// cannot be summed on one path and dropped on the other.
func (s *Stats) Add(o Stats) {
	s.Candidates += o.Candidates
	s.ColumnsAvailable += o.ColumnsAvailable
	s.ColumnsVisited += o.ColumnsVisited
	s.StepDPCalls += o.StepDPCalls
	s.OneSided += o.OneSided
	s.CellsComputed += o.CellsComputed
	s.CellsAvailable += o.CellsAvailable
	s.Matches += o.Matches
}

// UPR returns the unpruned position rate (§6.4).
func (s Stats) UPR() float64 { return ratio(s.ColumnsVisited, s.ColumnsAvailable) }

// CMR returns the cache miss rate of §6.4. No column is cached, so it is
// 1 whenever a column was visited; it stays only because the benchmark's
// trace rows still read it.
func (s Stats) CMR() float64 { return ratio(s.StepDPCalls, s.ColumnsVisited) }

// BandRatio returns CellsComputed / CellsAvailable: the fraction of DP
// cells the τ-banded columns actually evaluated (1.0 = no cell pruning).
func (s Stats) BandRatio() float64 { return ratio(s.CellsComputed, s.CellsAvailable) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Candidate identifies a promising position: trajectory id, position j in
// P^(id) with P[j] ∈ B(Q[iq]), and the query position iq (all 0-based).
type Candidate struct {
	ID  int32
	Pos int32
	IQ  int32
}

// Verifier verifies the candidates of one query: create (or Get from the
// package pool) per query, feed candidates, then call Results. Reset makes
// it reusable across queries with its scratch state — compiled cost rows,
// column buffers, match buffers — retained, so a
// steady-state query stream allocates near-zero in the verify phase.
//
// Matches accumulate per trajectory: candidates should arrive grouped by
// trajectory ID (filter.GroupByTrajectory order), letting each
// trajectory's raw matches be counting-sorted by (S, T) and min-merged
// in one flush instead of hashing a map key per (start, end) pair in the
// enumeration hot loop.
// Ungrouped input stays correct — Results does a final adjacent merge
// over the canonical sort — it just buffers and merges less efficiently.
type Verifier struct {
	costs wed.Costs
	ds    *traj.Dataset
	q     []traj.Symbol
	tau   float64
	opts  Options

	// rows is the cost model compiled against q (see costRows).
	rows costRows

	// Grouped accumulation state: chunk buffers the raw (possibly
	// duplicated) matches of curID; flush counting-sorts it by (S, T),
	// through byT and counts, and min-merges into out. By Lemma 1 the
	// minimum of the three-way decomposition over all candidates covering
	// a match equals wed(P[s..t], Q), so the min-merge recovers the exact
	// WED.
	curID  int32
	chunk  []traj.Match
	byT    []traj.Match
	counts []int32
	out    []traj.Match

	// swSeen tracks distinct trajectory IDs already scanned in ModeSW.
	swSeen map[int32]bool

	// Scratch buffers. cols holds the two DP columns every walk alternates
	// between (see columns). efSuf[k] = min(ef[k:]) lets the
	// match-enumeration loop skip every dominated E^f suffix in O(1).
	// ends, starts and hits are Best's ends at w*, proposed starts and
	// confirming ends.
	eb, ef, efSuf, cols []float64
	ends, starts, hits  []int32

	// held is what Put last accounted to the pool's retained-bytes gauge
	// on this verifier's behalf; a separate allocation so the cleanup
	// that settles it when the pool drops the verifier can outlive it.
	held *atomic.Int64

	Stats Stats
}

// New creates a verifier for query q under threshold tau.
func New(costs wed.Costs, ds *traj.Dataset, q []traj.Symbol, tau float64, opts Options) *Verifier {
	v := &Verifier{}
	v.Reset(costs, ds, q, tau, opts)
	return v
}

// pool recycles verifiers across queries; Get/Put are the entry points.
// poolGets/poolNews instrument it: every Get bumps poolGets, and a Get
// that found the pool empty (a fresh allocation — GC pressure the pool
// failed to absorb) bumps poolNews. Their ratio is the steady-state
// reuse rate the /metrics verifier_pool gauges report. poolRetained is
// the scratch memory idle verifiers hold: Put adds a verifier's
// retainedBytes, and Get — or a cleanup, when a GC cycle empties the pool
// instead — takes it off again.
var (
	pool                             = sync.Pool{New: func() any { poolNews.Add(1); return new(Verifier) }}
	poolGets, poolNews, poolRetained atomic.Int64
)

// PoolStats returns the verifier-pool counters: gets is the cumulative
// number of Get calls, news how many of those had to allocate a fresh
// Verifier because the pool was empty. gets − news is the number of
// reuses; news/gets trending up under steady load means the pool is
// being drained (e.g. GC cycles) faster than Put refills it.
// retainedBytes is the current footprint of the compiled cost rows,
// column buffers and match buffers held by verifiers sitting in the pool —
// at most maxRetainedBytes each.
func PoolStats() (gets, news, retainedBytes int64) {
	return poolGets.Load(), poolNews.Load(), poolRetained.Load()
}

// Get returns a pooled verifier reset for the given query. Pair with Put
// once Results has been read; the verifier must not be used after Put.
//
//subtrajlint:pool-transfer
func Get(costs wed.Costs, ds *traj.Dataset, q []traj.Symbol, tau float64, opts Options) *Verifier {
	poolGets.Add(1)
	v := pool.Get().(*Verifier)
	if v.held != nil {
		poolRetained.Add(-v.held.Swap(0))
	}
	v.Reset(costs, ds, q, tau, opts)
	return v
}

// maxRetainedBytes is the pool-bloat cap: one huge query (a long query, a
// long trajectory, a large result set) must not pin its worst-case
// scratch in the pool forever, so Put trims what a verifier keeps to this
// budget and the next query reallocates at its own, typically far
// smaller, natural size. The compiled rows are most of it — 2|Q| floats
// per data symbol met, in 256 KiB slabs. On the benchmark city (EDR) the
// wide search's rows and buffers together held 1.3 MB, 28 k buffered
// matches included, plus 0.7 MB for a second buffer of as many matches,
// flush's counting-sort target. Top-k's float scan once held more rows —
// 1,601 symbols, 0.95 MB at |Q| = 30 — but under a unit-cost model Best
// scans words and compiles no row; the float scan still does for ERP,
// NetERP, SURS and |Q| > 64. The cap sits well above that steady state,
// so it binds only on outliers: a cap that binds on every Put would turn
// the pool into a per-query reallocation treadmill.
const maxRetainedBytes = 4 << 20

// Put returns v to the package pool. It drops every reference into the
// finished query — dataset, cost model, query; the compiled rows hold
// numbers only — so pooling never extends their lifetime, keeps the
// scratch for the next Get, and trims it to maxRetainedBytes so an
// outlier query cannot pin its peak footprint in the pool.
func Put(v *Verifier) {
	v.costs, v.ds, v.q = nil, nil, nil
	v.swSeen = nil
	v.trimRetained()
	if v.held == nil {
		v.held = new(atomic.Int64)
		runtime.AddCleanup(v, func(held *atomic.Int64) { poolRetained.Add(-held.Load()) }, v.held)
	}
	held := v.retainedBytes()
	v.held.Store(held)
	poolRetained.Add(held)
	pool.Put(v)
}

// retainedBytes is the footprint of what a verifier keeps between
// queries: compiled rows, column buffers and match buffers.
func (v *Verifier) retainedBytes() int64 {
	return v.rows.bytes() + v.bufferBytes()
}

func (v *Verifier) bufferBytes() int64 {
	floats := cap(v.eb) + cap(v.ef) + cap(v.efSuf) + cap(v.cols)
	ints := cap(v.ends) + cap(v.starts) + cap(v.hits) + cap(v.counts)
	matches := cap(v.chunk) + cap(v.byT) + cap(v.out)
	return int64(floats)*8 + int64(ints)*4 + int64(matches)*int64(unsafe.Sizeof(traj.Match{}))
}

// trimRetained cuts what stays allocated down to maxRetainedBytes: the
// buffers are dropped whole if they alone exceed it, and the rows keep
// what budget is left.
func (v *Verifier) trimRetained() {
	if v.bufferBytes() > maxRetainedBytes {
		v.eb, v.ef, v.efSuf, v.cols = nil, nil, nil, nil
		v.ends, v.starts, v.hits, v.counts = nil, nil, nil, nil
		v.chunk, v.byT, v.out = nil, nil, nil
	}
	v.rows.trim(maxRetainedBytes - v.bufferBytes())
}

// Reset prepares v for a new query, retaining allocated scratch state:
// the cost rows are recompiled into their old storage and the buffers
// keep their capacity.
func (v *Verifier) Reset(costs wed.Costs, ds *traj.Dataset, q []traj.Symbol, tau float64, opts Options) {
	v.costs, v.ds, v.q, v.tau, v.opts = costs, ds, q, tau, opts
	if opts.Mode != ModeSW {
		v.rows.reset(costs, q)
	}
	v.curID = -1
	v.chunk = v.chunk[:0]
	v.out = v.out[:0]
	clear(v.swSeen)
	v.Stats = Stats{}
}

// Verify processes one candidate (Algorithm 4).
func (v *Verifier) Verify(c Candidate) {
	v.Stats.Candidates++
	if v.opts.Mode == ModeSW {
		v.verifySW(c.ID)
		return
	}
	if c.ID != v.curID {
		v.flush()
		v.curID = c.ID
	}
	p := v.ds.Path(c.ID)
	j := int(c.Pos)
	b := p[j]
	qSym := v.q[c.IQ]
	subCost := v.costs.Sub(qSym, b)
	tauPrime := v.tau - subCost
	v.Stats.ColumnsAvailable += int64(len(p) - 1)
	if tauPrime <= 0 {
		return // even a perfect surrounding alignment cannot reach < τ
	}

	// E^b over the reversed prefix P[j-1], ..., P[0] vs reversed Q[:iq];
	// E^f over P[j+1], ..., P[|P|-1] vs Q[iq+1:]. The side holding the
	// longer half of Q is walked first, under the whole τ′; its minimum is
	// slack no pair can avoid spending. If that is all of τ′ the candidate
	// is rejected with the other side unwalked; otherwise the second walk
	// stops where the enumeration below would refuse every further entry,
	// in the enumeration's own float comparisons (DESIGN.md §1.4): efv <
	// τ′ − ebv fails for every efv ≥ τ′ − min E^b, and ebv + min E^f < τ′
	// fails for every ebv with ebv + min E^f ≥ τ′.
	backFirst := int(c.IQ) >= len(v.q)-1-int(c.IQ)
	var spent float64
	if backFirst {
		v.eb = v.prefixWED(p, j, -1, int(c.IQ), 0, tauPrime, v.eb[:0])
		spent = wed.Min(v.eb)
	} else {
		v.ef = v.prefixWED(p, j, +1, int(c.IQ), 0, tauPrime, v.ef[:0])
		spent = wed.Min(v.ef)
	}
	if spent >= tauPrime && !v.opts.DisableEarlyTermination {
		v.Stats.OneSided++
		return
	}
	if backFirst {
		v.ef = v.prefixWED(p, j, +1, int(c.IQ), 0, tauPrime-spent, v.ef[:0])
	} else {
		v.eb = v.prefixWED(p, j, -1, int(c.IQ), spent, tauPrime, v.eb[:0])
	}

	// Suffix minima of E^f: efSuf[k] = min(ef[k:]). efSuf[0] replaces
	// the per-candidate minOf scan, and inside the enumeration loop
	// efSuf[kf] ≥ rem proves every remaining suffix is dominated, so the
	// inner loop breaks in O(1) instead of scanning to the end.
	if cap(v.efSuf) < len(v.ef) {
		v.efSuf = make([]float64, len(v.ef))
	} else {
		v.efSuf = v.efSuf[:len(v.ef)]
	}
	for k := len(v.ef) - 1; k >= 0; k-- {
		m := v.ef[k]
		if k+1 < len(v.ef) && v.efSuf[k+1] < m {
			m = v.efSuf[k+1]
		}
		v.efSuf[k] = m
	}

	minEf := v.efSuf[0]
	for kb, ebv := range v.eb {
		if ebv+minEf >= tauPrime {
			continue
		}
		rem := tauPrime - ebv
		for kf, efv := range v.ef {
			if v.efSuf[kf] >= rem {
				break // every E^f from kf on is ≥ rem
			}
			if efv >= rem {
				continue
			}
			v.chunk = append(v.chunk, traj.Match{
				ID: c.ID, S: int32(j - kb), T: int32(j + kf),
				WED: subCost + ebv + efv,
			})
		}
	}
}

// flush orders the current trajectory's raw matches by (S, T) and
// min-merges duplicates into the output buffer. The order is a stable
// two-pass counting sort — by T into byT, then by S back into chunk —
// over keys offset by the chunk's smallest S: every key lies in
// [minS, maxT], a span of at most |P| positions, so it runs in
// O(raw + |P|) on raw matches that are mostly copies (each (s, t) is
// reported once per covering candidate). Min-merging does not depend on
// the order of a run's copies, so any (S, T) order folds to the same
// bits.
func (v *Verifier) flush() {
	if len(v.chunk) == 0 {
		return
	}
	lo, hi := v.chunk[0].S, v.chunk[0].T
	for _, m := range v.chunk[1:] {
		lo, hi = min(lo, m.S), max(hi, m.T)
	}
	v.byT = slices.Grow(v.byT[:0], len(v.chunk))[:len(v.chunk)]
	v.counts = slices.Grow(v.counts[:0], int(hi-lo)+1)[:int(hi-lo)+1]
	scatter(v.byT, v.chunk, v.counts, lo, false)
	scatter(v.chunk, v.byT, v.counts, lo, true)
	v.out = appendMinMerged(v.out, v.chunk)
	v.chunk = v.chunk[:0]
}

// scatter is one stable counting-sort pass: it writes src into dst
// ordered by key − lo, the key being S if byS and T otherwise, where
// every key lies in [lo, lo+len(counts)). dst and src must not overlap.
func scatter(dst, src []traj.Match, counts []int32, lo int32, byS bool) {
	clear(counts)
	for _, m := range src {
		k := m.T
		if byS {
			k = m.S
		}
		counts[k-lo]++
	}
	var sum int32
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
	for _, m := range src {
		k := m.T
		if byS {
			k = m.S
		}
		dst[counts[k-lo]] = m
		counts[k-lo]++
	}
}

// appendMinMerged appends the (ID, S, T)-sorted src onto dst, folding
// runs of equal keys — including one straddling the dst/src boundary —
// to their minimum WED (the Lemma 1 combination rule). It is the one
// place the dedup semantics live, shared by the per-trajectory flush and
// Results' final compaction. Aliasing dst = src[:0] compacts src in
// place: the write index always trails the read index and the backing
// array never grows.
func appendMinMerged(dst, src []traj.Match) []traj.Match {
	for _, m := range src {
		if n := len(dst); n > 0 && dst[n-1].Key() == m.Key() {
			if m.WED < dst[n-1].WED {
				dst[n-1].WED = m.WED
			}
			continue
		}
		dst = append(dst, m)
	}
	return dst
}

// prefixWED walks P in direction dir from position j (exclusive) and
// returns the prefix-WED array E^d, E^d[k] = wed(P^d[1..k], Q^d), for
// k = 0..K where K is the early-termination depth (Algorithm 5). Q^d is
// Q[iq+1:] forwards and reversed(Q[:iq]) backwards, both a run of cells
// of the compiled row pairs (see costRows). The returned slice aliases
// dst's storage. Entries may be +Inf when cell |Q^d| fell outside a
// column's τ-band — such a prefix WED is ≥ τ ≥ τ′ and can never join a
// result, exactly as its true value.
//
// Column k is computed from column k−1 alone, so the walk alternates
// between the two buffers of columns; the root column is wed(ε, Q^d[..i]),
// the insertion prefix sums. Every column is banded at the query τ ≥ cut:
// its cells < τ are exact (wed.StepDPBanded), and no other cell can join
// a result. The walk stops at the first column whose minimum LB satisfies
// LB + spent ≥ cut (Eq. 11 is spent = 0, cut = τ′). Column minima never
// decrease along a walk, in floats as in reals, so every deeper entry
// satisfies it too.
func (v *Verifier) prefixWED(p []traj.Symbol, j, dir, iq int, spent, cut float64, dst []float64) []float64 {
	m := len(v.q)
	row0, n := iq+1, m-iq-1
	if dir < 0 {
		row0, n = 2*m-iq, iq
	}
	a, b := v.columns()
	alo, ahi := 0, insColumn(v.rows.ins[row0:row0+n], v.tau, a)
	par := a[:ahi]
	dst = append(dst, lastCell(par, ahi, n)) // E_0 = wed(ε, Q^d)
	for i := j + dir; i >= 0 && i < len(p); i += dir {
		lo, hi := v.step(p[i], row0, n, par, alo, ahi, v.tau, b)
		band := b[:0]
		if lo < hi {
			band = b[lo-alo : hi-alo]
		}
		colMin := math.Inf(1)
		if len(band) > 0 {
			colMin = wed.Min(band)
		}
		if !v.opts.DisableEarlyTermination && colMin+spent >= cut {
			break
		}
		dst = append(dst, lastCell(band, hi, n))
		par, alo, ahi = band, lo, hi
		a, b = b, a
	}
	return dst
}

// lastCell returns cell n of a column whose band [.., hi) is band: the
// band's last cell if it reaches n, else +Inf — the cell is ≥ τ and
// can never join a result.
func lastCell(band []float64, hi, n int) float64 {
	if hi != n+1 {
		return math.Inf(1)
	}
	return band[len(band)-1]
}

// insColumn writes the insertion prefix sums wed(ε, Qd[:j]), summed left
// to right as wed.AllMatches sums them, into dst while they stay below cut
// and returns the band's end: the sums never decrease, so the cells < cut
// are [0, hi).
func insColumn(ins []float64, cut float64, dst []float64) (hi int) {
	sum := 0.0
	for j := 0; j <= len(ins) && sum < cut; j++ {
		dst[j] = sum
		hi = j + 1
		if j < len(ins) {
			sum += ins[j]
		}
	}
	return hi
}

// step computes the column that follows data symbol sym over the query
// side whose costs are cells [row0, row0+n) of the compiled row pairs:
// par holds the parent's band [alo, ahi), and the child's band [lo, hi)
// lands in dst[lo-alo : hi-alo], as wed.StepDPRows writes it. An empty
// parent band has an empty child and costs no cell, but the column still
// counts.
func (v *Verifier) step(sym traj.Symbol, row0, n int, par []float64, alo, ahi int, cut float64, dst []float64) (lo, hi int) {
	cells := 0
	if alo < ahi {
		row := v.rows.row(v.costs, v.q, sym)
		lo, hi, cells = wed.StepDPRows(row.sub[row0:row0+n], v.rows.ins[row0:row0+n], row.del, par, alo, ahi, cut, dst)
	}
	v.count(cells, n)
	return lo, hi
}

// count books one computed column of cells cells over a query side of n.
func (v *Verifier) count(cells, n int) {
	v.Stats.StepDPCalls++
	v.Stats.ColumnsVisited++
	v.Stats.CellsComputed += int64(cells)
	v.Stats.CellsAvailable += int64(n + 1)
}

// columns returns the two column buffers every walk alternates between,
// |Q|+1 cells each: the widest column any walk of the query needs.
func (v *Verifier) columns() (a, b []float64) {
	n := len(v.q) + 1
	if cap(v.cols) < 2*n {
		v.cols = make([]float64, 2*n)
	}
	return v.cols[:n], v.cols[n : 2*n]
}

// verifySW scans the whole trajectory once per distinct ID, enumerating
// every match with the exhaustive threshold-aware DP.
func (v *Verifier) verifySW(id int32) {
	if v.swSeen[id] {
		return
	}
	if v.swSeen == nil {
		v.swSeen = make(map[int32]bool)
	}
	v.swSeen[id] = true
	if id != v.curID {
		v.flush()
		v.curID = id
	}
	p := v.ds.Path(id)
	v.Stats.ColumnsAvailable += int64(len(p) - 1)
	for _, m := range wed.AllMatches(v.costs, v.q, p, v.tau) {
		v.chunk = append(v.chunk, traj.Match{ID: id, S: int32(m.S), T: int32(m.T), WED: m.WED})
	}
}

// Results returns the deduplicated matches sorted by (ID, S, T). The sort
// is load-bearing, not cosmetic: per-trajectory match runs accumulate in
// feed order, so without it the order would follow the candidate stream,
// and the engine's fan-out concatenates per-range result lists on the
// strength of each arriving in this canonical order (see
// traj.SortMatches).
// The adjacent merge after the sort folds duplicate (ID, S, T) runs from
// callers that interleaved trajectories.
func (v *Verifier) Results() []traj.Match {
	v.flush()
	traj.SortMatches(v.out)
	v.out = appendMinMerged(v.out[:0], v.out)
	out := make([]traj.Match, len(v.out))
	copy(out, v.out)
	v.Stats.Matches = len(out)
	return out
}
