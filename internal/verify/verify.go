// Package verify implements the candidate verification of §5: local
// verification that runs the WED dynamic programming bidirectionally from
// the candidate position (Lemma 1), early termination on the column lower
// bound (Eq. 11), and bidirectional tries that cache DP columns across
// candidates sharing path prefixes (Algorithms 3–6). Cached columns are
// τ-banded: only the cell range that can still influence a result under
// the query threshold is computed and stored (see trie.go and
// wed.StepDPBanded); the CellsComputed/CellsAvailable counters measure
// the saving, and banding is bit-equal to the full-width DP. The two
// directions of a candidate are not walked independently: the minimum of
// the first walk either rejects the candidate outright or tightens the
// second walk's cut (Verify). The columns of all of a verifier's tries
// live in one slab arena (arena.go), and the DP kernel reads its costs
// from rows compiled once per query and data symbol (rows.go) rather than
// through a wed.Costs call per cell. The top-k driver reads the same rows
// through Best (best.go): one Smith–Waterman scan per trajectory, no tries.
//
// Three modes with identical result sets support the paper's ablations:
//
//	ModeBT    — local bidirectional DP + trie caching  (the paper's -BT)
//	ModeLocal — local bidirectional DP, no caching     (isolates §5.1)
//	ModeSW    — full-trajectory DP scan per candidate  (the paper's -SW)
package verify

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// Mode selects the verification algorithm.
type Mode uint8

const (
	// ModeBT is local verification with bidirectional-trie caching.
	ModeBT Mode = iota
	// ModeLocal is local verification without caching.
	ModeLocal
	// ModeSW runs a full dynamic-programming scan over each distinct
	// candidate trajectory (threshold-aware), ignoring positions.
	ModeSW
)

func (m Mode) String() string {
	switch m {
	case ModeBT:
		return "BT"
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
	// ColumnsVisited counts columns that passed early termination —
	// walked in the trie, whether cached or computed (UPR numerator,
	// CMR denominator).
	ColumnsVisited int64
	// StepDPCalls counts columns actually computed by StepDP (CMR
	// numerator).
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
	// TrieNodes is the total number of cached DP columns across the
	// bidirectional tries at the end of the query (memory metric of
	// §5.2; equals StepDPCalls plus one root per trie in BT mode).
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
	s.TrieNodes += o.TrieNodes
	s.Matches += o.Matches
}

// UPR returns the unpruned position rate (§6.4).
func (s Stats) UPR() float64 { return ratio(s.ColumnsVisited, s.ColumnsAvailable) }

// CMR returns the cache miss rate (§6.4).
func (s Stats) CMR() float64 { return ratio(s.StepDPCalls, s.ColumnsVisited) }

// TUR returns the total unpruned rate UPR × CMR.
func (s Stats) TUR() float64 { return s.UPR() * s.CMR() }

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
// it reusable across queries with its scratch state — the column arena,
// compiled cost rows, trie nodes, match buffers — retained, so a
// steady-state query stream allocates near-zero in the verify phase.
//
// Matches accumulate per trajectory: candidates should arrive grouped by
// trajectory ID (filter.GroupByTrajectory order), letting each
// trajectory's raw matches be sorted and min-merged in one flush instead
// of hashing a map key per (start, end) pair in the enumeration hot loop.
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

	// Per-iq bidirectional tries, indexed by iq (lazily created: only
	// candidate iqs get tries, which matches Algorithm 3's "for (q, iq)
	// ∈ Q'"). ModeLocal leaves it empty.
	tries []dirTries

	// The node store and column arena every trie shares (see trie.go).
	nodes        []trieNode
	colMin, tail []float64
	cols         arena

	// Grouped accumulation state: chunk buffers the raw (possibly
	// duplicated) matches of curID; flush sorts it by (S, T) and
	// min-merges into out. By Lemma 1 the minimum of the three-way
	// decomposition over all candidates covering a match equals
	// wed(P[s..t], Q), so the min-merge recovers the exact WED.
	curID int32
	chunk []traj.Match
	out   []traj.Match

	// swSeen tracks distinct trajectory IDs already scanned in ModeSW.
	swSeen map[int32]bool

	// Scratch buffers. efSuf[k] = min(ef[k:]) lets the match-enumeration
	// loop skip every dominated E^f suffix in O(1). scan holds Best's two
	// columns; ends, starts and hits its ends at w*, proposed starts and
	// confirming ends.
	eb, ef, efSuf, scan []float64
	ends, starts, hits  []int32

	// held is what Put last accounted to the pool's retained-bytes gauge
	// on this verifier's behalf; a separate allocation so the cleanup
	// that settles it when the pool drops the verifier can outlive it.
	held *atomic.Int64

	Stats Stats
}

type dirTries struct {
	fwd, bwd trie
	built    bool
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
// retainedBytes is the current footprint of the column arenas, compiled
// cost rows and trie node arrays held by verifiers sitting in the pool —
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

// Pool-bloat caps: one huge query (long trajectories, fat τ) must not pin
// its worst-case scratch in the pool forever. Put drops any piece whose
// retained capacity exceeds its cap; the next query simply reallocates at
// its own (typically far smaller) natural size. The caps are safety
// valves sized above the steady state of the bulk benchmark workload — a
// cap that binds on every Put would turn the pool into a per-query
// reallocation treadmill.
const (
	// maxRetainedBytes is the one budget for everything the tries are
	// made of — column slabs, compiled cost rows and the node arrays. On
	// the benchmark city a τ_ratio 0.3 query over |Q| = 60 fills 5–25 MB
	// of columns and up to 10 MB of node arrays per fan-out worker, so most
	// such queries find everything they need already allocated. A top-k
	// query builds no tries: it keeps only compiled rows and two scan
	// columns. Half this budget costs the wide search 9% of its latency.
	maxRetainedBytes = 32 << 20
	// maxRetainedMatches bounds the chunk/out match buffers (~1.5 MiB).
	maxRetainedMatches = 64 << 10
	// maxRetainedSeen bounds the ModeSW dedup map (maps never shrink
	// their buckets; past the cap it is dropped wholesale).
	maxRetainedSeen = 32 << 10
	// maxRetainedCols bounds the E^b/E^f/suffix-min scratch, whose
	// length tracks the longest early-termination walk, and Best's
	// scratch, whose length tracks |Q| and the trajectory's.
	maxRetainedCols = 32 << 10
)

// Put returns v to the package pool. It drops every reference into the
// finished query — dataset, cost model, query; the tries and the compiled
// rows hold numbers only — so pooling never extends their lifetime, keeps
// the scratch arenas for the next Get, and caps each retained piece so an
// outlier query cannot pin its peak footprint in the pool.
func Put(v *Verifier) {
	v.costs, v.ds, v.q = nil, nil, nil
	v.trimRetained()
	v.chunk, v.out = capped(v.chunk, maxRetainedMatches), capped(v.out, maxRetainedMatches)
	if len(v.swSeen) > maxRetainedSeen {
		v.swSeen = nil
	}
	v.eb, v.ef, v.efSuf = capped(v.eb, maxRetainedCols), capped(v.ef, maxRetainedCols), capped(v.efSuf, maxRetainedCols)
	v.scan = capped(v.scan, maxRetainedCols)
	v.ends, v.starts, v.hits = capped(v.ends, maxRetainedCols), capped(v.starts, maxRetainedCols), capped(v.hits, maxRetainedCols)
	if v.held == nil {
		v.held = new(atomic.Int64)
		runtime.AddCleanup(v, func(held *atomic.Int64) { poolRetained.Add(-held.Load()) }, v.held)
	}
	held := v.retainedBytes()
	v.held.Store(held)
	poolRetained.Add(held)
	pool.Put(v)
}

// capped returns s, or nil once its capacity exceeds limit.
func capped[T any](s []T, limit int) []T {
	if cap(s) > limit {
		return nil
	}
	return s
}

// retainedBytes is the footprint of what the tries are made of: column
// slabs, compiled cost rows and the node arrays.
func (v *Verifier) retainedBytes() int64 {
	return v.cols.bytes() + v.rows.bytes() + v.nodeBytes()
}

func (v *Verifier) nodeBytes() int64 {
	return int64(cap(v.nodes))*int64(unsafe.Sizeof(trieNode{})) + int64(cap(v.colMin)+cap(v.tail))*8
}

// trimRetained ends the query's use of the trie storage and cuts what
// stays allocated down to maxRetainedBytes: column slabs go first, and
// the rows and node arrays — small next to the columns they index — are
// dropped whole only if they alone exceed the budget.
func (v *Verifier) trimRetained() {
	fixed := v.rows.bytes() + v.nodeBytes()
	if fixed > maxRetainedBytes {
		v.rows = costRows{}
		v.nodes, v.colMin, v.tail = nil, nil, nil
		fixed = 0
	}
	v.cols.trim(maxRetainedBytes - fixed)
}

// Reset prepares v for a new query, retaining allocated scratch state:
// the column arena and node arrays are emptied in place, the cost rows
// recompiled into their old storage, maps cleared, and the DP scratch
// buffers keep their capacity.
func (v *Verifier) Reset(costs wed.Costs, ds *traj.Dataset, q []traj.Symbol, tau float64, opts Options) {
	v.costs, v.ds, v.q, v.tau, v.opts = costs, ds, q, tau, opts
	v.tries = v.tries[:0]
	v.retireTries(trieMark{})
	if opts.Mode != ModeSW {
		v.rows.reset(costs, q)
	}
	v.curID = -1
	v.chunk = v.chunk[:0]
	v.out = v.out[:0]
	if v.swSeen == nil {
		v.swSeen = make(map[int32]bool)
	} else {
		clear(v.swSeen)
	}
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

	var tr dirTries
	if v.opts.Mode == ModeBT {
		tr = v.trieFor(c.IQ)
	} else {
		// No sharing across candidates, so each one's nodes and columns
		// are freed as soon as its matches are enumerated.
		defer v.retireTries(v.markTries())
		tr = v.freshTries(c.IQ)
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
		v.eb = v.allPrefixWED(tr.bwd, p, j, -1, 0, tauPrime, v.eb[:0])
		spent = wed.Min(v.eb)
	} else {
		v.ef = v.allPrefixWED(tr.fwd, p, j, +1, 0, tauPrime, v.ef[:0])
		spent = wed.Min(v.ef)
	}
	if spent >= tauPrime && !v.opts.DisableEarlyTermination {
		v.Stats.OneSided++
		return
	}
	if backFirst {
		v.ef = v.allPrefixWED(tr.fwd, p, j, +1, 0, tauPrime-spent, v.ef[:0])
	} else {
		v.eb = v.allPrefixWED(tr.bwd, p, j, -1, spent, tauPrime, v.eb[:0])
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

// flush sorts the current trajectory's raw matches by (S, T) and
// min-merges duplicates into the output buffer.
func (v *Verifier) flush() {
	if len(v.chunk) == 0 {
		return
	}
	traj.SortMatches(v.chunk) // single ID: effectively (S, T) order
	v.out = appendMinMerged(v.out, v.chunk)
	v.chunk = v.chunk[:0]
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

// allPrefixWED walks/extends the trie along P in the given direction from
// position j (exclusive) and returns the prefix-WED array E^d, E^d[k] =
// wed(P^d[1..k], Q^d), for k = 0..K where K is the early-termination depth
// (Algorithm 5). The returned slice aliases dst's storage. Entries may be
// +Inf when cell |Q^d| fell outside a column's τ-band — such a prefix WED
// is ≥ τ ≥ τ′ and can never join a result, exactly as its true value.
//
// The walk stops at the first column whose minimum LB satisfies LB + spent
// ≥ cut (Eq. 11 is spent = 0, cut = τ′). Column minima never decrease
// along a walk, in floats as in reals, so every deeper entry satisfies it
// too.
func (v *Verifier) allPrefixWED(t trie, p []traj.Symbol, j, dir int, spent, cut float64, dst []float64) []float64 {
	node := t.root
	dst = append(dst, v.tail[node]) // E_0 = wed(ε, Q^d)
	for k := 1; ; k++ {
		i := j + dir*k
		if i < 0 || i >= len(p) {
			break
		}
		child, computed := v.child(t, node, p[i])
		if computed {
			v.Stats.StepDPCalls++
		}
		v.Stats.ColumnsVisited++
		if !v.opts.DisableEarlyTermination && v.colMin[child]+spent >= cut {
			break
		}
		dst = append(dst, v.tail[child])
		node = child
	}
	return dst
}

// trieFor returns (building on first use) the bidirectional tries of iq.
func (v *Verifier) trieFor(iq int32) dirTries {
	if len(v.tries) == 0 {
		v.tries = append(v.tries, make([]dirTries, len(v.q))...)
	}
	if !v.tries[iq].built {
		v.tries[iq] = v.freshTries(iq)
	}
	return v.tries[iq]
}

// freshTries creates the tries of iq: forward over Q[iq+1:], backward over
// reversed(Q[:iq]) — suffixes of the first and second half of a compiled
// row pair.
func (v *Verifier) freshTries(iq int32) dirTries {
	m := int32(len(v.q))
	return dirTries{fwd: v.newTrie(iq+1, m-iq-1), bwd: v.newTrie(2*m-iq, iq), built: true}
}

// verifySW scans the whole trajectory once per distinct ID, enumerating
// every match with the exhaustive threshold-aware DP.
func (v *Verifier) verifySW(id int32) {
	if v.swSeen[id] {
		return
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
	v.Stats.TrieNodes += len(v.nodes)
	traj.SortMatches(v.out)
	v.out = appendMinMerged(v.out[:0], v.out)
	out := make([]traj.Match, len(v.out))
	copy(out, v.out)
	v.Stats.Matches = len(out)
	return out
}
