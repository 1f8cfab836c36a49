package index

import (
	"runtime"
	"sync"

	"subtraj/internal/traj"
)

// This file adds the trajectory-sharded variant of the inverted index.
// A Sharded index partitions postings by trajectory ID into P shards
// (shard(id) = id mod P), each exposing the same read surface as the flat
// Inverted index, so candidate generation and verification can run
// shard-parallel within one query: the paper's filter/verify split (§4–§5)
// is independent along the trajectory axis, and the §5 trie cache only
// shares state within one τ-subsequence position, never across shards.
// Global statistics (n(q) frequencies, departure intervals) stay
// shard-independent so the MinCand plan — and therefore the candidate set —
// is identical at every shard count.

// PostingSource is the read surface candidate generation needs: the flat
// Inverted index and each Shard of a Sharded index both provide it, so
// the filter layer is agnostic to how postings are partitioned.
type PostingSource interface {
	// Postings returns the postings list L_q (shared; do not modify).
	Postings(q traj.Symbol) []Posting
	// PostingsInWindow returns the postings of q whose trajectory departs
	// in [lo, hi] (requires the temporal order to have been built).
	PostingsInWindow(q traj.Symbol, lo, hi float64) []Posting
	// IntervalOverlaps reports whether trajectory id's [departure,
	// arrival] interval intersects [lo, hi].
	IntervalOverlaps(id int32, lo, hi float64) bool
}

var (
	_ PostingSource = (*Inverted)(nil)
	_ PostingSource = (*Shard)(nil)
)

// Sharded is an inverted index partitioned by trajectory ID into P shards.
// It answers the global queries plan building needs (Freq, Interval) and
// exposes per-shard PostingSources for parallel candidate generation.
// Like Inverted, it is immutable once built and safe for concurrent
// readers; BuildTemporal, the one lazy step, synchronises itself.
type Sharded struct {
	shards []Shard
	// departures/arrivals are global (indexed by trajectory ID): every
	// shard shares them, and the temporal pre-filter reads them directly.
	departures []float64
	arrivals   []float64
	// freq is the global n(q) over all shards — the MinCand objective
	// must see dataset-wide frequencies so the chosen τ-subsequence does
	// not depend on the shard count.
	freq        map[traj.Symbol]int
	numPostings int
	temporalOrder
}

// Shard is one trajectory partition of a Sharded index. It implements
// PostingSource over only its own trajectories.
type Shard struct {
	parent      *Sharded
	lists       map[traj.Symbol][]Posting
	byDeparture map[traj.Symbol][]Posting
}

// DefaultShards picks the shard count for auto configuration: one shard
// per available CPU, so a fully parallel query can saturate the machine.
// The tradeoff is deliberate: a sequential query over a P-shard index
// pays P map lookups per neighbour symbol instead of one, a few percent
// of the lookup phase, in exchange for every engine being ready to fan
// out without a rebuild. Callers that will only ever run sequentially
// can pass an explicit shard count of 1.
func DefaultShards() int {
	return runtime.GOMAXPROCS(0)
}

// BuildSharded indexes the dataset into p shards (p < 1 selects
// DefaultShards). Shards are built in parallel — each worker scans only
// its own ID residue class, so no synchronisation is needed until the
// final frequency merge.
func BuildSharded(ds *traj.Dataset, p int) *Sharded {
	if p < 1 {
		p = DefaultShards()
	}
	if n := ds.Len(); p > n && n > 0 {
		p = n // more shards than trajectories would just be empty maps
	}
	x := &Sharded{
		shards:     make([]Shard, p),
		departures: make([]float64, ds.Len()),
		arrivals:   make([]float64, ds.Len()),
		freq:       make(map[traj.Symbol]int),
	}
	var wg sync.WaitGroup
	for s := 0; s < p; s++ {
		x.shards[s] = Shard{parent: x, lists: make(map[traj.Symbol][]Posting)}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sh := &x.shards[s]
			for id := s; id < ds.Len(); id += p {
				t := ds.Get(int32(id))
				for pos, sym := range t.Path {
					sh.lists[sym] = append(sh.lists[sym], Posting{ID: int32(id), Pos: int32(pos)})
				}
				x.departures[id], x.arrivals[id] = interval(t)
			}
		}(s)
	}
	wg.Wait()
	for s := range x.shards {
		for sym, list := range x.shards[s].lists {
			x.freq[sym] += len(list)
			x.numPostings += len(list)
		}
	}
	return x
}

// NumShards returns the partition count P.
func (x *Sharded) NumShards() int { return len(x.shards) }

// Freq returns the global n(q) across all shards (the MinCand input).
func (x *Sharded) Freq(q traj.Symbol) int { return x.freq[q] }

// NumPostings returns the total posting count across shards.
func (x *Sharded) NumPostings() int { return x.numPostings }

// IntervalOverlaps reports whether trajectory id's interval intersects
// [lo, hi].
func (x *Sharded) IntervalOverlaps(id int32, lo, hi float64) bool {
	return x.departures[id] <= hi && x.arrivals[id] >= lo
}

// BuildTemporal materialises the departure-sorted postings order of every
// shard (§4.3), once, in parallel across shards.
func (x *Sharded) BuildTemporal() {
	x.build(func() {
		var wg sync.WaitGroup
		for s := range x.shards {
			wg.Add(1)
			go func(sh *Shard) {
				defer wg.Done()
				sh.byDeparture = sortedByDeparture(sh.lists, x.departures)
			}(&x.shards[s])
		}
		wg.Wait()
	})
}

// Source returns shard i as a PostingSource (no pooling: shard reads are
// zero-copy views, so the source is the shard itself).
func (x *Sharded) Source(i int) PostingSource { return &x.shards[i] }

// NumTrajectories returns the number of indexed trajectories.
func (x *Sharded) NumTrajectories() int { return len(x.departures) }

// Kind names the backend family for stats and bench output.
func (x *Sharded) Kind() string { return "pointer" }

// Rebuild indexes ds into a fresh index with the same shard count.
func (x *Sharded) Rebuild(ds *traj.Dataset) Backend { return BuildSharded(ds, len(x.shards)) }

// IndexBytes estimates the heap footprint of the pointer backend:
// postings slices (main and temporal orders), map overheads, interval
// slices, and the global frequency table. An estimate, not an
// accounting — it exists so benchall can put the two backends on one
// axis; the compact side of that comparison is exact.
func (x *Sharded) IndexBytes() int64 {
	temporal := x.TemporalReady()
	var b int64
	for s := range x.shards {
		b += listMapBytes(x.shards[s].lists)
		if temporal {
			b += listMapBytes(x.shards[s].byDeparture)
		}
	}
	b += int64(cap(x.departures)+cap(x.arrivals)) * 8
	return b + int64(len(x.freq))*(8+mapEntryBytes)
}

// Postings returns this shard's postings of q (shared; do not modify).
func (sh *Shard) Postings(q traj.Symbol) []Posting { return sh.lists[q] }

// PostingsInWindow returns this shard's postings of q whose trajectory
// departs in [lo, hi] (BuildTemporal must have run; see
// Inverted.PostingsInWindow for the departure-window semantics).
func (sh *Shard) PostingsInWindow(q traj.Symbol, lo, hi float64) []Posting {
	return postingsInWindow(sh.byDeparture[q], sh.parent.departures, lo, hi)
}

// IntervalOverlaps reports whether trajectory id's interval intersects
// [lo, hi].
func (sh *Shard) IntervalOverlaps(id int32, lo, hi float64) bool {
	return sh.parent.IntervalOverlaps(id, lo, hi)
}
