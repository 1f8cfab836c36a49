package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"subtraj/internal/geo"
	"subtraj/internal/spatial"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// edrEps is ε for EDR: one nominal block, the paper's default and the
// value wedserve's -model EDR hard-codes.
const edrEps = 100.0

// sizing fixes every input dimension. pinned is the benchmark; quick is
// the miniature that main_test.go drives in a few seconds.
type sizing struct {
	cfg     workload.Config // the pinned city; its Seed is the generator's own
	base    int             // trajectories wedserve loads
	heldOut int             // trajectories kept back as the ingest stream
	queries int             // distinct queries per list; above the 1,024-entry result cache
	// |Q| per workload.
	qDefault, qWide, qTopK, qMixed int
	topK                           int
	writeRate                      float64 // ingest_mixed writes per second
	compactAppends                 int     // -compact-appends for ingest_mixed
	bruteQueries, bruteSample      int     // brute-force answer check: queries, random trajectories per query
	setups                         int     // wedserve starts per run; setup_s is their median
	warmup                         float64 // share of -seconds sent untimed before the timed phase
	// Traced-run sample sizes.
	tracedDefault, tracedWide, tracedTopK, tracedMixed int
	topkProbe                                          int     // top-k queries replayed under non-top-k workloads
	deltaAppends                                       int     // unfolded appends behind index.delta_lookup_us / server.fold_ms
	matchTraces                                        int     // GPS traces behind mapmatch.*
	probeSeconds                                       float64 // length of the traced run's write probe
}

func pinnedSizing() sizing {
	cfg := workload.SanFranLike()
	return sizing{
		cfg: cfg, base: 13800, heldOut: 12000, queries: 4096,
		qDefault: 60, qWide: 60, qTopK: 30, qMixed: 20, topK: 10,
		writeRate: 240, compactAppends: 512,
		bruteQueries: 8, bruteSample: 192, setups: 9, warmup: 0.1,
		tracedDefault: 256, tracedWide: 32, tracedTopK: 12, tracedMixed: 256,
		topkProbe: 6, deltaAppends: 2048, matchTraces: 64, probeSeconds: 4,
	}
}

func quickSizing() sizing {
	cfg := workload.Tiny(42)
	return sizing{
		cfg: cfg, base: 300, heldOut: 400, queries: 1100,
		qDefault: 12, qWide: 12, qTopK: 8, qMixed: 6, topK: 3,
		writeRate: 100, compactAppends: 32,
		bruteQueries: 2, bruteSample: 40, setups: 1, warmup: 0.1,
		tracedDefault: 16, tracedWide: 8, tracedTopK: 4, tracedMixed: 16,
		topkProbe: 2, deltaAppends: 64, matchTraces: 4, probeSeconds: 0.3,
	}
}

// spec is one workload: what is sent and against which wedserve flags.
type spec struct {
	name     string
	endpoint string // "" for ingest_mixed, which alternates search and temporal
	qlen     int
	tauRatio float64
	k        int
	traced   int
	durable  bool // start wedserve with the WAL flags and run the write stream
}

func (z sizing) specs() []spec {
	return []spec{
		{name: "search_default", endpoint: "/v1/search", qlen: z.qDefault, tauRatio: 0.1, traced: z.tracedDefault},
		{name: "search_wide", endpoint: "/v1/search", qlen: z.qWide, tauRatio: 0.3, traced: z.tracedWide},
		{name: "topk_k10", endpoint: "/v1/topk", qlen: z.qTopK, k: z.topK, traced: z.tracedTopK},
		{name: "ingest_mixed", qlen: z.qMixed, tauRatio: 0.1, traced: z.tracedMixed, durable: true},
	}
}

func (z sizing) spec(name string) (spec, error) {
	for _, s := range z.specs() {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// query is one read request. src is the trajectory it was sampled from,
// so a WED-0 match is known to exist; lo/hi are set on temporal queries.
type query struct {
	endpoint string
	q        []traj.Symbol
	src      int32
	tau      float64
	k        int
	temporal bool
	lo, hi   float64
	body     []byte
}

// write is one request of the ingest stream. truth is the held-out path;
// trace is set on /v1/ingest requests.
type write struct {
	endpoint  string
	truth     []traj.Symbol
	trace     []geo.Point
	userBytes int
	body      []byte
}

// inputs is everything a run hands to the program, all derived from seed.
type inputs struct {
	seed    int64
	size    sizing
	wl      *workload.Workload // the base dataset wedserve loads
	heldOut []traj.Trajectory
	gob     []byte
	costs   wed.FilterCosts
	reads   map[string][]query // by workload name
	writes  []write
	hash    string
}

// rngFor derives an independent stream per purpose, so adding a stream
// never shifts the draws of another.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(int64(h.Sum64()) ^ seed*-7046029254386353131))
}

// sampleQuery is workload.SampleQuery's protocol (§6.3: a random
// subtrajectory of a random data trajectory) that also reports the source
// trajectory, which the temporal window and the answer checks need.
func sampleQuery(ds *traj.Dataset, qlen int, rng *rand.Rand) ([]traj.Symbol, int32, error) {
	for i := 0; i < 10000; i++ {
		id := rng.Intn(ds.Len())
		p := ds.Trajs[id].Path
		if len(p) < qlen {
			continue
		}
		s := rng.Intn(len(p) - qlen + 1)
		return append([]traj.Symbol(nil), p[s:s+qlen]...), int32(id), nil
	}
	return nil, 0, fmt.Errorf("no trajectory of length ≥ %d", qlen)
}

// buildInputs generates a run's inputs. The city and its trajectories are
// pinned — the generator's own seed, so the base dataset is the very one
// BENCH_059bf58.json was measured on — and -seed decides what is sent:
// which queries, which held-out trajectories in which order, which GPS
// noise. Re-rolling the city per seed as well moved search_wide's median
// latency by ±15% between seeds (the size of EDR neighbourhoods follows
// the grid's perturbation), more than any bound the metrics could carry.
func buildInputs(seed int64, z sizing) (*inputs, error) {
	cfg := z.cfg
	cfg.NumTrajectories = z.base + z.heldOut
	all := workload.Generate(cfg)
	base := &workload.Workload{Config: cfg, Graph: all.Graph, Data: all.Data.Slice(z.base)}
	base.Config.NumTrajectories = z.base
	// Cap the slice so an append to the base dataset can never write
	// into the held-out trajectories behind it.
	base.Data.Trajs = base.Data.Trajs[:z.base:z.base]
	heldOut := make([]traj.Trajectory, z.heldOut)
	for i, j := range rngFor(seed, "held-out order").Perm(z.heldOut) {
		heldOut[i] = all.Data.Trajs[z.base+j]
	}

	in := &inputs{
		seed: seed, size: z, wl: base,
		heldOut: heldOut,
		reads:   make(map[string][]query),
	}
	var buf bytes.Buffer
	if err := base.Save(&buf); err != nil {
		return nil, fmt.Errorf("encode dataset: %w", err)
	}
	in.gob = buf.Bytes()
	in.costs = wed.NewEDR(base.Graph.Coords(), spatial.Build(base.Graph.Coords()), edrEps)

	sum := sha256.New()
	sum.Write(in.gob)
	for _, sp := range z.specs() {
		qs, err := in.buildReads(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		in.reads[sp.name] = qs
		for i := range qs {
			sum.Write([]byte(qs[i].endpoint))
			sum.Write(qs[i].body)
		}
	}
	if err := in.buildWrites(); err != nil {
		return nil, err
	}
	for i := range in.writes {
		sum.Write([]byte(in.writes[i].endpoint))
		sum.Write(in.writes[i].body)
	}
	in.hash = hex.EncodeToString(sum.Sum(nil))
	return in, nil
}

// buildReads samples the de-duplicated query list of one workload.
func (in *inputs) buildReads(sp spec) ([]query, error) {
	rng := rngFor(in.seed, "queries/"+sp.name)
	ds := in.wl.Data
	seen := make(map[string]bool, in.size.queries)
	out := make([]query, 0, in.size.queries)
	for attempts := 0; len(out) < in.size.queries; attempts++ {
		if attempts > 50*in.size.queries {
			return nil, fmt.Errorf("only %d distinct queries of length %d", len(out), sp.qlen)
		}
		q, src, err := sampleQuery(ds, sp.qlen, rng)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprint(q)
		if seen[key] {
			continue
		}
		seen[key] = true
		qu := query{endpoint: sp.endpoint, q: q, src: src, k: sp.k}
		body := map[string]any{"q": q}
		if sp.k > 0 {
			body["k"] = sp.k
		} else {
			body["tau_ratio"] = sp.tauRatio
			qu.tau = sp.tauRatio * float64(len(q)) // EDR: c(q) = 1 per symbol
		}
		if sp.endpoint == "" {
			// ingest_mixed alternates plain and departure-window reads.
			// The window is 10% of the horizon and holds the source's
			// departure, so the WED-0 match survives the constraint.
			qu.endpoint = "/v1/search"
			if len(out)%2 == 1 {
				qu.endpoint, qu.temporal = "/v1/temporal", true
				dep, _ := ds.Get(src).Departure()
				w := 0.1 * in.wl.Config.Horizon
				qu.lo = dep - rng.Float64()*w
				qu.hi = qu.lo + w
				body["lo"], body["hi"], body["mode"] = qu.lo, qu.hi, "departure"
			}
		}
		var err2 error
		if qu.body, err2 = json.Marshal(body); err2 != nil {
			return nil, err2
		}
		out = append(out, qu)
	}
	return out, nil
}

// buildWrites turns the held-out trajectories into the ingest stream:
// seven appends of path + times, then one raw GPS trace to map-match.
func (in *inputs) buildWrites() error {
	rng := rngFor(in.seed, "writes")
	gps := workload.GPSConfig{NoiseSigma: 10, SampleSpacing: 50}
	in.writes = make([]write, len(in.heldOut))
	for i := range in.heldOut {
		t := &in.heldOut[i]
		w := write{endpoint: "/v1/append", truth: t.Path}
		var err error
		if i%8 == 7 {
			w.endpoint = "/v1/ingest"
			w.trace = workload.GenerateTrace(in.wl.Graph, t.Path, gps, rng).Points
			pts := make([][2]float64, len(w.trace))
			for j, p := range w.trace {
				pts[j] = [2]float64{p.X, p.Y}
			}
			w.body, err = json.Marshal(map[string]any{"traces": [][][2]float64{pts}})
			w.userBytes = 4 * len(t.Path) // what the server stores: the matched path, no times
		} else {
			w.body, err = json.Marshal(map[string]any{"path": t.Path, "times": t.Times})
			w.userBytes = 4*len(t.Path) + 8*len(t.Times)
		}
		if err != nil {
			return fmt.Errorf("encode write %d: %w", i, err)
		}
		in.writes[i] = w
	}
	return nil
}
