// Command benchmark is the repository's pinned benchmark: it generates a
// dataset, queries and an ingest stream from -seed, hands only those to a
// wedserve child on a loopback socket, drives four workloads, checks the
// answers, and — in a separate traced run — times the calls into each
// layer's public functions. README.md in this directory has the design.
//
// Usage:
//
//	go run ./benchmark -seed N -out DIR            all workloads, untraced then traced
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                               one run; last stdout line is the result JSON
//	go run ./benchmark -compare A.json B.json      diff two result files against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number; n is the sample count behind it (0 when
// the metric is not an order statistic or a mean).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet keeps metrics in emission order and refuses duplicates.
type metricSet struct {
	byName map[string]metric
	order  []string
}

func (s *metricSet) put(name, unit string, v float64, n int) {
	if s.byName == nil {
		s.byName = make(map[string]metric)
	}
	if _, dup := s.byName[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	s.byName[name] = metric{Value: v, Unit: unit, N: n}
	s.order = append(s.order, name)
}

// runRecord is one run of one workload, untraced or traced.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	HostNoisy bool              `json:"host_noisy,omitempty"` // the host changed speed by >15% across the run
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func newRecord(sp spec, seed int64, trace, hostNoisy bool, ms *metricSet, t tally) runRecord {
	return runRecord{
		Workload: sp.name, Seed: seed, Trace: trace,
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, FirstErr: t.firstErr, HostNoisy: hostNoisy,
		Metrics: ms.byName, order: ms.order,
	}
}

// print writes every metric by name with its unit and sample count.
func (r *runRecord) print(w io.Writer) {
	kind := "untraced"
	if r.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d): %d ops attempted, %d failed\n", r.Workload, kind, r.Seed, r.Attempted, r.Failed)
	if r.HostNoisy {
		fmt.Fprintln(w, "   the host changed speed by more than 15% across this run: read its numbers as unresolved")
	}
	if r.FirstErr != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.FirstErr)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		if m.N > 0 {
			fmt.Fprintf(w, "   %-32s %14.4f %-8s n=%d\n", name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "   %-32s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

// driverLine is the one-object result the driver contract asks for as the
// last line of standard output.
func (r *runRecord) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for name, m := range r.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(b)
}

// header pins what a result file was measured on (ROADMAP 1a).
type header struct {
	Seeds      []int64 `json:"seeds"`
	Quick      bool    `json:"quick,omitempty"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Shards     int     `json:"wedserve_shards"`
	GoVersion  string  `json:"go"`
	GitRev     string  `json:"git_rev"`
	// InputHash is a SHA-256 over the dataset gob and every request
	// body, per seed.
	InputHash map[string]string `json:"input_sha256"`
	Generated string            `json:"generated"`
	Claim     *string           `json:"claim"` // this benchmark claims no gain
}

type resultFile struct {
	Header header      `json:"header"`
	Runs   []runRecord `json:"runs"`
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// maxWallPerRun is the wall-time guard: a run that is still going after
// this long is aborted with a message, children killed, scratch removed.
// The driver allows a run 180 s.
const maxWallPerRun = 170 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seeds   = fs.String("seeds", "", "comma-separated seeds: run the whole benchmark once per seed into one result file (overrides -seed)")
		out     = fs.String("out", filepath.Join(".bench_build", "out"), "directory for result.json and trace-<workload>.json")
		wname   = fs.String("workload", "", "run one workload and print the driver's result line (default: all four, untraced then traced)")
		seconds = fs.Float64("seconds", 20, "timed phase of each run, in seconds")
		trace   = fs.Int("trace", 0, "with -workload: 0 = untraced end-to-end run, 1 = traced per-layer run")
		quick   = fs.Bool("quick", false, "miniature inputs (workload.Tiny) for a smoke run in seconds; numbers mean nothing")
		compare = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}

	size := pinnedSizing()
	if *quick {
		size = quickSizing()
	}
	specs := size.specs()
	if *wname != "" {
		sp, err := size.spec(*wname)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		specs = []spec{sp}
	}
	seedList := []int64{*seed}
	if *seeds != "" {
		seedList = seedList[:0]
		for _, f := range strings.Split(*seeds, ",") {
			var s int64
			if _, err := fmt.Sscan(strings.TrimSpace(f), &s); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: bad seed %q\n", f)
				return 2
			}
			seedList = append(seedList, s)
		}
	}

	ok, err := run(plan{
		size: size, specs: specs, seeds: seedList, seconds: *seconds, outDir: *out,
		single: *wname != "", traced: *trace != 0, quick: *quick,
	}, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// plan is what one invocation runs.
type plan struct {
	size    sizing
	specs   []spec
	seeds   []int64
	seconds float64
	outDir  string
	single  bool // the driver's form: one workload, one run, result line last
	traced  bool // with single: the traced run, not the untraced one
	quick   bool
}

// run executes the plan and reports whether every check of every run
// passed. Every exit path removes the children and the scratch directory:
// a signal, and a run that outlives its wall-time budget, too.
func run(p plan, stdout io.Writer) (ok bool, err error) {
	e, err := newEnv()
	if err != nil {
		return false, err
	}
	defer e.cleanup()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer close(sig)       // runs after Stop: ends the goroutine below
	defer signal.Stop(sig) // no send can follow, so the close is safe
	go func() {
		if s, ok := <-sig; ok {
			fmt.Fprintf(os.Stderr, "benchmark: %v: stopping wedserve and cleaning up\n", s)
			e.cleanup()
			os.Exit(130)
		}
	}()
	runs := len(p.specs) * len(p.seeds)
	if !p.single {
		runs *= 2
	}
	limit := time.Duration(runs) * maxWallPerRun
	guard := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: aborted: still running after %s, the wall-time guard for %d run(s)\n", limit, runs)
		e.cleanup()
		os.Exit(3)
	})
	defer guard.Stop()

	if err := e.buildWedserve(); err != nil {
		return false, err
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return false, err
	}
	file := resultFile{Header: header{
		Seeds: p.seeds, Quick: p.quick,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: gitRev(),
		InputHash: make(map[string]string),
		Generated: time.Now().UTC().Format(time.RFC3339),
	}}

	ok = true
	for _, s := range p.seeds {
		in, err := buildInputs(s, p.size)
		if err != nil {
			return false, fmt.Errorf("inputs: %w", err)
		}
		file.Header.InputHash[fmt.Sprint(s)] = in.hash
		gob := filepath.Join(e.dir, fmt.Sprintf("dataset-%d.gob", s))
		if err := os.WriteFile(gob, in.gob, 0o644); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "inputs: seed %d, %d + %d trajectories, sha256 %s\n", s, p.size.base, p.size.heldOut, in.hash)
		b := &bench{env: e, in: in, gob: gob, seconds: p.seconds, outDir: p.outDir}
		for _, sp := range p.specs {
			for _, traced := range []bool{false, true} {
				if p.single && traced != p.traced {
					continue
				}
				runOne := b.untraced
				if traced {
					runOne = b.traced
				}
				rec, err := runOne(sp)
				if err != nil {
					return false, fmt.Errorf("%s (traced: %v): %w", sp.name, traced, err)
				}
				rec.print(stdout)
				ok = ok && rec.Correct
				file.Runs = append(file.Runs, rec)
			}
		}
		file.Header.Shards = b.shards
	}

	if p.single {
		fmt.Fprintln(stdout, file.Runs[len(file.Runs)-1].driverLine())
		return ok, nil
	}
	path := filepath.Join(p.outDir, "result.json")
	if err := writeJSON(path, &file); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return ok, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, errors.New(path + ": no runs")
	}
	return &f, nil
}
