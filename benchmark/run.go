package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// bench runs workloads for one seed's inputs.
type bench struct {
	env     *env
	in      *inputs
	gob     string // path of the dataset gob wedserve loads
	seconds float64
	outDir  string
	shards  int // what wedserve chose, from /healthz
	walSeq  int
}

// serverFlags are the wedserve flags of a workload beyond `-load <gob>`:
// none for the read-only workloads, the durable-ingest set for
// ingest_mixed. Each durable start gets a WAL directory of its own.
func (b *bench) serverFlags(sp spec) []string {
	if !sp.durable {
		return nil
	}
	b.walSeq++
	dir := filepath.Join(b.env.dir, fmt.Sprintf("wal-%d", b.walSeq))
	return durableFlags(dir, b.in.size.compactAppends)
}

func durableFlags(walDir string, compactAppends int) []string {
	return []string{"-wal-dir", walDir, "-wal-sync", "interval", "-compact-appends", fmt.Sprint(compactAppends)}
}

// startMeasured starts wedserve size.setups times and keeps the last one:
// setup_s is the median of the starts, so one slow exec does not decide it.
func (b *bench) startMeasured(sp spec) (*child, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		srv, err := b.env.start(b.gob, b.serverFlags(sp)...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, srv.setup.Seconds())
		if i == b.in.size.setups-1 {
			return srv, setups, nil
		}
		b.env.stop(srv)
	}
}

// untraced is the end-to-end run: client-observed numbers over the socket
// with no tracing anywhere, answers checked inside the run.
func (b *bench) untraced(sp spec) (runRecord, error) {
	host := startHostCheck()
	srv, setups, err := b.startMeasured(sp)
	if err != nil {
		return runRecord{}, err
	}
	defer b.env.stop(srv)
	h, err := srv.health()
	if err != nil {
		return runRecord{}, err
	}
	b.shards = h.Shards

	qs := b.in.reads[sp.name]
	dur := time.Duration(b.seconds * float64(time.Second))
	warm := time.Duration(b.in.size.warmup * float64(dur))
	var reads readResult
	var t tally
	begin := time.Now()
	if sp.durable {
		m := runMixed(srv, b.in, qs, begin, warm, dur)
		reads = m.reads
		t.add(m.writes.tally)
		t.add(checkIngested(srv, b.in, &m.writes))
	} else {
		c := newConn(srv.url)
		reads = readLoop(c, qs, begin.Add(warm), begin.Add(warm+dur))
		c.close()
	}
	t.add(reads.tally)
	if sp.k == 0 {
		t.add(bruteCheck(srv, b.in, qs, sp))
	}
	if len(reads.lat) == 0 {
		return runRecord{}, fmt.Errorf("no read completed in the timed phase")
	}
	rss, err := srv.rssPeakMB()
	if err != nil {
		return runRecord{}, err
	}

	var ms metricSet
	n := len(reads.lat)
	ms.put("setup_s", "s", median(setups), len(setups))
	ms.put("qps", "1/s", float64(n)/reads.wall.Seconds(), n)
	ms.put("lat_p50_ms", "ms", percentile(reads.lat, 0.50), n)
	ms.put("lat_p95_ms", "ms", percentile(reads.lat, 0.95), n)
	ms.put("rss_peak_mb", "MB", rss, 0)
	_, noisy := host.done()
	return newRecord(sp, b.in.seed, false, noisy, &ms, t), nil
}
