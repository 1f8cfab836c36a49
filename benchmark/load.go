package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// conn is one keep-alive HTTP connection to wedserve: requests on it are
// strictly sequential, so a transport never opens a second socket.
type conn struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newConn(url string) *conn {
	return &conn{url: url, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// post sends one request and returns the status and the body; the body
// aliases c's buffer and is valid until the next post.
func (c *conn) post(endpoint string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.url+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// tally counts operations and the ones that failed: transport errors,
// non-200 answers, and failed answer checks alike.
type tally struct {
	attempted, failed int
	firstErr          string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

var (
	wedZeroObj   = []byte(`"wed":0}`)
	matchesFirst = []byte(`"matches":[{`)
)

// hasZeroMatch checks, without decoding, that a response holds the WED-0
// match its query was sampled to have; for top-k it must be rank 1. The
// byte scan keeps the client's share of the two CPUs small.
func hasZeroMatch(body []byte, topk bool) bool {
	if !topk {
		return bytes.Contains(body, wedZeroObj)
	}
	i := bytes.Index(body, matchesFirst)
	if i < 0 {
		return false
	}
	end := bytes.IndexByte(body[i:], '}')
	return end >= 0 && bytes.HasSuffix(body[i:i+end+1], wedZeroObj)
}

// readResult is the outcome of one closed read loop.
type readResult struct {
	lat      []float64 // ms, timed ops only, in send order
	temporal []bool    // parallel to lat: the op was a /v1/temporal read
	wall     time.Duration
	tally
}

// readLoop replays qs cyclically on one connection, closed loop: the next
// request leaves when the previous answer has been read and checked. Ops
// sent before timedFrom are warm-up: checked but not timed. The loop ends
// at until.
func readLoop(c *conn, qs []query, timedFrom, until time.Time) readResult {
	var r readResult
	var timedStart time.Time
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(until) {
			break
		}
		timed := !now.Before(timedFrom)
		if timed && timedStart.IsZero() {
			timedStart = now
		}
		q := &qs[i%len(qs)]
		status, body, err := c.post(q.endpoint, q.body)
		took := time.Since(now)
		r.attempted++
		switch {
		case err != nil:
			r.fail("%s: %v", q.endpoint, err)
		case status != http.StatusOK:
			r.fail("%s: status %d: %s", q.endpoint, status, tail(string(body), 200))
		case !hasZeroMatch(body, q.k > 0):
			r.fail("%s: query %d has no WED-0 match in its answer", q.endpoint, i%len(qs))
		}
		if timed {
			r.lat = append(r.lat, float64(took)/1e6)
			r.temporal = append(r.temporal, q.temporal)
		}
	}
	if !timedStart.IsZero() {
		r.wall = time.Since(timedStart)
	}
	return r
}

// writeResult is the outcome of one open write loop.
type writeResult struct {
	appendLat, ingestLat []float64 // ms from the due time, timed ops only
	late                 []float64 // ms the generator sent after the due time
	acked                int       // trajectory IDs the server acknowledged, warm-up included
	lastAppend           int       // index of the last acknowledged /v1/append, -1 if none
	userBytes            int64
	tally
}

// writeLoop sends ws on one connection, open loop: write i is due at
// begin + i/rate whatever happened to the writes before it, and its
// latency runs from that due time, so a stall is charged to every write
// it delays.
func writeLoop(c *conn, ws []write, rate float64, begin, timedFrom, until time.Time) writeResult {
	r := writeResult{lastAppend: -1}
	for i := 0; i < len(ws); i++ {
		due := begin.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(until) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w := &ws[i]
		sent := time.Now()
		status, body, err := c.post(w.endpoint, w.body)
		done := time.Now()
		r.attempted++
		ids := 0
		switch {
		case err != nil:
			r.fail("%s: %v", w.endpoint, err)
		case status != http.StatusOK:
			r.fail("%s: status %d: %s", w.endpoint, status, tail(string(body), 200))
		default:
			var ack struct {
				ID       *int32 `json:"id"`
				Appended int    `json:"appended"`
			}
			if err := json.Unmarshal(body, &ack); err != nil {
				r.fail("%s: undecodable answer: %v", w.endpoint, err)
			} else if ack.ID != nil {
				ids, r.lastAppend = 1, i
			} else if ids = ack.Appended; ids == 0 {
				r.fail("/v1/ingest: trace %d matched no trajectory", i)
			}
		}
		if ids > 0 {
			r.acked += ids
			r.userBytes += int64(w.userBytes)
		}
		if !due.Before(timedFrom) {
			lat := float64(done.Sub(due)) / 1e6
			if w.trace != nil {
				r.ingestLat = append(r.ingestLat, lat)
			} else {
				r.appendLat = append(r.appendLat, lat)
			}
			r.late = append(r.late, float64(sent.Sub(due))/1e6)
		}
	}
	return r
}

// mixedResult is one ingest_mixed phase: the write stream on connection 1
// beside the read loop on connection 2.
type mixedResult struct {
	reads  readResult
	writes writeResult
}

func runMixed(srv *child, in *inputs, qs []query, begin time.Time, warm, dur time.Duration) mixedResult {
	var m mixedResult
	timedFrom, until := begin.Add(warm), begin.Add(warm+dur)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newConn(srv.url)
		defer c.close()
		m.writes = writeLoop(c, in.writes, in.size.writeRate, begin, timedFrom, until)
	}()
	go func() {
		defer wg.Done()
		c := newConn(srv.url)
		defer c.close()
		m.reads = readLoop(c, qs, timedFrom, until)
	}()
	wg.Wait()
	return m
}

// checkIngested verifies the write stream landed: the server holds base +
// acknowledged trajectories, and a search for the last appended path
// finds it under an ID past the base dataset.
func checkIngested(srv *child, in *inputs, w *writeResult) tally {
	var t tally
	t.attempted++
	h, err := srv.health()
	if err != nil {
		t.fail("healthz: %v", err)
	} else if want := in.size.base + w.acked; h.Trajectories != want {
		t.fail("server holds %d trajectories, want %d base + %d acknowledged", h.Trajectories, in.size.base, w.acked)
	}
	if w.lastAppend < 0 {
		return t
	}
	t.attempted++
	path := in.writes[w.lastAppend].truth
	if n := in.size.qMixed; len(path) > n {
		path = path[:n]
	}
	body, _ := json.Marshal(map[string]any{"q": path, "tau_ratio": 0.1}) // ints and a float: cannot fail
	c := newConn(srv.url)
	defer c.close()
	status, resp, err := c.post("/v1/search", body)
	if err != nil || status != http.StatusOK {
		t.fail("search for appended path: status %d, %v", status, err)
		return t
	}
	ms, err := decodeMatches(resp)
	if err != nil {
		t.fail("search for appended path: %v", err)
		return t
	}
	for _, m := range ms {
		if int(m.ID) >= in.size.base && m.WED == 0 {
			return t
		}
	}
	t.fail("appended path not found under an ID ≥ %d", in.size.base)
	return t
}

func decodeMatches(body []byte) ([]traj.Match, error) {
	var resp struct {
		Matches []struct {
			ID  int32   `json:"id"`
			S   int32   `json:"s"`
			T   int32   `json:"t"`
			WED float64 `json:"wed"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	out := make([]traj.Match, len(resp.Matches))
	for i, m := range resp.Matches {
		out[i] = traj.Match{ID: m.ID, S: m.S, T: m.T, WED: m.WED}
	}
	return out, nil
}

// bruteCheck compares the server's answers for the first few queries,
// bit for bit (ID, S, T, WED), with wed.AllMatches computed here. A full
// scan costs seconds per query, so the comparison covers a subset of
// trajectories: the query's source, the first IDs the server returned
// (a false positive would show), and a random sample (a false negative
// would show). Matches of one trajectory depend on that trajectory alone,
// so restricting both sides to the subset loses no strictness within it.
func bruteCheck(srv *child, in *inputs, qs []query, sp spec) tally {
	var t tally
	c := newConn(srv.url)
	defer c.close()
	rng := rngFor(in.seed, "brute/"+sp.name)
	type job struct {
		q   *query
		got []traj.Match
		ids []int32
	}
	var jobs []job
	for i := 0; i < in.size.bruteQueries && i < len(qs); i++ {
		q := &qs[i]
		t.attempted++
		status, body, err := c.post(q.endpoint, q.body)
		if err != nil || status != http.StatusOK {
			t.fail("brute check: %s: status %d, %v", q.endpoint, status, err)
			continue
		}
		got, err := decodeMatches(body)
		if err != nil {
			t.fail("brute check: %v", err)
			continue
		}
		set := map[int32]bool{q.src: true}
		for _, m := range got {
			if len(set) > 32 {
				break
			}
			if int(m.ID) < in.size.base {
				set[m.ID] = true
			}
		}
		for n := 0; n < in.size.bruteSample; n++ {
			set[int32(rng.Intn(in.size.base))] = true
		}
		ids := make([]int32, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		var kept []traj.Match
		for _, m := range got {
			if set[m.ID] {
				kept = append(kept, m)
			}
		}
		jobs = append(jobs, job{q: q, got: kept, ids: ids})
	}
	// The server is idle now, so both CPUs are free for the oracle.
	errs := make([]string, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := jobs[i]
			want := bruteMatches(in, j.q, j.ids)
			if len(want) != len(j.got) {
				errs[i] = fmt.Sprintf("brute check: query %d: server has %d matches in the subset, oracle %d", i, len(j.got), len(want))
				return
			}
			for k := range want {
				if want[k] != j.got[k] {
					errs[i] = fmt.Sprintf("brute check: query %d: match %d is %+v, oracle says %+v", i, k, j.got[k], want[k])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.fail("%s", e)
		}
	}
	return t
}

// bruteMatches is Definition 3 by exhaustive DP over the given
// trajectories, in the canonical (ID, S, T) order.
func bruteMatches(in *inputs, q *query, ids []int32) []traj.Match {
	var out []traj.Match
	for _, id := range ids {
		t := in.wl.Data.Get(id)
		if q.temporal {
			if dep, ok := t.Departure(); !ok || dep < q.lo || dep > q.hi {
				continue
			}
		}
		for _, m := range wed.AllMatches(in.costs, q.q, t.Path, q.tau) {
			out = append(out, traj.Match{ID: id, S: int32(m.S), T: int32(m.T), WED: m.WED})
		}
	}
	return out
}

// --- order statistics ----------------------------------------------------

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
