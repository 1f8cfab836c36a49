// Package obs is the serving stack's observability layer: a
// dependency-free metrics registry (lock-cheap counters, gauges, and
// fixed-bucket latency histograms with Prometheus text exposition), a
// lightweight per-request trace carried through context.Context, and a
// ring buffer retaining the span trees of recent slow queries.
//
// The paper's whole argument is a filter/verify cost breakdown (Tables
// 4/5); this package makes the same breakdown visible in a *running*
// server — per-stage span trees per request, p50/p99 latency per
// endpoint, and the band/reuse ratios as scrapeable gauges — without
// pulling in a metrics dependency.
//
// Every metric handle is nil-safe: methods on a nil *Counter, *Gauge, or
// *Histogram are no-ops, and a nil *Registry hands out nil handles. A
// caller that wants metrics off entirely just keeps a nil registry.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// --- metric handles -------------------------------------------------------

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be ≥ 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d (CAS loop; gauges are low-rate).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: per-bucket atomic counts plus
// an atomic sum. Observe is wait-free except for the sum's CAS. The
// bucket layout is immutable after construction, so readers need no lock;
// a scrape may interleave with writers and see a sum slightly behind the
// counts (each line is individually consistent, which is all Prometheus
// asks of a live scrape).
type Histogram struct {
	// uppers holds the inclusive bucket upper bounds, ascending; the
	// implicit final bucket is +Inf. counts[i] counts observations with
	// v <= uppers[i] falling in bucket i (NOT cumulative; the exposition
	// accumulates at read time).
	uppers  []float64
	counts  []atomic.Int64 // len(uppers)+1; last = overflow (+Inf)
	sumBits atomic.Uint64
}

func newHistogram(uppers []float64) *Histogram {
	us := append([]float64(nil), uppers...)
	sort.Float64s(us)
	return &Histogram{uppers: us, counts: make([]atomic.Int64, len(us)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~25) and the common case
	// (low-latency ops) exits in the first few probes; a binary search
	// costs more in branch misses than it saves.
	i := 0
	for i < len(h.uppers) && v > h.uppers[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 < q ≤ 1) by linear interpolation
// inside the bucket holding the target rank — the standard
// histogram_quantile estimate. Returns 0 with no observations; ranks
// landing in the +Inf overflow bucket report the largest finite bound
// (the estimate is saturated, not extrapolated).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.uppers {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.uppers[i-1]
			}
			if c == 0 {
				return h.uppers[i]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (h.uppers[i]-lo)*frac
		}
		cum += c
	}
	if len(h.uppers) == 0 {
		return 0
	}
	return h.uppers[len(h.uppers)-1]
}

// LatencyBuckets is the default histogram layout for request/stage
// latencies, in seconds: ~100 µs to 100 s, roughly 2.5× per step. Queries
// in this system run from tens of microseconds (cache hits) to seconds
// (cold top-k), so the grid brackets both tails.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// RatioBuckets is the layout for values in [0, 1] (confidences, ratios).
var RatioBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1}

// --- registry -------------------------------------------------------------

// Labels is an ordered label set rendered into the exposition as
// {k1="v1",k2="v2"}. Order is preserved as given (callers pass a
// consistent order per family).
type Labels [][2]string

// L is shorthand for a one-label set.
func L(k, v string) Labels { return Labels{{k, v}} }

func (ls Labels) render() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// series is one labelled instance inside a family.
type series struct {
	labels Labels
	// exactly one of these is set
	counter     *Counter
	counterFunc func() float64
	gauge       *Gauge
	gaugeFunc   func() float64
	hist        *Histogram
}

type family struct {
	name, help, typ string // typ: "counter" | "gauge" | "histogram"
	series          []*series
}

// Registry owns metric families and renders them in Prometheus text
// exposition format. Families appear in registration order, series within
// a family in their own registration order, so output is deterministic.
// All methods are safe for concurrent use; a nil *Registry hands out nil
// (no-op) handles.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) add(name, help, typ string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	f.series = append(f.series, s)
}

// Counter registers (or extends) a counter family and returns the handle
// for the given label set.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.add(name, help, "counter", &series{labels: labels, counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from f at scrape
// time — the bridge from a count another type owns (a cache's hits, a
// write-ahead log's fsyncs), so the registry renders it without keeping
// a second copy.
func (r *Registry) CounterFunc(name, help string, labels Labels, f func() float64) {
	if r == nil {
		return
	}
	r.add(name, help, "counter", &series{labels: labels, counterFunc: f})
}

// Gauge registers a settable gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.add(name, help, "gauge", &series{labels: labels, gauge: g})
	return g
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, f func() float64) {
	if r == nil {
		return
	}
	r.add(name, help, "gauge", &series{labels: labels, gaugeFunc: f})
}

// Histogram registers a fixed-bucket histogram (buckets are upper bounds,
// ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(buckets)
	r.add(name, help, "histogram", &series{labels: labels, hist: h})
	return h
}

// WriteTo renders the registry in Prometheus text exposition format
// (version 0.0.4). It always returns a nil error unless w errors.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	cw := &countingWriter{w: w}
	for _, f := range fams {
		if err := f.write(cw); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) printf(format string, args ...any) {
	if cw.err != nil {
		return
	}
	n, err := fmt.Fprintf(cw.w, format, args...)
	cw.n += int64(n)
	cw.err = err
}

func (f *family) write(cw *countingWriter) error {
	cw.printf("# HELP %s %s\n", f.name, f.help)
	cw.printf("# TYPE %s %s\n", f.name, f.typ)
	for _, s := range f.series {
		switch {
		case s.counter != nil:
			cw.printf("%s%s %d\n", f.name, s.labels.render(), s.counter.Value())
		case s.counterFunc != nil:
			cw.printf("%s%s %s\n", f.name, s.labels.render(), formatValue(s.counterFunc()))
		case s.gauge != nil:
			cw.printf("%s%s %s\n", f.name, s.labels.render(), formatValue(s.gauge.Value()))
		case s.gaugeFunc != nil:
			cw.printf("%s%s %s\n", f.name, s.labels.render(), formatValue(s.gaugeFunc()))
		case s.hist != nil:
			writeHistogram(cw, f.name, s.labels, s.hist)
		}
	}
	return cw.err
}

// writeHistogram renders the cumulative _bucket/_sum/_count triplet. The
// bucket counts are read once into a snapshot so the cumulative series is
// internally monotonic even while writers race the scrape; _count equals
// the +Inf bucket by construction.
func writeHistogram(cw *countingWriter, name string, labels Labels, h *Histogram) {
	snap := make([]int64, len(h.counts))
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
	}
	var cum int64
	for i, upper := range h.uppers {
		cum += snap[i]
		cw.printf("%s_bucket%s %d\n", name, labels.with("le", formatValue(upper)).render(), cum)
	}
	cum += snap[len(snap)-1]
	cw.printf("%s_bucket%s %d\n", name, labels.with("le", "+Inf").render(), cum)
	cw.printf("%s_sum%s %s\n", name, labels.render(), formatValue(h.Sum()))
	cw.printf("%s_count%s %d\n", name, labels.render(), cum)
}

// with returns a copy of ls with one more label appended.
func (ls Labels) with(k, v string) Labels {
	out := make(Labels, 0, len(ls)+1)
	out = append(out, ls...)
	return append(out, [2]string{k, v})
}

// formatValue renders a float the way Prometheus clients do: shortest
// round-trippable decimal.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
