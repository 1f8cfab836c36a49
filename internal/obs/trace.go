package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Trace records the timestamped span tree of one request: which
// pipeline stages ran (cache lookup, GPS match, plan build, filter,
// verify, top-k rounds) and how long each took. It is carried through
// context.Context so any layer can attach spans without new plumbing.
//
// Spans fall in two kinds:
//
//   - wall spans (StartSpan/End): measured on the caller's clock,
//     sequential within their parent, so sibling durations sum to the
//     parent's — these satisfy the "stages sum to request latency"
//     contract at the top level of the tree;
//   - work spans (AddSpan): durations imported from instrumentation that
//     sums *work* across fan-out workers (core.QueryStats). Under a
//     parallel query summed work exceeds wall time by design; such spans
//     carry a "workers" attribute so readers know which semantics apply.
//
// A nil *Trace is a valid no-op sink: every method returns immediately,
// so call sites need no "is tracing on?" branches.
type Trace struct {
	mu    sync.Mutex
	id    string    // immutable after NewTrace
	begin time.Time // immutable after NewTrace
	root  *Span     // guarded by mu (the pointer is fixed at construction; the span tree under it is not)
}

// Span is one timed stage. Fields are managed by the owning Trace; read
// them via the JSON snapshot, not concurrently with writers.
type Span struct {
	name     string
	start    time.Time     // wall start (wall spans)
	offset   time.Duration // offset from trace begin
	dur      time.Duration
	attrs    []spanAttr
	children []*Span
	tr       *Trace
	done     bool
}

type spanAttr struct {
	key string
	val any
}

// NewTrace starts a trace whose root span is named name.
//
//subtrajlint:locked mu — t is private until returned
func NewTrace(id, name string) *Trace {
	now := time.Now()
	t := &Trace{id: id, begin: now}
	t.root = &Span{name: name, start: now, tr: t}
	return t
}

// ID returns the request ID the trace was started with.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil on a nil trace).
//
//subtrajlint:locked mu — reads only the construction-immutable root pointer
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// StartSpan opens a wall-clock child span under parent (nil parent =
// root). Close it with End; spans left open get zero duration in the
// snapshot rather than poisoning the tree. A finished trace takes no
// more: the span is nil, a no-op, so the root still brackets its
// children.
func (t *Trace) StartSpan(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root.done {
		return nil
	}
	s := &Span{name: name, start: now, offset: now.Sub(t.begin), tr: t}
	if parent == nil {
		parent = t.root
	}
	parent.children = append(parent.children, s)
	return s
}

// End closes a wall span.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	d := time.Since(s.start)
	s.tr.mu.Lock()
	if !s.done {
		s.dur = d
		s.done = true
	}
	s.tr.mu.Unlock()
}

// AddSpan attaches a work span with a known duration under parent (nil =
// root). The offset is synthetic: work spans of one parent are laid out
// back-to-back after its existing children, which renders a readable
// waterfall without claiming wall-clock alignment.
func (t *Trace) AddSpan(parent *Span, name string, dur time.Duration) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == nil {
		parent = t.root
	}
	off := parent.offset
	if n := len(parent.children); n > 0 {
		last := parent.children[n-1]
		off = last.offset + last.dur
	}
	s := &Span{name: name, offset: off, dur: dur, done: true, tr: t}
	parent.children = append(parent.children, s)
	return s
}

// SetAttr attaches a key/value attribute to the span (values should be
// JSON-encodable scalars).
func (s *Span) SetAttr(key string, val any) *Span {
	if s == nil || s.tr == nil {
		return s
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, spanAttr{key, val})
	s.tr.mu.Unlock()
	return s
}

// Finish closes the root span and returns the trace's total duration.
// Safe to call once; later spans can still be added but won't extend the
// reported duration.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(t.begin)
	t.mu.Lock()
	if !t.root.done {
		t.root.dur = d
		t.root.done = true
	}
	d = t.root.dur
	t.mu.Unlock()
	return d
}

// --- JSON snapshot --------------------------------------------------------

// SpanJSON is the wire form of one span; a tree of them is embedded in
// ?debug=trace responses and /v1/debug/traces entries. Durations are
// microseconds: fine enough for µs-scale stages, and small JSON numbers.
type SpanJSON struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanJSON    `json:"children,omitempty"`
}

// JSON snapshots the span tree (nil on a nil trace). The snapshot is
// deep-copied under the trace lock, so it is safe to serialize after the
// trace keeps evolving.
func (t *Trace) JSON() *SpanJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root.json()
}

func (s *Span) json() *SpanJSON {
	out := &SpanJSON{Name: s.name, StartUS: s.offset.Microseconds(), DurUS: s.dur.Microseconds()}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.key] = a.val
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.json())
	}
	return out
}

// Breakdown renders the root's direct children as "name=dur" pairs in
// tree order — the one-line form for slow-query log records.
func (t *Trace) Breakdown() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for i, c := range t.root.children {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", c.name, c.dur.Round(time.Microsecond))
	}
	return b.String()
}

// --- context plumbing -----------------------------------------------------

type traceKey struct{}

// WithTrace returns a context carrying t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil (a valid no-op
// trace) when none is attached.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// --- request IDs ----------------------------------------------------------

var (
	reqSeq  atomic.Uint64
	reqBase = func() uint32 {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return uint32(time.Now().UnixNano())
		}
		return binary.BigEndian.Uint32(b[:])
	}()
)

// NewRequestID returns a process-unique request ID: a per-process random
// prefix (so IDs from restarted or neighbouring processes don't collide
// in shared logs) plus a sequence number.
func NewRequestID() string {
	return fmt.Sprintf("%08x-%08x", reqBase, reqSeq.Add(1))
}

// --- slow-trace ring ------------------------------------------------------

// TraceRecord is one retained slow query: its ID, endpoint, completion
// time, total duration, and full span tree.
type TraceRecord struct {
	RequestID string    `json:"request_id"`
	Endpoint  string    `json:"endpoint"`
	Time      time.Time `json:"time"`
	DurUS     int64     `json:"dur_us"`
	Trace     *SpanJSON `json:"trace"`
}

// TraceRing retains the last N slow-query traces (a fixed-size ring; the
// newest entry overwrites the oldest). Safe for concurrent use.
type TraceRing struct {
	mu   sync.Mutex
	buf  []TraceRecord // guarded by mu (the slice header is fixed at construction; Add's pre-lock length check relies on that)
	next int           // guarded by mu
	n    int           // guarded by mu
}

// NewTraceRing creates a ring holding up to capacity records
// (capacity ≤ 0 yields a ring that retains nothing).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 0 {
		capacity = 0
	}
	return &TraceRing{buf: make([]TraceRecord, capacity)}
}

// Add inserts one record.
func (r *TraceRing) Add(rec TraceRecord) {
	if r == nil || len(r.buf) == 0 {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained records, slowest-insertion-newest first.
func (r *TraceRing) Snapshot() []TraceRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceRecord, 0, r.n)
	for i := 0; i < r.n; i++ {
		idx := (r.next - 1 - i + len(r.buf) + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	// Insertion order is already newest-first by construction; the sort
	// is belt-and-braces for records with identical insertion slots.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.After(out[j].Time) })
	return out
}
