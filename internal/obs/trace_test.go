package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("req-1", "request")
	s1 := tr.StartSpan(nil, "cache_lookup")
	time.Sleep(2 * time.Millisecond)
	s1.End()
	s2 := tr.StartSpan(nil, "engine")
	sub := tr.StartSpan(s2, "verify")
	time.Sleep(2 * time.Millisecond)
	sub.End()
	s2.End()
	s2.SetAttr("workers", 4)
	tr.AddSpan(s2, "plan", 3*time.Millisecond)
	total := tr.Finish()
	// A finished tree takes no more wall spans: the root keeps
	// bracketing its children.
	if late := tr.StartSpan(nil, "encode"); late != nil {
		t.Error("a finished trace opened a span")
	}

	j := tr.JSON()
	if j == nil || j.Name != "request" {
		t.Fatalf("bad root: %+v", j)
	}
	if len(j.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(j.Children))
	}
	if j.DurUS < s1.dur.Microseconds() {
		t.Errorf("root dur %dµs < child dur", j.DurUS)
	}
	if total < 4*time.Millisecond {
		t.Errorf("total = %v, want ≥ 4ms", total)
	}
	eng := j.Children[1]
	if eng.Name != "engine" || len(eng.Children) != 2 {
		t.Fatalf("bad engine span: %+v", eng)
	}
	if eng.Attrs["workers"] != 4 {
		t.Errorf("attrs = %v", eng.Attrs)
	}
	// The synthetic work span lays out after the wall child.
	plan := eng.Children[1]
	if plan.Name != "plan" || plan.DurUS != 3000 {
		t.Errorf("plan span = %+v", plan)
	}
	if plan.StartUS < eng.Children[0].StartUS+eng.Children[0].DurUS {
		t.Errorf("work span start %d overlaps prior sibling", plan.StartUS)
	}

	bd := tr.Breakdown()
	if !strings.Contains(bd, "cache_lookup=") || !strings.Contains(bd, "engine=") {
		t.Errorf("Breakdown = %q", bd)
	}
}

func TestTraceContext(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("empty context must carry no trace")
	}
	tr := NewTrace("id", "r")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("trace lost in context")
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("id", "r")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := tr.StartSpan(nil, "stage")
				s.SetAttr("i", i)
				s.End()
				tr.AddSpan(nil, "work", time.Microsecond)
				_ = tr.JSON()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.JSON().Children); got != 8*400 {
		t.Errorf("children = %d, want %d", got, 8*400)
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request ID %s", id)
		}
		seen[id] = true
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	base := time.Now()
	for i := 0; i < 5; i++ {
		r.Add(TraceRecord{RequestID: string(rune('a' + i)), Time: base.Add(time.Duration(i) * time.Second)})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("len = %d, want 3", len(snap))
	}
	// Newest first: e, d, c.
	for i, want := range []string{"e", "d", "c"} {
		if snap[i].RequestID != want {
			t.Errorf("snap[%d] = %s, want %s", i, snap[i].RequestID, want)
		}
	}
	// Degenerate capacities.
	NewTraceRing(0).Add(TraceRecord{})
	NewTraceRing(-1).Add(TraceRecord{})
	var nilRing *TraceRing
	nilRing.Add(TraceRecord{})
	if nilRing.Snapshot() != nil {
		t.Error("nil ring snapshot must be nil")
	}
}
