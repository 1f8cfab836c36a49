package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestQueueWaitMeanings pins the queue wait's two settings besides a
// positive bound: 0 takes the 1 s default, and a negative wait never
// sheds — an acquire on a full pool returns only when its context ends.
func TestQueueWaitMeanings(t *testing.T) {
	if got := (Config{}).withDefaults().QueueWait; got != time.Second {
		t.Fatalf("Config{}.withDefaults().QueueWait = %v, want 1s", got)
	}
	cfg := Config{QueueWait: -1}.withDefaults()
	if cfg.QueueWait >= 0 {
		t.Fatalf("a negative QueueWait became %v", cfg.QueueWait)
	}

	p := newWorkerPool(1, cfg.QueueWait)
	if err := p.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	const deadline = 150 * time.Millisecond
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	err := p.acquire(ctx)
	if !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("acquire on a full pool = %v, want ErrPoolSaturated", err)
	}
	if waited := time.Since(start); waited < deadline || ctx.Err() == nil {
		t.Fatalf("acquire returned after %v, before its context ended", waited)
	}
	if shed, rejected := p.shed.Load(), p.rejected.Load(); shed != 0 || rejected != 1 {
		t.Fatalf("shed = %d, rejected = %d; want 0 and 1", shed, rejected)
	}
}
