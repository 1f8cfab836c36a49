package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrPoolSaturated is returned when a request gives up waiting for a pool
// slot: its context expired while queued, or the pool stayed full past
// the queue-wait bound (overload shedding).
var ErrPoolSaturated = errors.New("server: worker pool saturated")

// workerPool bounds the number of in-flight engine queries. Verification
// is the memory-heavy phase (compiled cost rows, match buffers), so
// admitting an unbounded number of concurrent searches can exhaust memory
// long before the CPU saturates; the pool converts overload into bounded
// queueing and, past queueWait, into a fast ErrPoolSaturated — a shed
// request costs the client one cheap 503 + Retry-After instead of a
// connection pinned behind an unbounded queue.
type workerPool struct {
	sem chan struct{}
	// queueWait bounds how long one acquisition may block (≤ 0 = until
	// the caller's context is done, the pre-shedding behavior).
	queueWait time.Duration

	inFlight atomic.Int64
	waited   atomic.Int64 // acquisitions that had to block
	rejected atomic.Int64 // abandoned acquisitions (shed + ctx-expired)
	shed     atomic.Int64 // rejected specifically by the queue-wait bound
}

// newWorkerPool creates a pool admitting at most size concurrent tasks.
func newWorkerPool(size int, queueWait time.Duration) *workerPool {
	if size < 1 {
		size = 1
	}
	return &workerPool{sem: make(chan struct{}, size), queueWait: queueWait}
}

func (p *workerPool) capacity() int { return cap(p.sem) }

// acquire blocks until a slot frees up, ctx is done, or the queue-wait
// bound sheds the request.
func (p *workerPool) acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
	default:
		p.waited.Add(1)
		var shed <-chan time.Time // nil without a queue-wait bound: never fires
		if p.queueWait > 0 {
			t := time.NewTimer(p.queueWait)
			defer t.Stop()
			shed = t.C
		}
		select {
		case p.sem <- struct{}{}:
		case <-shed:
			p.shed.Add(1)
			p.rejected.Add(1)
			return ErrPoolSaturated
		case <-ctx.Done():
			p.rejected.Add(1)
			return ErrPoolSaturated
		}
	}
	p.inFlight.Add(1)
	return nil
}

// release frees the slot taken by a successful acquire.
func (p *workerPool) release() {
	p.inFlight.Add(-1)
	<-p.sem
}

// tryAcquireN grabs up to n extra slots without blocking and reports how
// many it got. Queries use the extras as intra-query fan-out workers, so
// intra-query parallelism and cross-query concurrency draw from one
// budget: under light load a large query fans out, under heavy load the
// extras are unavailable and it degrades to the sequential path instead
// of oversubscribing the machine.
func (p *workerPool) tryAcquireN(n int) int {
	got := 0
	for ; got < n; got++ {
		select {
		case p.sem <- struct{}{}:
		default:
			return got
		}
	}
	return got
}

// releaseN frees n slots taken by tryAcquireN.
func (p *workerPool) releaseN(n int) {
	for i := 0; i < n; i++ {
		<-p.sem
	}
}

// do runs fn inside a pool slot.
func (p *workerPool) do(ctx context.Context, fn func()) error {
	if err := p.acquire(ctx); err != nil {
		return err
	}
	defer p.release()
	fn()
	return nil
}
