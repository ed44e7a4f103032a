// Package good holds the fixed forms of the blockctx fixture: every
// blocking entry point gives its caller a bound, one of each accepted
// kind.
package good

import (
	"context"
	"sync"
	"time"
)

// Hub fans jobs out to a worker pool; drainTimeout bounds shutdown waits.
type Hub struct {
	mu           sync.Mutex
	jobs         chan int
	wg           sync.WaitGroup
	drainTimeout time.Duration
}

// SubmitContext parks only until ctx is done — the context form.
func (h *Hub) SubmitContext(ctx context.Context, job int) error {
	select {
	case h.jobs <- job:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drain passes because the receiver carries the drainTimeout knob.
func (h *Hub) Drain() {
	h.wg.Wait()
}

// Close is the io.Closer contract: exempt by name.
func (h *Hub) Close() error {
	h.wg.Wait()
	return nil
}

// Await takes an explicit timeout parameter.
func Await(done chan struct{}, timeout time.Duration) bool {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// Feed has no deadline knob on the receiver; its Push passes through the
// Context sibling alone.
type Feed struct {
	ch chan []byte
}

// PushContext is the bounded form.
func (f *Feed) PushContext(ctx context.Context, b []byte) error {
	select {
	case f.ch <- b:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Push delegates the bound to the sibling: callers who want one call
// PushContext.
func (f *Feed) Push(b []byte) {
	f.ch <- b
}

// pump is unexported: not an entry point.
func pump(ch chan int) {
	for v := range ch {
		_ = v
	}
}
