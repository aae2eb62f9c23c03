package session

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// ShedError reports an admission rejection: the server is saturated (every
// execution slot busy and the wait queue at its budget) and the client
// should retry after the hinted delay. The HTTP layer renders it as
// 429 Too Many Requests with a Retry-After header.
type ShedError struct {
	// RetryAfter is the server's backoff hint.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("session: admission queue full, retry after %v", e.RetryAfter)
}

// admission is a FIFO counting semaphore with a bounded wait queue — the
// server's only backpressure point. A query acquires a slot before
// touching any document; when no slot is free it waits in strict FIFO
// order, and when the queue itself is full the acquire fails immediately
// with ShedError (load shedding, never unbounded buffering). Draining
// wakes every queued waiter with ErrDraining and lets active queries
// finish.
//
// FIFO matters for fairness: Go's sync.Cond and channel selects wake
// waiters in unspecified order, which under sustained overload can
// starve an unlucky client indefinitely. The explicit waiter list
// guarantees admission in arrival order.
type admission struct {
	mu       sync.Mutex
	capacity int64 // total slots
	used     int64 // slots held by active queries
	maxQueue int   // waiters allowed before shedding
	// waiters holds each queued query's ready channel, buffered(1): a grant
	// (nil), ErrDraining, or nothing if abandoned.
	waiters  []chan error
	draining bool
	idle     chan struct{} // closed when draining and used == 0
}

func newAdmission(capacity int64, maxQueue int) *admission {
	if capacity < 1 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{capacity: capacity, maxQueue: maxQueue}
}

// acquire obtains a slot, waiting in FIFO order behind earlier arrivals.
// It fails fast with ShedError when the wait queue is at budget, with
// ErrDraining when the server is shutting down, and with ctx.Err() when
// the caller gives up first.
func (a *admission) acquire(ctx context.Context, retryAfter time.Duration) error {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return ErrDraining
	}
	if len(a.waiters) == 0 && a.used < a.capacity {
		a.used++
		a.mu.Unlock()
		return nil
	}
	if len(a.waiters) >= a.maxQueue {
		a.mu.Unlock()
		return &ShedError{RetryAfter: retryAfter}
	}
	ready := make(chan error, 1)
	a.waiters = append(a.waiters, ready)
	a.mu.Unlock()

	select {
	case err := <-ready:
		return err
	case <-ctx.Done():
		a.mu.Lock()
		for i, w := range a.waiters {
			if w == ready {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				a.mu.Unlock()
				return ctx.Err()
			}
		}
		a.mu.Unlock()
		// Already granted between ctx firing and the lock: the slot is
		// ours, so hand it straight back.
		if err := <-ready; err == nil {
			a.release()
		}
		return ctx.Err()
	}
}

// release returns a slot and grants as many queued waiters as now fit, in
// FIFO order.
func (a *admission) release() {
	a.mu.Lock()
	a.used--
	if a.used < 0 {
		a.used = 0
	}
	for len(a.waiters) > 0 && !a.draining && a.used < a.capacity {
		a.used++
		a.waiters[0] <- nil
		a.waiters = a.waiters[1:]
	}
	if a.draining && a.used == 0 && a.idle != nil {
		close(a.idle)
		a.idle = nil
	}
	a.mu.Unlock()
}

// queued reports the current wait-queue length.
func (a *admission) queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}

// active reports the slots currently held.
func (a *admission) active() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// drain switches the semaphore into shutdown: queued waiters are refused
// with ErrDraining, new acquires fail the same way, and the call blocks
// until every active query has released its slot or ctx expires.
// Draining is idempotent; concurrent drains all wait for idleness.
func (a *admission) drain(ctx context.Context) error {
	a.mu.Lock()
	a.draining = true
	for _, w := range a.waiters {
		w <- ErrDraining
	}
	a.waiters = nil
	if a.used == 0 {
		a.mu.Unlock()
		return nil
	}
	if a.idle == nil {
		a.idle = make(chan struct{})
	}
	idle := a.idle
	a.mu.Unlock()

	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
