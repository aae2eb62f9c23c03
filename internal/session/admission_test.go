package session

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/activexml/axml/internal/telemetry"
)

// TestAdmissionFIFOFairness checks the semaphore grants strictly in
// arrival order: with capacity 1 held, waiters enqueued 0..n-1 must be
// admitted 0..n-1 as the holder chain releases — no barging, no
// starvation.
func TestAdmissionFIFOFairness(t *testing.T) {
	a := newAdmission(1, 64)
	if err := a.acquire(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}

	const waiters = 16
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquire(context.Background(), time.Second); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			a.release()
		}()
		// Serialise enqueue order: wait until this goroutine is queued
		// before starting the next.
		waitFor(t, func() bool { return a.queued() == i+1 })
	}

	a.release()
	wg.Wait()
	close(order)
	prev := -1
	for got := range order {
		if got != prev+1 {
			t.Fatalf("waiter %d admitted after %d — not FIFO", got, prev)
		}
		prev = got
	}
}

// TestAdmissionShedsPastQueueBudget checks the bounded queue: waiters
// past the budget fail fast with ShedError instead of queueing.
func TestAdmissionShedsPastQueueBudget(t *testing.T) {
	a := newAdmission(1, 2)
	if err := a.acquire(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		go func() {
			if err := a.acquire(context.Background(), time.Second); err == nil {
				a.release()
			}
		}()
	}
	waitFor(t, func() bool { return a.queued() == 2 })

	err := a.acquire(context.Background(), 250*time.Millisecond)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("got %v, want ShedError", err)
	}
	if shed.RetryAfter != 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 250ms", shed.RetryAfter)
	}
	a.release()
}

// TestAdmissionZeroQueueShedsWhenSaturated checks maxQueue 0: saturation
// sheds immediately, nothing ever waits.
func TestAdmissionZeroQueueShedsWhenSaturated(t *testing.T) {
	a := newAdmission(1, 0)
	if err := a.acquire(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	var shed *ShedError
	if err := a.acquire(context.Background(), time.Second); !errors.As(err, &shed) {
		t.Fatalf("got %v, want ShedError", err)
	}
	a.release()
	if err := a.acquire(context.Background(), time.Second); err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
}

// TestAdmissionContextCancel checks a waiter that gives up leaves the
// queue without leaking its slot or corrupting FIFO order.
func TestAdmissionContextCancel(t *testing.T) {
	a := newAdmission(1, 8)
	if err := a.acquire(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.acquire(ctx, time.Second) }()
	waitFor(t, func() bool { return a.queued() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if a.queued() != 0 {
		t.Fatalf("cancelled waiter still queued")
	}
	a.release()
	if err := a.acquire(context.Background(), time.Second); err != nil {
		t.Fatalf("slot leaked by cancelled waiter: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLimitRegistryHonoursContext: a call whose caller is gone does not
// queue for an invocation slot — it returns its context's error at once and
// never shows in the in-flight gauge.
func TestLimitRegistryHonoursContext(t *testing.T) {
	gate := make(chan struct{})
	_, reg := gatedWorld(gate)
	metrics := telemetry.NewRegistry()
	limited := LimitRegistry(reg, 1, metrics)
	inflight := metrics.Gauge(telemetry.MetricInvokeInflight)

	held := make(chan error, 1)
	go func() {
		_, err := limited.Invoke("slow", nil, nil)
		held <- err
	}()
	waitFor(t, func() bool { return inflight.Value() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := limited.InvokeContext(ctx, "slow", nil, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a dead request queued for an invocation slot")
	}
	if v := inflight.Value(); v != 1 {
		t.Fatalf("%s = %d with one call holding the only slot, want 1", telemetry.MetricInvokeInflight, v)
	}
	close(gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if v := inflight.Value(); v != 0 {
		t.Fatalf("%s = %d after the pool drained, want 0", telemetry.MetricInvokeInflight, v)
	}
}
