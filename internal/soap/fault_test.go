package soap

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
)

// TestClientDoesNotRetryPermanentFaults: a permanent fault (the default
// class for plain errors) surfaces with its class after the one request
// the client makes; retrying is the engine's RetryPolicy's job.
func TestClientDoesNotRetryPermanentFaults(t *testing.T) {
	var calls atomic.Int64
	reg := service.NewRegistry()
	reg.Register(&service.Service{
		Name: "flaky",
		Handler: func([]*tree.Node) ([]*tree.Node, error) {
			calls.Add(1)
			return nil, fmt.Errorf("schema violation")
		},
	})
	srv := httptest.NewServer(NewServer(reg, false))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	_, err := c.InvokeContext(context.Background(), "flaky", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "schema violation") {
		t.Fatalf("err = %v", err)
	}
	if service.ClassOf(err) != service.Permanent {
		t.Fatalf("class = %v, want permanent", service.ClassOf(err))
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1", got)
	}
}

// TestFaultClassSurvivesTheWire: the class a handler attaches to its
// error must come back out of the HTTP client as the same class, via the
// fault envelope's class attribute.
func TestFaultClassSurvivesTheWire(t *testing.T) {
	for _, class := range []service.ErrorClass{service.Permanent, service.Transient, service.Timeout} {
		reg := service.NewRegistry()
		reg.Register(&service.Service{
			Name: "svc",
			Handler: func([]*tree.Node) ([]*tree.Node, error) {
				return nil, &service.Fault{Service: "svc", Class: class, Msg: "classed"}
			},
		})
		srv := httptest.NewServer(NewServer(reg, false))
		c := &Client{BaseURL: srv.URL}
		_, err := c.InvokeContext(context.Background(), "svc", nil, nil)
		srv.Close()
		if err == nil {
			t.Fatalf("class %v: no error", class)
		}
		if got := service.ClassOf(err); got != class {
			t.Fatalf("class %v came back as %v (err %v)", class, got, err)
		}
		var f *service.Fault
		if !errors.As(err, &f) || f.Service != "svc" {
			t.Fatalf("class %v: error is not a service fault for svc: %v", class, err)
		}
	}
}

// TestServerDeadline: an invocation that outlives Server.Deadline
// answers 504 with a timeout-classed fault, which the client maps back
// to service.Timeout — i.e. retryable by engine policies.
func TestServerDeadline(t *testing.T) {
	reg := service.NewRegistry()
	release := make(chan struct{})
	reg.Register(&service.Service{
		Name: "stuck",
		Handler: func([]*tree.Node) ([]*tree.Node, error) {
			<-release
			return nil, nil
		},
	})
	h := NewServer(reg, false)
	h.Deadline = 20 * time.Millisecond
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer close(release)

	c := &Client{BaseURL: srv.URL}
	start := time.Now()
	_, err := c.InvokeContext(context.Background(), "stuck", nil, nil)
	if err == nil {
		t.Fatal("deadline did not fire")
	}
	if service.ClassOf(err) != service.Timeout {
		t.Fatalf("class = %v, want timeout (err %v)", service.ClassOf(err), err)
	}
	if !strings.Contains(err.Error(), "504") {
		t.Fatalf("expected a 504 in %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline answer took implausibly long")
	}
}

// TestClientTimeout: a per-request client timeout cuts a slow provider
// and classifies the failure as a timeout.
func TestClientTimeout(t *testing.T) {
	mux := http.NewServeMux()
	release := make(chan struct{})
	mux.HandleFunc("/services/slow", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(release) // LIFO: unblock the handler before Close waits on it
	c := &Client{BaseURL: srv.URL, Timeout: 20 * time.Millisecond}
	_, err := c.InvokeContext(context.Background(), "slow", nil, nil)
	if err == nil {
		t.Fatal("client timeout did not fire")
	}
	if service.ClassOf(err) != service.Timeout {
		t.Fatalf("class = %v, want timeout (err %v)", service.ClassOf(err), err)
	}
}

// TestInvokeContextCancellation: cancelling the caller's context aborts
// the in-flight request, which surfaces as a timeout-classed fault after
// the one request the client makes.
func TestInvokeContextCancellation(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	release := make(chan struct{})
	mux.HandleFunc("/services/slow", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(release) // LIFO: unblock the handler before Close waits on it
	c := &Client{BaseURL: srv.URL}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(25 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.InvokeContext(ctx, "slow", nil, nil)
	if err == nil {
		t.Fatal("cancelled invoke succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not cut the request")
	}
	if service.ClassOf(err) != service.Timeout {
		t.Fatalf("class = %v, want timeout (err %v)", service.ClassOf(err), err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
}

// TestNetworkErrorIsTransient: a connection failure (nothing listening)
// must classify as transient so retry policies treat it as such.
func TestNetworkErrorIsTransient(t *testing.T) {
	c := &Client{BaseURL: "http://127.0.0.1:1"}
	_, err := c.InvokeContext(context.Background(), "x", nil, nil)
	if err == nil {
		t.Fatal("unreachable provider must fail")
	}
	if service.ClassOf(err) != service.Transient {
		t.Fatalf("class = %v, want transient (err %v)", service.ClassOf(err), err)
	}
}
