// Package service implements the Web-service substrate the AXML engine
// invokes: a registry of named services with signatures, simulated
// latency, transfer accounting, and the query-pushing capability of
// Section 7 of "Lazy Query Evaluation for Active XML" (SIGMOD 2004).
//
// The paper's experiments run against remote Web services whose dominant
// cost is the call round-trip. To reproduce those cost shapes without
// wall-clock sleeps, invocations report a latency that the engine charges
// to a Clock: the SimClock accumulates virtual time (a parallel batch
// costs its maximum member, Section 4.4), while real HTTP deployments
// (package soap) incur genuine network time and use a WallClock.
package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// Clock is the engine's notion of elapsed query-evaluation time.
type Clock interface {
	// Advance charges d to the clock.
	Advance(d time.Duration)
	// Elapsed returns the total charged so far.
	Elapsed() time.Duration
}

// SimClock is a virtual clock: Advance is free in wall-clock terms.
type SimClock struct {
	mu      sync.Mutex
	elapsed time.Duration
}

// Advance implements Clock.
func (c *SimClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.elapsed += d
	c.mu.Unlock()
}

// Elapsed implements Clock.
func (c *SimClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elapsed
}

// WallClock measures real time from its creation; Advance additionally
// sleeps, so simulated latencies are physically observable. It is used by
// the HTTP examples, not by benchmarks.
type WallClock struct {
	start time.Time
	sleep bool
}

// NewWallClock returns a wall clock. When sleep is true, Advance blocks
// for the charged duration.
func NewWallClock(sleep bool) *WallClock {
	return &WallClock{start: time.Now(), sleep: sleep}
}

// Advance implements Clock.
func (c *WallClock) Advance(d time.Duration) {
	if c.sleep {
		time.Sleep(d)
	}
}

// Elapsed implements Clock.
func (c *WallClock) Elapsed() time.Duration { return time.Since(c.start) }

// ClockNow adapts a Clock into the time source a CacheSpec expects, so
// cache TTLs age on the same (possibly virtual) timeline the engine
// charges invocation latencies to: under a SimClock, entries expire as
// simulated rounds accumulate, without any wall time passing. The
// returned instants are a fixed epoch plus the clock's elapsed time —
// only their differences are meaningful, which is all TTL aging reads.
func ClockNow(c Clock) func() time.Time {
	epoch := time.Now()
	return func() time.Time { return epoch.Add(c.Elapsed()) }
}

// Handler computes a service's full result forest from its parameter
// forest. Implementations must be safe for concurrent use and must return
// detached trees (no parents, zero IDs); the params are owned by the
// handler and may be inspected freely but not attached anywhere.
type Handler func(params []*tree.Node) ([]*tree.Node, error)

// Service is one registered Web service.
type Service struct {
	// Name is the service (function) name used in axml:call elements.
	Name string
	// Latency is the simulated round-trip cost of one invocation.
	Latency time.Duration
	// CanPush marks services able to evaluate a pushed subquery on their
	// result and return only binding tuples (Section 7). A push-capable
	// service must return *extensional* results (no embedded calls):
	// evaluating the subquery over a forest with unresolved calls would
	// silently drop the bindings those calls could produce. Services
	// whose results embed calls must leave CanPush false — the engine
	// then receives the full result and resolves the nested calls
	// itself. (In the ActiveXML peer-to-peer deployment the provider is
	// itself an AXML engine and can resolve its own intensional parts
	// before answering; the soap package's recursive push mode models
	// that.)
	CanPush bool
	// Handler produces the full result forest.
	Handler Handler
	// RemoteCtx, when set, replaces the local invocation path entirely:
	// parameters and the pushed query travel to a remote provider (e.g.
	// over the soap package's HTTP envelope) and the response comes back
	// as-is, including transfer size and the provider's push decision.
	// Handler is ignored when RemoteCtx is set. The context carries the
	// cross-process trace state (telemetry.TraceContext) and
	// cancellation; the wrappers that thread contexts (cache, faults,
	// session limits, the soap proxy) are built on it.
	RemoteCtx Invoker
}

// Response is the outcome of one invocation.
type Response struct {
	// Forest is the returned forest: either the full service result or,
	// for a pushed invocation, a single Tuples node carrying the
	// bindings.
	Forest []*tree.Node
	// Bytes is the serialised size of Forest — what would travel over
	// the wire. A local invocation counts it (tree.EncodedLen) and
	// serialises nothing.
	Bytes int
	// Latency is the simulated cost of this invocation. The engine
	// charges it to its clock (sequential: sum; parallel batch: max).
	Latency time.Duration
	// Pushed reports whether the service applied the pushed subquery.
	Pushed bool
	// RemoteTrace holds the provider-side span subtree returned in the
	// response envelope when the caller opted into remote span return
	// (telemetry.TraceContext.MaxSpans > 0). The engine grafts it under
	// the local invoke span. Cache hits strip it — replayed responses
	// did no remote work.
	RemoteTrace []telemetry.Span
}

// Stats aggregates registry-level accounting.
type Stats struct {
	// Invocations counts calls served.
	Invocations int
	// Bytes counts the serialised result bytes returned.
	Bytes int64
	// PushedInvocations counts calls that applied a pushed subquery.
	PushedInvocations int
}

// Registry holds the available services. It is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	services map[string]*Service
	stats    Stats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{services: map[string]*Service{}}
}

// Register adds a service; it panics on duplicates or a service with
// neither Handler nor RemoteCtx, which are programming errors.
func (r *Registry) Register(s *Service) {
	if s.Handler == nil && s.RemoteCtx == nil {
		panic("service: Register with neither Handler nor RemoteCtx")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.services[s.Name]; dup {
		panic(fmt.Sprintf("service: duplicate service %q", s.Name))
	}
	r.services[s.Name] = s
}

// Lookup returns the named service, or nil.
func (r *Registry) Lookup(name string) *Service {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.services[name]
}

// Names returns the registered service names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.services))
	for n := range r.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the accounting counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// ResetStats zeroes the accounting counters.
func (r *Registry) ResetStats() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats = Stats{}
}

// Invoke calls the named service with the given parameter forest. When
// pushed is non-nil and the service CanPush, the service evaluates the
// subquery over its full result and returns one Tuples node holding the
// bindings instead of the result itself; the Tuples node is tagged with
// pushed.String() so the evaluator can recognise it (Section 7). The
// pushed pattern must have only variable result nodes — the engine
// guarantees this.
func (r *Registry) Invoke(name string, params []*tree.Node, pushed *pattern.Pattern) (Response, error) {
	return r.InvokeContext(context.Background(), name, params, pushed)
}

// InvokeContext is Invoke with a caller-supplied context. The context
// carries the cross-process trace state (telemetry.WithTrace) down
// through wrapper registries to the transport; a local Handler cannot see
// it, but does not hold its caller past it (handle). A failed invocation's
// error is prefixed "service <name>: " here and nowhere else: the layers of
// a Proxy stack reach each other through invoke, so the prefix appears once
// however deep the stack.
func (r *Registry) InvokeContext(ctx context.Context, name string, params []*tree.Node, pushed *pattern.Pattern) (Response, error) {
	svc := r.Lookup(name)
	if svc == nil {
		return Response{}, fmt.Errorf("service: unknown service %q", name)
	}
	resp, err := r.invoke(ctx, svc, params, pushed)
	if err != nil {
		return Response{}, fmt.Errorf("service %s: %w", name, err)
	}
	return resp, nil
}

// invoke runs one invocation of svc, a service of r, and accounts for it.
func (r *Registry) invoke(ctx context.Context, svc *Service, params []*tree.Node, pushed *pattern.Pattern) (Response, error) {
	var resp Response
	if svc.RemoteCtx != nil {
		var err error
		if resp, err = svc.RemoteCtx(ctx, params, pushed); err != nil {
			return Response{}, err
		}
	} else {
		full, err := handle(ctx, svc.Handler, params)
		if err != nil {
			return Response{}, err
		}
		resp = Response{Forest: full, Latency: svc.Latency}
		if pushed != nil && svc.CanPush {
			resp.Forest = []*tree.Node{EvalPushed(full, pushed)}
			resp.Pushed = true
		}
		for _, n := range resp.Forest {
			size, err := tree.EncodedLen(n)
			if err != nil {
				return Response{}, fmt.Errorf("marshal result: %w", err)
			}
			resp.Bytes += size
		}
	}
	r.mu.Lock()
	r.stats.Invocations++
	r.stats.Bytes += int64(resp.Bytes)
	if resp.Pushed {
		r.stats.PushedInvocations++
	}
	r.mu.Unlock()
	return resp, nil
}

// handle runs a Handler, which takes no context, for a caller whose context
// can still end: on its own goroutine, so that the invocation returns
// ctx.Err() as soon as ctx is done. The handler then finishes unobserved;
// its late result is dropped, and counted nowhere. Under a context that
// cannot end, or already has (the engine starts no attempt for a caller
// already gone), it is a plain call on the caller's goroutine.
func handle(ctx context.Context, h Handler, params []*tree.Node) ([]*tree.Node, error) {
	if ctx.Done() == nil || ctx.Err() != nil {
		return h(params)
	}
	var forest []*tree.Node
	var err error
	done := make(chan struct{})
	go func() {
		forest, err = h(params)
		close(done)
	}()
	select {
	case <-done:
		return forest, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Invoker performs one invocation of a fixed service: the type of
// Service.RemoteCtx.
type Invoker func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (Response, error)

// Proxy returns a registry holding one service per service of r, each
// advertising its inner service's name, latency and push capability and
// serving every call through wrap(inner, next), where next invokes inner
// on r (counted in r's Stats). It is how every wrapper registry — cache,
// fault injector, profiler, invocation pool, recursive push — is built.
func (r *Registry) Proxy(wrap func(inner *Service, next Invoker) Invoker) *Registry {
	out := NewRegistry()
	for _, name := range r.Names() {
		inner := r.Lookup(name)
		next := func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (Response, error) {
			return r.invoke(ctx, inner, params, pushed)
		}
		out.Register(&Service{
			Name:      inner.Name,
			Latency:   inner.Latency,
			CanPush:   inner.CanPush,
			RemoteCtx: wrap(inner, next),
		})
	}
	return out
}

// EvalPushed runs the pushed subquery over the full result forest and
// packs the variable bindings into a Tuples node.
func EvalPushed(full []*tree.Node, pushed *pattern.Pattern) *tree.Node {
	results, _ := pattern.EvalForest(full, pushed)
	bindings := make([]tree.Binding, 0, len(results))
	for _, res := range results {
		b := tree.Binding{}
		for k, v := range res.Values {
			b[k] = v
		}
		bindings = append(bindings, b)
	}
	return tree.NewTuples(pushed.String(), bindings)
}
