package main

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
)

// The shims are how the traced pass sees inside an op without touching
// the program: each wraps one public extension point (a service handler,
// a remote proxy, the invocation planner, the HTTP handler) and records
// a span around the call it forwards.

// shimCounts are the counts taken at the same boundaries as the spans.
type shimCounts struct {
	handlerCalls, handlerErrors atomic.Int64
	planBatches, planReordered  atomic.Int64
	soapBytes                   atomic.Int64
}

func (c *shimCounts) reset() {
	for _, v := range []*atomic.Int64{&c.handlerCalls, &c.handlerErrors, &c.planBatches, &c.planReordered, &c.soapBytes} {
		v.Store(0)
	}
}

// wrapHandlers returns a registry whose local handlers record a
// service.handler span each; remote services are passed through.
func wrapHandlers(reg *service.Registry, rec *recorder, cnt *shimCounts) *service.Registry {
	out := service.NewRegistry()
	for _, name := range reg.Names() {
		svc := *reg.Lookup(name)
		if inner := svc.Handler; inner != nil {
			name := name
			svc.Handler = func(params []*tree.Node) ([]*tree.Node, error) {
				sp := rec.startAmbient("service.handler", name)
				forest, err := inner(params)
				sp.end()
				cnt.handlerCalls.Add(1)
				if err != nil {
					cnt.handlerErrors.Add(1)
				}
				return forest, err
			}
		}
		out.Register(&svc)
	}
	return out
}

// wrapRemote returns a registry that forwards every invocation to reg
// inside a soap.roundtrip span — reg is a registry of SOAP proxies.
func wrapRemote(reg *service.Registry, rec *recorder, cnt *shimCounts) *service.Registry {
	out := service.NewRegistry()
	for _, name := range reg.Names() {
		inner := reg.Lookup(name)
		name := name
		out.Register(&service.Service{
			Name:    name,
			Latency: inner.Latency,
			CanPush: inner.CanPush,
			RemoteCtx: func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
				sp := rec.startAmbient("soap.roundtrip", name)
				resp, err := reg.InvokeContext(ctx, name, params, pushed)
				sp.end()
				cnt.soapBytes.Add(int64(resp.Bytes))
				return resp, err
			},
		})
	}
	return out
}

// tracedPlanner forwards to the workload's planner and records what it
// decided. It is installed only where the workload already plans: adding
// a planner to an op that had none would measure a different program.
type tracedPlanner struct {
	inner core.InvocationPlanner
	rec   *recorder
	cnt   *shimCounts
}

func (p *tracedPlanner) PlanBatch(calls []core.PlanCall, width int) core.BatchPlan {
	sp := p.rec.startAmbient("plan.plan_batch", "")
	bp := p.inner.PlanBatch(calls, width)
	sp.end()
	p.cnt.planBatches.Add(1)
	if !staticSchedule(bp, len(calls)) {
		p.cnt.planReordered.Add(1)
	}
	return bp
}

func (p *tracedPlanner) AllowPush(service string) bool { return p.inner.AllowPush(service) }

func (p *tracedPlanner) AdmitSpeculative(calls []core.PlanCall) []int {
	return p.inner.AdmitSpeculative(calls)
}

// staticSchedule reports whether the plan equals the engine's default
// striping: member i on worker i mod width, in index order.
func staticSchedule(bp core.BatchPlan, n int) bool {
	if bp.Width < 1 || len(bp.Queues) != bp.Width {
		return true // invalid plans are ignored by the engine
	}
	seen := 0
	for w, q := range bp.Queues {
		for j, i := range q {
			if i != w+j*bp.Width {
				return false
			}
			seen++
		}
	}
	return seen == n
}

// spanHeader carries "<span id>:<op id>" from the load generator to the
// middleware, so the server-side span nests under the client's.
const spanHeader = "X-Bench-Span"

func setSpanHeader(req *http.Request, o *open) {
	if o != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(o.span.ID, 10)+":"+strconv.FormatInt(o.span.Op, 10))
	}
}

// traceHTTP records a session.handler span around every request.
func traceHTTP(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent, op int64
		if p, o, ok := strings.Cut(r.Header.Get(spanHeader), ":"); ok {
			parent, _ = strconv.ParseInt(p, 10, 64)
			op, _ = strconv.ParseInt(o, 10, 64)
		}
		sp := rec.startAt("session.handler", parent, op)
		next.ServeHTTP(w, r)
		sp.end()
	})
}
