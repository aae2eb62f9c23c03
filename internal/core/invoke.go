package core

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// request is one call as the invoke stage sees it: data of its own, nothing
// that points into the document.
type request struct {
	id      int // the call node's ID, which seeds the backoff jitter
	service string
	params  []*tree.Node // a detached copy of the call's parameters
	pushed  *pattern.Pattern
	path    string // the call's document path when it was scheduled
}

// invocation is one unit of a round — a single call, or a batch — with its
// worker queues: queues[w] is worker w's run list, walked in order.
type invocation struct {
	reqs   []request
	queues [][]int
}

// outcome is what one request came back with, and where and when it ran.
type outcome struct {
	resp   service.Response
	meta   callMeta
	worker int
	start  time.Time
	wall   time.Duration
}

// invoke runs an invocation on its worker queues and returns the outcomes
// in member order. One queue runs on the calling goroutine, several get one
// goroutine each. It reads nothing but its input and the run's
// configuration and changes no engine state: apply takes it from there, so
// results, spans and virtual-clock stats are identical for every pool width
// — except over a coalescing cache, where which of several identical
// members is the miss (the span with the virtual cost) and the cache's
// hit/coalesced split depend on scheduling (see Options.InvokeWorkers).
func (e *engine) invoke(inv invocation) []outcome {
	outs := make([]outcome, len(inv.reqs))
	runQueue := func(w int, q []int) {
		for _, i := range q {
			start := time.Now()
			resp, meta := e.invokeAttempts(inv.reqs[i])
			outs[i] = outcome{resp, meta, w, start, time.Since(start)}
		}
	}
	if len(inv.queues) == 1 {
		runQueue(0, inv.queues[0])
		return outs
	}
	var wg sync.WaitGroup
	for w, q := range inv.queues {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runQueue(w, q)
		}()
	}
	wg.Wait()
	return outs
}

// callMeta accounts for one call's full attempt sequence: the virtual
// time it consumed (attempt latencies plus backoffs), how many attempts
// were made (none when the run's context ended before the call's turn), how
// many were cut by the deadline, and the final error when every attempt
// failed. attemptLog records the per-attempt outcomes for trace rendering;
// it is collected only when a tracer is active.
type callMeta struct {
	cost       time.Duration
	attempts   int
	cuts       int
	err        error
	attemptLog []attemptRec
}

// attemptRec is one attempt's outcome: its virtual cost and the fault
// class it ended with ("" for success).
type attemptRec struct {
	cost  time.Duration
	class string
}

// invokeAttempts runs the retry loop for one request. It mutates no engine
// state, so the members of a batch run it concurrently.
func (e *engine) invokeAttempts(r request) (service.Response, callMeta) {
	var meta callMeta
	policy := e.opt.Retry
	collect := e.opt.Tracer != nil
	record := func(cost time.Duration, err error) {
		if !collect {
			return
		}
		class := ""
		if err != nil {
			class = service.ClassOf(err).String()
		}
		meta.attemptLog = append(meta.attemptLog, attemptRec{cost: cost, class: class})
	}
	// Propagate the trace downstream: remote providers continue the trace
	// under the enclosing layer/evaluate span and may return up to
	// remoteSpans spans of their subtree. With no trace ID set the context
	// is the run's own and the wire envelope is byte-identical to untraced
	// runs.
	ctx := e.ctx
	if id := e.opt.Tracer.Trace(); id != "" {
		ctx = telemetry.WithTrace(ctx, telemetry.TraceContext{
			TraceID:  id,
			Parent:   e.spanParent(),
			MaxSpans: e.remoteSpans,
		})
	}
	for {
		// A failed attempt is not tried again for a caller who has left,
		// whatever class the transport gave the failure.
		if meta.err = e.ctx.Err(); meta.err != nil {
			return service.Response{}, meta
		}
		meta.attempts++
		if meta.attempts > 1 {
			meta.cost += policy.backoffBefore(meta.attempts, r.id)
		}
		params := r.params
		if policy.attempts() > 1 {
			// Every attempt sends what the first did, whatever a service
			// did to the copy it was handed.
			params = tree.CloneForest(r.params)
		}
		resp, err := e.reg.InvokeContext(ctx, r.service, params, r.pushed)
		if err == nil {
			if policy.Deadline > 0 && resp.Latency > policy.Deadline {
				// The provider answered, but past the deadline: the
				// engine stopped waiting at the cutoff, so the attempt
				// costs exactly the deadline and the answer is lost.
				meta.cost += policy.Deadline
				meta.cuts++
				err = &service.Fault{
					Service: r.service, Class: service.Timeout, Latency: policy.Deadline,
					Msg: fmt.Sprintf("latency %v exceeded deadline %v", resp.Latency, policy.Deadline),
				}
				record(policy.Deadline, err)
			} else {
				meta.cost += resp.Latency
				record(resp.Latency, nil)
				return resp, meta
			}
		} else {
			lat := service.FaultLatency(err)
			if policy.Deadline > 0 && lat > policy.Deadline {
				lat = policy.Deadline
				meta.cuts++
			}
			meta.cost += lat
			record(lat, err)
		}
		if meta.attempts >= policy.attempts() || !service.Retryable(err) {
			meta.err = err
			return service.Response{}, meta
		}
	}
}

// emitInvokeSpan records one call's full attempt sequence as a span and
// feeds the invocation histograms. batch is the size of the invocation the
// call was a member of, stamped on members of multi-call batches only. The
// provider-side span subtree returned in the response envelope is grafted
// under the invoke span. A retried call additionally gets one "attempt"
// child span per attempt, so retry storms are visible in the explain tree
// (single-attempt calls emit no children, keeping fault-free trace streams
// unchanged).
func (e *engine) emitInvokeSpan(r request, nfq *rewrite.NFQ, o outcome, batch int, pushed bool) {
	e.met.invokeWall.Observe(o.wall)
	e.met.invokeVirt.Observe(o.meta.cost)
	if e.opt.Tracer == nil {
		return
	}
	s := telemetry.Span{
		Parent:  e.spanParent(),
		Name:    "invoke",
		Worker:  o.worker,
		Start:   o.start,
		Wall:    o.wall,
		Virtual: o.meta.cost,
		Attrs: []telemetry.Attr{
			{Key: "round", Value: strconv.Itoa(e.round)},
			{Key: "service", Value: r.service},
			{Key: "path", Value: r.path},
		},
	}
	if t := e.traceTarget(nfq); t != "" {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "target", Value: t})
	}
	if batch > 1 {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "batch", Value: strconv.Itoa(batch)})
	}
	if pushed {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "pushed", Value: "true"})
	}
	if o.meta.attempts > 1 {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "attempts", Value: strconv.Itoa(o.meta.attempts)})
	}
	if o.meta.err != nil {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "error", Value: o.meta.err.Error()})
	}
	id := e.opt.Tracer.Emit(s)
	if o.meta.attempts > 1 {
		for i, a := range o.meta.attemptLog {
			status := a.class
			if status == "" {
				status = "ok"
			}
			e.opt.Tracer.Emit(telemetry.Span{
				Parent:  id,
				Name:    "attempt",
				Worker:  o.worker,
				Start:   o.start,
				Virtual: a.cost,
				Attrs: []telemetry.Attr{
					{Key: "attempt", Value: strconv.Itoa(i + 1)},
					{Key: "status", Value: status},
				},
			})
		}
	}
	e.opt.Tracer.GraftRemote(id, o.resp.RemoteTrace)
}
