package core

import (
	"sort"
	"strconv"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// PlanCall describes one member of an invocation batch to the planner:
// its position in the batch (member order is document order within a
// safe batch, NFQ-retrieval order within a speculative one), the
// service it targets, and whether the engine holds a pushable subquery
// for it.
type PlanCall struct {
	Index   int
	Service string
	Push    bool
}

// BatchPlan is a planner's decision for one batch. The engine only
// accepts schedules that preserve semantics: Queues must hold every
// member index exactly once, and Width must be within [1, requested].
// An invalid plan is ignored and the batch runs on the static striped
// schedule — a buggy planner can cost performance, never correctness.
type BatchPlan struct {
	// Width is the effective pool width: how many workers to run.
	Width int
	// Queues assigns members to workers: Queues[w] is worker w's run
	// list, executed sequentially in order. len(Queues) == Width.
	Queues [][]int
	// Attrs is the plan's rationale — the cost inputs behind the chosen
	// order and width — rendered on the "plan" telemetry span so
	// -explain shows not just the schedule but why.
	Attrs []telemetry.Attr
}

// InvocationPlanner decides how each invocation round executes. The
// engine consults it at two points: PlanBatch schedules a parallel batch
// (order, width) and AllowPush gates shipping a subquery to a service.
// Implementations must be safe for concurrent use — the session layer
// shares one planner across evaluations.
//
// The contract is that planning never changes results: a plan may only
// reorder batch members across workers, shrink the pool, and withhold a
// push from a service that provably ignores pushes (the response is
// identical either way).
type InvocationPlanner interface {
	// PlanBatch schedules one batch over at most width workers.
	PlanBatch(calls []PlanCall, width int) BatchPlan
	// AllowPush reports whether a subquery should be shipped with calls
	// to the named service. Returning false must be response-neutral:
	// only veto services observed to never honour a push.
	AllowPush(service string) bool
	// AdmitSpeculative is not called: the engine invokes every call of a
	// speculative batch. It stays on the interface because the
	// benchmark's planner wrapper (benchmark/shims.go) forwards it.
	AdmitSpeculative(calls []PlanCall) []int
}

// plan applies the one budget rule to a round detect picked: with no
// budget left the run stops, incomplete (false); a round larger than the
// budget is cut to its document-order head, so the calls dropped are the
// document's trailing ones whatever order detect assembled the round in,
// and they stay pending in the document.
func (e *engine) plan(r *round) bool {
	left := e.opt.MaxCalls - e.stats.CallsInvoked
	if left <= 0 {
		return false
	}
	if len(r.calls) > left {
		sortByDocOrder(r.calls, r.nfqs, e.doc)
		r.calls, r.nfqs = r.calls[:left], r.nfqs[:left]
	}
	return true
}

// schedule readies one invocation of calls, nfqs[i] being the NFQ that
// retrieved calls[i] (nil for naive invocations): each member's request —
// a copy of its parameters and the subquery it was retrieved for — and the
// members' worker queues.
func (e *engine) schedule(calls []*tree.Node, nfqs []*rewrite.NFQ) invocation {
	n := len(calls)
	inv := invocation{reqs: make([]request, n), queues: [][]int{{0}}}
	for i, c := range calls {
		inv.reqs[i] = request{id: int(c.ID), service: c.Label, params: tree.CloneForest(c.Children),
			pushed: e.pushFor(nfqs[i], c.Label), path: tracePath(c)}
	}
	if n == 1 {
		// A single call is one queue of one: there is nothing to
		// schedule, so it is never shown to the planner.
		return inv
	}
	// Bounded invocation pool: member i runs on worker i mod W, so the
	// member→worker assignment — and the Worker stamped onto each invoke
	// span — is deterministic for a given batch regardless of goroutine
	// scheduling. W <= 0 means one worker per member; W == 1 is a
	// sequential walk.
	workers := e.opt.InvokeWorkers
	if workers <= 0 || workers > n {
		workers = n
	}
	inv.queues = make([][]int, workers)
	for i := range calls {
		inv.queues[i%workers] = append(inv.queues[i%workers], i)
	}
	// A planner may regroup members across workers and shrink the pool,
	// nothing more: responses are still applied in member order after the
	// pool drains and the batch is still charged its slowest member, so an
	// accepted plan changes wall-clock shape only. A plan that is not an
	// exact permutation of the batch within the width bound is discarded
	// in favour of the striped schedule.
	if pl := e.opt.Planner; pl != nil {
		start := time.Now()
		bp := pl.PlanBatch(planCalls(inv.reqs), workers)
		wall := time.Since(start)
		if bp.Width >= 1 && bp.Width <= workers && len(bp.Queues) == bp.Width && validQueues(bp.Queues, n) {
			inv.queues = bp.Queues
		}
		e.emitPlanSpan(bp, n, len(inv.queues), start, wall)
	}
	return inv
}

// planCalls builds the planner's view of a batch.
func planCalls(reqs []request) []PlanCall {
	out := make([]PlanCall, len(reqs))
	for i, r := range reqs {
		out[i] = PlanCall{Index: i, Service: r.service, Push: r.pushed != nil}
	}
	return out
}

// validQueues reports whether a plan's queues are a permutation of the
// batch: every member index in [0, n) appears exactly once.
func validQueues(queues [][]int, n int) bool {
	seen := make([]bool, n)
	total := 0
	for _, q := range queues {
		for _, i := range q {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
			total++
		}
	}
	return total == n
}

// pushFor computes the subquery to ship with a call to svc, honouring
// the planner's push veto. The veto is response-neutral by contract —
// a planner may only veto services observed to never honour a push, so
// withholding the subquery saves serialization without changing the
// response.
func (e *engine) pushFor(nfq *rewrite.NFQ, svc string) *pattern.Pattern {
	p := e.pushedQuery(nfq)
	if p != nil && e.opt.Planner != nil && !e.opt.Planner.AllowPush(svc) {
		e.stats.PushVetoed++
		return nil
	}
	return p
}

// pushedQuery returns the subquery to ship with a call retrieved for nfq,
// or nil when pushing is off, impossible, or unsafe. The subquery is
// sub_v, v's subtree (Section 7); it is only pushed when the binding
// tuples it returns can stand in for a full match: every result node is a
// variable and every variable of the subtree is a result variable (a
// variable shared with the rest of the query but absent from the tuples
// could not be joined).
func (e *engine) pushedQuery(nfq *rewrite.NFQ) *pattern.Pattern {
	if !e.opt.Push || nfq == nil {
		return nil
	}
	sub := e.q.Sub(nfq.For)
	resultVars := map[string]bool{}
	for _, r := range sub.ResultNodes() {
		if r.Kind != pattern.Var {
			return nil
		}
		resultVars[r.Label] = true
	}
	for _, v := range sub.Variables() {
		if !resultVars[v] {
			return nil
		}
	}
	return sub
}

// emitPlanSpan records the planner's decision for one batch: the
// schedule shape (batch size, accepted width) plus the planner's own
// rationale attrs — the per-service cost inputs behind the chosen order
// — so -explain shows not just the schedule but why.
func (e *engine) emitPlanSpan(bp BatchPlan, batch, width int, start time.Time, wall time.Duration) {
	if e.opt.Tracer == nil {
		return
	}
	attrs := append([]telemetry.Attr{
		{Key: "round", Value: strconv.Itoa(e.round)},
		{Key: "batch", Value: strconv.Itoa(batch)},
		{Key: "width", Value: strconv.Itoa(width)},
	}, bp.Attrs...)
	e.opt.Tracer.Emit(telemetry.Span{
		Parent: e.spanParent(),
		Name:   "plan",
		Start:  start,
		Wall:   wall,
		Attrs:  attrs,
	})
}

// sortByDocOrder re-ranks parallel slices of distinct calls and their NFQs
// into document order.
func sortByDocOrder(calls []*tree.Node, nfqs []*rewrite.NFQ, doc *tree.Document) {
	pos := make(map[*tree.Node]int, len(calls))
	for i, c := range doc.Calls() {
		pos[c] = i
	}
	nfqOf := make(map[*tree.Node]*rewrite.NFQ, len(calls))
	for i, c := range calls {
		nfqOf[c] = nfqs[i]
	}
	sort.Slice(calls, func(i, j int) bool { return pos[calls[i]] < pos[calls[j]] })
	for i, c := range calls {
		nfqs[i] = nfqOf[c]
	}
}

// tracePath is a call's document path as spans and failures show it.
func tracePath(call *tree.Node) string {
	if call.Parent == nil {
		return "(detached)"
	}
	return call.PathString()
}
