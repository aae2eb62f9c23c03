package core

import (
	"context"
	"time"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// coreMetrics holds the engine's pre-resolved telemetry instruments so
// hot-path updates are single atomic operations (no map lookups, no
// allocation). All fields are nil when Options.Metrics is unset; the
// nil instruments swallow updates.
type coreMetrics struct {
	evals       *telemetry.Counter
	calls       *telemetry.Counter
	pruned      *telemetry.Counter
	retries     *telemetry.Counter
	giveups     *telemetry.Counter
	pushed      *telemetry.Counter
	guideBuilds *telemetry.Counter
	guideWarm   *telemetry.Counter
	guidePatch  *telemetry.Counter
	evalSecs    *telemetry.Histogram
	detectSecs  *telemetry.Histogram
	invokeWall  *telemetry.Histogram
	invokeVirt  *telemetry.Histogram
}

func resolveMetrics(reg *telemetry.Registry) coreMetrics {
	if reg == nil {
		return coreMetrics{}
	}
	return coreMetrics{
		evals:       reg.Counter(telemetry.MetricEvaluations),
		calls:       reg.Counter(telemetry.MetricCallsInvoked),
		pruned:      reg.Counter(telemetry.MetricCallsPruned),
		retries:     reg.Counter(telemetry.MetricRetries),
		giveups:     reg.Counter(telemetry.MetricGiveUps),
		pushed:      reg.Counter(telemetry.MetricPushedCalls),
		guideBuilds: reg.Counter(telemetry.MetricGuideBuilds),
		guideWarm:   reg.Counter(telemetry.MetricGuideWarm),
		guidePatch:  reg.Counter(telemetry.MetricGuidePatches),
		evalSecs:    reg.Histogram(telemetry.MetricEvalSeconds),
		detectSecs:  reg.Histogram(telemetry.MetricDetectSeconds),
		invokeWall:  reg.Histogram(telemetry.MetricInvokeWallSeconds),
		invokeVirt:  reg.Histogram(telemetry.MetricInvokeVirtualSeconds),
	}
}

// Evaluate computes the full result of q over doc, invoking services from
// reg according to the options. The document is mutated in place: relevant
// calls are replaced by their results (clone the document first to keep
// the original). On success the outcome's Results hold the full query
// result; Complete reports whether every relevant call was resolved
// within the budget. It is Prepare followed by one Run, under a context
// nobody cancels, of an Evaluation that is then dropped.
func Evaluate(doc *tree.Document, q *pattern.Pattern, reg *service.Registry, opt Options) (*Outcome, error) {
	if err := rewrite.Validate(q); err != nil {
		return nil, err
	}
	return (&Evaluation{q: q, doc: doc}).Run(context.Background(), reg, opt)
}

// Run evaluates the query over the evaluation's document, like Evaluate.
// The first run, and any run that finds no state to resume (see
// Evaluation), learns the document in one walk; a resumed run reads the
// document's splice records since the last run and looks only at what those
// splices can have changed: it offers the call views the calls that arrived,
// re-validates the verdicts those splices dirtied, invokes what became
// relevant and re-joins only the rows of the result those splices touched —
// the same calls in the same order, and the same result, as a run from
// scratch; Outcome.Unchanged says whether any row of it changed. The
// analysis fields of opt (see Prepared) are taken from the prepared query;
// every other field is this run's own.
//
// The run lasts as long as ctx does: every invocation is made under it, and
// the engine looks at it before each round, before each batch member's turn
// and between the attempts of a retried call. Once it is done nothing more
// is invoked, the responses that had arrived are spliced like any others
// (the document stays a valid rewriting, an adopted guide synced) and Run
// returns ctx.Err() — never retried, never a CallFailure, never an
// incomplete Outcome. When ctx carries opt's tracer (the soap server's
// per-request one) the evaluate span nests under the span it names.
func (ev *Evaluation) Run(ctx context.Context, reg *service.Registry, opt Options) (*Outcome, error) {
	opt = normalise(opt)
	if ev.p != nil {
		opt = ev.p.bind(opt)
	}
	e := &engine{Evaluation: ev, ctx: ctx, reg: reg, opt: opt,
		failed: map[*tree.Node]bool{}, met: resolveMetrics(opt.Metrics)}
	out, err := e.run()
	if err != nil || !out.Complete || len(out.Failures) > 0 {
		ev.drop()
	}
	return out, err
}

func (e *engine) run() (*Outcome, error) {
	evalStart := time.Now()
	var parent telemetry.SpanID
	if tc, _ := telemetry.TraceFrom(e.ctx); tc.Tracer != nil && tc.Tracer == e.opt.Tracer {
		parent = tc.Parent
	}
	e.spanEval = e.opt.Tracer.Start("evaluate", parent)
	e.spanEval.SetAttr("strategy", e.opt.Strategy.String())
	resumed := e.live && e.follow()
	if !resumed {
		e.seed()
	}
	if e.p != nil {
		e.stats.AnalysisTime += e.p.bill()
	}
	if g := e.opt.Guide; e.opt.UseGuide && g != nil && g.Doc() == e.doc && fguide.Synced(g) {
		// Warm path: adopt the caller's guide (decoded from a repository's
		// persisted index, or kept in sync by the session layer) instead of
		// building one. Whatever the strategy, the engine maintains it in
		// place as it splices, so it stays synced for the caller.
		e.guide = g
		e.met.guideWarm.Inc()
	}
	complete, err := e.evaluate()
	if err != nil {
		e.spanEval.SetAttr("error", err.Error())
		e.spanEval.End()
		return nil, err
	}
	if len(e.failures) > 0 {
		// Best-effort left failed calls unresolved in the document. The
		// run's completeness claim no longer holds a priori; recompute
		// it from the final state (Definition 3): the result is still
		// the full result iff none of the leftover calls is relevant.
		// Type-refined relevance (sound for any strategy, Section 5)
		// applies whenever a schema is available, so a failed call whose
		// signature cannot contribute does not cost completeness.
		ok, cerr := Complete(e.doc, e.q, e.opt.Schema, e.opt.SchemaMode)
		complete = cerr == nil && ok
	}
	resultSpan := e.opt.Tracer.Start("result-eval", e.spanEval.ID())
	if e.result == nil || !e.follows(e.result) {
		e.result = e.newLiveQuery(e.q, e.p.userProj)
	}
	e.absorb(e.result)
	results, st := e.result.iev.EvalIncremental(e.doc)
	resultSpan.SetInt("results", int64(len(results)))
	resultSpan.End()
	e.stats.NodesVisited += st.NodesVisited
	e.stats.SubtreesPruned += st.SubtreesPruned
	e.stats.VirtualTime = e.opt.Clock.Elapsed()
	e.stats.FinalSize = e.size
	// Calls still pending in the final document were never deemed
	// relevant: they are the calls laziness pruned (the paper's headline
	// savings metric).
	prunedCalls := e.pendingCount()
	e.spanEval.SetInt("calls_invoked", int64(e.stats.CallsInvoked))
	e.spanEval.SetInt("calls_pruned", int64(prunedCalls))
	e.spanEval.SetInt("results", int64(len(results)))
	e.spanEval.AddVirtual(e.stats.VirtualTime)
	e.spanEval.End()
	e.met.evals.Inc()
	e.met.calls.Add(int64(e.stats.CallsInvoked))
	e.met.pruned.Add(int64(prunedCalls))
	e.met.retries.Add(int64(e.stats.Retries))
	e.met.giveups.Add(int64(e.stats.FailedCalls))
	e.met.pushed.Add(int64(e.stats.PushedCalls))
	e.met.evalSecs.Observe(time.Since(evalStart))
	return &Outcome{Results: results, Complete: complete, Resumed: resumed, Unchanged: e.result.iev.Unchanged(),
		Failures: e.failures, Stats: e.stats}, nil
}

// engine is one run of an Evaluation.
type engine struct {
	*Evaluation
	ctx context.Context // the run's, from Run's caller
	reg *service.Registry
	opt Options

	stats Stats

	guide *fguide.Guide
	// failed marks calls given up on under BestEffort; detect skips them
	// so the evaluation can terminate around them.
	failed   map[*tree.Node]bool
	failures []CallFailure
	// cur is the relevance-query set in use, fetched again when the layer
	// or the known names move on.
	cur struct {
		set                []*rewrite.NFQ
		layer, nameVersion int
	}
	// round is the round counter, stamped onto detect, plan and invoke
	// spans (1-based within an evaluation).
	round int
	// met holds the pre-resolved telemetry instruments (all nil when
	// metrics are off).
	met coreMetrics
	// spanEval and spanLayer are the open telemetry spans detect and
	// invoke spans parent under (nil when tracing is off).
	spanEval  *telemetry.ActiveSpan
	spanLayer *telemetry.ActiveSpan
}

// spanParent is the enclosing span for detect/invoke spans: the current
// layer when layering is on, the evaluation root otherwise.
func (e *engine) spanParent() telemetry.SpanID {
	if e.spanLayer != nil {
		return e.spanLayer.ID()
	}
	return e.spanEval.ID()
}

// evaluate analyses the query and runs the round loop to the fixpoint: over
// the whole document for the naive fixpoint (Section 1), layer by layer
// (Section 4.3) for the lazy strategies. It reports whether the fixpoint was
// reached, false when the budget ran out first.
func (e *engine) evaluate() (bool, error) {
	if err := e.analyse(); err != nil {
		return false, err
	}
	if e.opt.Strategy == NaiveFixpoint {
		return e.loop(-1, nil)
	}
	for li, members := range e.p.layers {
		e.spanLayer = e.opt.Tracer.Start("layer", e.spanEval.ID())
		e.spanLayer.SetInt("layer", int64(li))
		e.spanLayer.SetInt("members", int64(len(members)))
		invokedBefore, virtBefore := e.stats.CallsInvoked, e.opt.Clock.Elapsed()
		complete, err := e.loop(li, members)
		// Per-layer pruned-vs-invoked accounting: invoked is the layer's
		// delta; skipped is what stayed pending when the layer settled —
		// calls visible to this layer's relevance analysis that it did
		// not invoke (a later layer may still take them; whatever is
		// left at the end of the evaluation was pruned outright).
		e.spanLayer.SetInt("invoked", int64(e.stats.CallsInvoked-invokedBefore))
		e.spanLayer.SetInt("skipped", int64(e.pendingCount()))
		e.spanLayer.AddVirtual(e.opt.Clock.Elapsed() - virtBefore)
		e.spanLayer.End()
		e.spanLayer = nil
		if err != nil || !complete {
			return false, err
		}
	}
	return true, nil
}

// analyse prepares the query unless an earlier run did. A lazy run then
// generates the first layer's relevance queries, all of it under the
// analysis span, and builds the guide it did not adopt; the naive fixpoint
// reads no relevance query.
func (e *engine) analyse() error {
	naive := e.opt.Strategy == NaiveFixpoint
	var span *telemetry.ActiveSpan
	if !naive {
		span = e.opt.Tracer.Start("analysis", e.spanEval.ID())
	}
	var err error
	if e.p == nil {
		t0 := time.Now()
		e.p, err = prepare(e.q, e.opt)
		e.stats.AnalysisTime += time.Since(t0)
	}
	if err != nil || naive {
		span.End()
		return err
	}
	first, err := e.queries(0)
	if err != nil {
		span.End()
		return err
	}
	span.SetInt("queries", int64(len(first)))
	span.SetInt("layers", int64(len(e.p.layers)))
	span.End()

	if e.opt.UseGuide && e.guide == nil {
		guideSpan := e.opt.Tracer.Start("guide-build", e.spanEval.ID())
		if keep := e.guideKeep(first); keep != nil {
			// Projection-aware construction: regions no relevance
			// query of this evaluation can match into are never
			// indexed, so the guide is proportional to the projected
			// document. Sound for exactly this query — such a guide
			// is engine-local and never handed back or persisted.
			e.guide = fguide.BuildFiltered(e.doc, keep)
			guideSpan.SetInt("filtered", 1)
		} else {
			e.guide = fguide.Build(e.doc)
		}
		e.met.guideBuilds.Inc()
		guideSpan.SetInt("paths", int64(e.guide.Paths()))
		guideSpan.End()
	}
	return nil
}

// loop is the one round loop, over layer li, or over the whole document for
// the naive fixpoint, which has no layers (li < 0). A round goes through four
// stages: detect picks the calls to invoke, plan applies the budget and
// schedules them, invoke runs them and apply splices what came back. A round
// that is not one batch is invoked one call at a time, each call charged in
// full. The loop ends when detect finds nothing to invoke, the fixpoint
// (true), or plan finds the budget spent with calls left to invoke (false).
func (e *engine) loop(li int, members []int) (bool, error) {
	for {
		if err := e.ctx.Err(); err != nil {
			return false, err
		}
		e.round++
		r, err := e.detect(li, members)
		if err != nil {
			return false, err
		}
		if len(r.calls) == 0 {
			return true, nil
		}
		if !e.plan(&r) {
			return false, nil
		}
		n := 1
		if r.batch {
			n = len(r.calls)
		}
		for i := 0; i < len(r.calls); i += n {
			calls, nfqs := r.calls[i:i+n], r.nfqs[i:i+n]
			inv := e.schedule(calls, nfqs)
			if err := e.apply(calls, nfqs, inv, e.invoke(inv)); err != nil {
				return false, err
			}
		}
	}
}

// apply takes an invocation's outcomes in member order — stats, invoke
// spans, give-ups and splices — and charges the clock its slowest member's
// full cost, retries and backoffs included (Section 4.4): for a single
// call, that call's cost. Every response that arrived is spliced before a
// failure is reported, so a mid-batch error — or the run's context ending
// mid-batch — never drops (or forgets to charge) one.
func (e *engine) apply(calls []*tree.Node, nfqs []*rewrite.NFQ, inv invocation, outs []outcome) error {
	var maxCost time.Duration
	var firstErr error
	for i, c := range calls {
		o, r := outs[i], inv.reqs[i]
		if o.meta.attempts == 0 {
			continue // the context ended before this member's turn
		}
		e.stats.Retries += o.meta.attempts - 1
		e.stats.DeadlineCuts += o.meta.cuts
		maxCost = max(maxCost, o.meta.cost)
		pushed := o.meta.err == nil && r.pushed != nil && o.resp.Pushed
		e.emitInvokeSpan(r, nfqs[i], o, len(calls), pushed)
		if o.meta.err != nil {
			if err := e.giveUp(c, r.path, o.meta); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.splice(c, o.resp, pushed)
	}
	e.opt.Clock.Advance(maxCost)
	e.stats.Rounds++
	// A context that ended mid-round ends the run, under either failure
	// policy and whatever else went wrong: nobody is waiting for the rest.
	if err := e.ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// giveUp handles a call whose attempts are exhausted: fail the
// evaluation (FailFast) or record the failure and park the call
// (BestEffort).
func (e *engine) giveUp(call *tree.Node, path string, meta callMeta) error {
	if e.opt.Failure == FailFast {
		return meta.err
	}
	e.stats.FailedCalls++
	e.failed[call] = true
	e.failures = append(e.failures, CallFailure{
		Service: call.Label, Path: path, Attempts: meta.attempts, Err: meta.err,
	})
	return nil
}

// splice replaces a call by its response in the document — the document
// itself, which records the splice for every evaluation over it, and the
// guide, done once, by the engine that invoked the call — brings this
// evaluation's counts and names up to date, and updates accounting.
func (e *engine) splice(call *tree.Node, resp service.Response, wasPushed bool) {
	s := e.doc.ReplaceCall(call, resp.Forest)
	if e.guide != nil {
		// The guide swaps the expanded call for the calls of the inserted
		// forest. An adopted guide is the caller's persistent index.
		e.guide.ApplyExpansion(s)
		if e.guide == e.opt.Guide {
			e.met.guidePatch.Inc()
		}
	}
	e.follow() // at was current before the splice, so its record is there
	e.stats.CallsInvoked++
	e.stats.BytesFetched += resp.Bytes
	if wasPushed {
		e.stats.PushedCalls++
	}
}
