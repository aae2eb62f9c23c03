package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/schema"
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
	var err error
	if e.opt.Strategy == NaiveFixpoint {
		if e.p == nil {
			e.p, err = prepare(e.q, e.opt)
		}
		if err == nil {
			err = e.runNaive()
		}
	} else {
		err = e.runLazy()
	}
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
		e.complete = cerr == nil && ok
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
	return &Outcome{Results: results, Complete: e.complete, Resumed: resumed, Unchanged: e.result.iev.Unchanged(),
		Failures: e.failures, Stats: e.stats}, nil
}

// engine is one run of an Evaluation.
type engine struct {
	*Evaluation
	ctx context.Context // the run's, from Run's caller
	reg *service.Registry
	opt Options

	stats    Stats
	complete bool

	guide *fguide.Guide
	// failed marks calls given up on under BestEffort; they are excluded
	// from relevance detection and naive fixpoint rounds so the
	// evaluation can terminate around them.
	failed   map[*tree.Node]bool
	failures []CallFailure
	// cur is the relevance-query set in use, fetched again when the layer
	// or the known names move on.
	cur struct {
		set                []*rewrite.NFQ
		layer, nameVersion int
	}
	// round is the sequential detection/invocation round counter,
	// stamped onto detect, plan and invoke spans (1-based within an
	// evaluation).
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

// budgetLeft reports how many more calls may be invoked.
func (e *engine) budgetLeft() int { return e.opt.MaxCalls - e.stats.CallsInvoked }

// runNaive is the strawman: invoke every call, recursively, to a
// fixpoint, then evaluate (Section 1).
func (e *engine) runNaive() error {
	for {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		calls := e.pendingCalls()
		if len(calls) == 0 {
			e.complete = true
			return nil
		}
		if e.budgetLeft() <= 0 {
			return nil
		}
		e.round++
		if len(calls) > e.budgetLeft() {
			calls = calls[:e.budgetLeft()]
		}
		// Naive invocations serve no relevance query: every member's
		// originating NFQ is nil.
		if err := e.invokeSet(calls, make([]*rewrite.NFQ, len(calls)), e.opt.Parallel); err != nil {
			return err
		}
	}
}

// invokeSet invokes a retrieved call set: as one batch charged its
// slowest member, or one call at a time, each charged in full.
func (e *engine) invokeSet(calls []*tree.Node, nfqs []*rewrite.NFQ, batch bool) error {
	if batch {
		return e.invoke(calls, nfqs)
	}
	for i := range calls {
		if err := e.invoke(calls[i:i+1], nfqs[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// runLazy is the NFQA loop of Section 4.1 with the optional layering of
// Section 4.3, parallelism of Section 4.4, typing of Section 5, guide and
// relaxation of Section 6, and pushing of Section 7.
func (e *engine) runLazy() error {
	analysisSpan := e.opt.Tracer.Start("analysis", e.spanEval.ID())
	var err error
	if e.p == nil {
		t0 := time.Now()
		e.p, err = prepare(e.q, e.opt)
		e.stats.AnalysisTime += time.Since(t0)
	}
	var first []*rewrite.NFQ
	if err == nil {
		first, err = e.queries(0)
	}
	if err != nil {
		analysisSpan.End()
		return err
	}
	analysisSpan.SetInt("queries", int64(len(first)))
	analysisSpan.SetInt("layers", int64(len(e.p.layers)))
	analysisSpan.End()

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

	for li, members := range e.p.layers {
		e.spanLayer = e.opt.Tracer.Start("layer", e.spanEval.ID())
		e.spanLayer.SetInt("layer", int64(li))
		e.spanLayer.SetInt("members", int64(len(members)))
		invokedBefore, virtBefore := e.stats.CallsInvoked, e.opt.Clock.Elapsed()
		err := e.drainLayer(li, members)
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
		if err != nil {
			return err
		}
		if e.budgetLeft() <= 0 {
			return nil
		}
	}
	e.complete = true
	return nil
}

// admitSpeculative applies the planner's latency-budget admission to a
// speculative batch. Deferred calls stay in the document as pending
// calls; the next round re-detects whatever is still relevant, so
// deferral reshapes the schedule without changing results. An invalid
// selection (empty, out of range, not strictly ascending) admits the
// whole batch — like an invalid plan, a buggy admission can only cost
// performance.
func (e *engine) admitSpeculative(pl InvocationPlanner, calls []*tree.Node, nfqs []*rewrite.NFQ) ([]*tree.Node, []*rewrite.NFQ) {
	pcs := make([]PlanCall, len(calls))
	for i, c := range calls {
		pcs[i] = PlanCall{Index: i, Service: c.Label}
	}
	keep := pl.AdmitSpeculative(pcs)
	if len(keep) == 0 || len(keep) >= len(calls) {
		return calls, nfqs
	}
	prev := -1
	for _, i := range keep {
		if i <= prev || i >= len(calls) {
			return calls, nfqs
		}
		prev = i
	}
	e.stats.SpeculativeDeferred += len(calls) - len(keep)
	nc := make([]*tree.Node, len(keep))
	nq := make([]*rewrite.NFQ, len(keep))
	for j, i := range keep {
		nc[j], nq[j] = calls[i], nfqs[i]
	}
	return nc, nq
}

// sortByDocOrder re-ranks parallel call/NFQ slices into document order.
func sortByDocOrder(calls []*tree.Node, nfqs []*rewrite.NFQ, doc *tree.Document) {
	pos := make(map[*tree.Node]int, len(calls))
	for i, c := range doc.Calls() {
		pos[c] = i
	}
	sort.Sort(&docOrderBatch{calls: calls, nfqs: nfqs, pos: pos})
}

type docOrderBatch struct {
	calls []*tree.Node
	nfqs  []*rewrite.NFQ
	pos   map[*tree.Node]int
}

func (b *docOrderBatch) Len() int           { return len(b.calls) }
func (b *docOrderBatch) Less(i, j int) bool { return b.pos[b.calls[i]] < b.pos[b.calls[j]] }
func (b *docOrderBatch) Swap(i, j int) {
	b.calls[i], b.calls[j] = b.calls[j], b.calls[i]
	b.nfqs[i], b.nfqs[j] = b.nfqs[j], b.nfqs[i]
}

// pendingCalls lists the document's calls minus those given up on.
func (e *engine) pendingCalls() []*tree.Node {
	calls := e.doc.Calls()
	if len(e.failed) == 0 {
		return calls
	}
	out := calls[:0]
	for _, c := range calls {
		if !e.failed[c] {
			out = append(out, c)
		}
	}
	return out
}

// pendingCount is len(pendingCalls()), from the maintained count: calls
// given up on stay in the document.
func (e *engine) pendingCount() int { return e.pending - len(e.failed) }

// drainLayer runs NFQA over the members of layer li until none of them
// retrieves a relevant call.
func (e *engine) drainLayer(li int, members []int) error {
	analysis := e.p.analysis
	for {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		if e.budgetLeft() <= 0 {
			return nil
		}
		e.round++
		// The query objects only change when the done set does (one set
		// per layer) or, for refined NFQs, when a previously unseen
		// service name enters the document.
		queries, err := e.queries(li)
		if err != nil {
			return err
		}
		progressed := false
		lpqBased := e.p.lpqBased()
		if e.opt.Speculative {
			// Gather every member NFQ's retrieved calls and fire them as
			// one batch. Calls can be retrieved by several NFQs; the
			// batch is deduplicated, and each call is pushed the
			// subquery of the first NFQ that retrieved it.
			seen := map[*tree.Node]bool{}
			var batchCalls []*tree.Node
			var batchNFQs []*rewrite.NFQ
			for mi, m := range members {
				nfq := queries[m]
				for _, c := range e.relevantCalls(nfq, mi) {
					if !seen[c] {
						seen[c] = true
						batchCalls = append(batchCalls, c)
						batchNFQs = append(batchNFQs, nfq)
					}
				}
			}
			if len(batchCalls) == 0 {
				return nil
			}
			if pl := e.opt.Planner; pl != nil && len(batchCalls) > 1 {
				batchCalls, batchNFQs = e.admitSpeculative(pl, batchCalls, batchNFQs)
			}
			if b := e.budgetLeft(); len(batchCalls) > b {
				// The batch is assembled in NFQ-retrieval order, which
				// depends on member iteration; a budget cut must not let
				// that ordering decide which calls are dropped. Re-rank
				// the batch by document order first, so the invoked
				// prefix is deterministic and the dropped calls are
				// exactly the document's trailing ones — like the
				// sequential MaxCalls cut, they stay pending in the
				// document and the evaluation reports Complete=false.
				sortByDocOrder(batchCalls, batchNFQs, e.doc)
				batchCalls = batchCalls[:b]
				batchNFQs = batchNFQs[:b]
			}
			if err := e.invoke(batchCalls, batchNFQs); err != nil {
				return err
			}
			continue
		}
		// Act on the first member whose relevant set is non-empty, then
		// re-detect: an invocation's result may have changed every NFQ's
		// relevant set (Section 4.1).
		for mi, m := range members {
			nfq := queries[m]
			calls := e.relevantCalls(nfq, mi)
			if len(calls) == 0 {
				continue
			}
			progressed = true
			if len(calls) > e.budgetLeft() {
				calls = calls[:e.budgetLeft()]
			}
			// An independent NFQ fires its retrieved set as one batch (✶,
			// Section 4.4). Otherwise the set is invoked one call at a
			// time, each charged in full: all of it for an LPQ — position
			// relevance cannot be invalidated by another invocation (an
			// LPQ has no conditions and the call stays at its position)
			// — but only the first call for an NFQ, whose relevant set
			// must be re-evaluated after every invocation.
			batch := e.opt.Parallel && (analysis == nil || analysis.Independent(m))
			if !batch && !lpqBased {
				calls = calls[:1]
			}
			nfqs := make([]*rewrite.NFQ, len(calls))
			for i := range nfqs {
				nfqs[i] = nfq
			}
			if err := e.invokeSet(calls, nfqs, batch); err != nil {
				return err
			}
			break
		}
		if !progressed {
			return nil
		}
	}
}

// queries returns the relevance queries for layer li under the names known
// now: the prepared query's memoised objects, so the evaluators kept for
// them — by this run or an earlier one — keep answering. Generating a set
// nobody has asked for yet is analysis work.
func (e *engine) queries(li int) ([]*rewrite.NFQ, error) {
	if e.cur.set == nil || e.cur.layer != li || e.cur.nameVersion != e.nameVersion {
		set, built, err := e.p.queries(li, e.names)
		if err != nil {
			return nil, err
		}
		e.stats.AnalysisTime += built
		e.cur.set, e.cur.layer, e.cur.nameVersion = set, li, e.nameVersion
	}
	return e.cur.set, nil
}

// newLiveQuery returns a fresh evaluator for q over the document as it
// stands: there is nothing in it for the recorded splices to evict.
func (e *engine) newLiveQuery(q *pattern.Pattern, proj *schema.Projection) *liveQuery {
	return &liveQuery{iev: pattern.NewIncrementalProjected(q, asProjector(proj)), seen: e.doc.Version()}
}

// evaluator returns the pattern evaluator that answers one relevance
// query — the only place the engine obtains one. Under
// Options.Incremental it lives as long as the query object, its memo and
// call view kept sound by the document's splice records, unless it falls
// further behind than the document keeps records; otherwise every detection
// gets a fresh one, the from-scratch reference the differentials compare
// against. Building its projection predicate is charged to analysis time.
func (e *engine) evaluator(nfq *rewrite.NFQ) *liveQuery {
	if lq := e.relevance[nfq]; lq != nil && e.follows(lq) {
		return lq
	}
	proj, built := e.p.projection(nfq)
	e.stats.AnalysisTime += built
	lq := e.newLiveQuery(nfq.Query, proj)
	if e.opt.Incremental {
		e.relevance[nfq] = lq
	}
	return lq
}

// asProjector adapts a projection for the pattern evaluator: a nil or
// trivial (nothing-prunable) predicate becomes a nil interface so the
// evaluator skips the per-node check entirely.
func asProjector(p *schema.Projection) pattern.Projector {
	if p == nil || p.Trivial() {
		return nil
	}
	return p
}

// guideKeep derives the label filter for projection-aware guide
// construction: keep a label exactly when at least one relevance query
// of this evaluation could match inside elements carrying it (the
// disjunction of the per-NFQ projections — the guide serves every NFQ,
// so only a region dead for all of them may go unindexed; a call the
// filter drops could never survive detect's MatchCall validation). Returns
// nil (index everything) without typed projection, or when any query's
// projection is absent or trivial and filtering could lose candidates
// or buy nothing. base is the first layer's query set under the names
// known at the start: the relevance queries of later layers only drop
// branches of it, so its projections stay sound for the whole evaluation.
func (e *engine) guideKeep(base []*rewrite.NFQ) func(string) bool {
	if e.p.userProj == nil {
		return nil
	}
	projs := make([]*schema.Projection, 0, len(base))
	for _, nfq := range base {
		p, built := e.p.projection(nfq)
		e.stats.AnalysisTime += built
		if p.Trivial() {
			return nil
		}
		projs = append(projs, p)
	}
	if len(projs) == 0 {
		return nil
	}
	return func(label string) bool {
		for _, p := range projs {
			if p.CanMatchAnyBelow(label) {
				return true
			}
		}
		return false
	}
}

// detect retrieves the calls currently relevant for one NFQ through its
// evaluator: by evaluating the query on the document, or — with an
// F-guide — by validating the guide's candidates for the linear part
// against the remaining conditions (Section 6.2; each check only explores
// the candidate's own ancestors' subtrees, and the evaluator's memo shares
// condition checks across candidates). The guided answer is a maintained
// view: the evaluator is offered the guide's candidates once and after
// that only the calls the splices since brought in, and re-checks
// nothing a splice cannot have changed — on a fresh evaluator that is
// every candidate, every detection. Type pruning on the output side
// (Section 5) and parked calls filter the answer as it is read, and both
// paths charge their match work to the stats. queried reports whether a
// relevance query actually ran (the guide can rule every candidate out
// first).
func (e *engine) detect(nfq *rewrite.NFQ, lq *liveQuery) (calls []*tree.Node, queried bool) {
	var matched []*tree.Node
	var work pattern.Stats
	e.absorb(lq)
	if e.guide != nil {
		if !e.guide.HasCandidates(nfq.Lin, nfq.DescTail) {
			return nil, false
		}
		var more []*tree.Node
		if !lq.seeded {
			more = e.guide.Candidates(nfq.Lin, nfq.DescTail)
		} else {
			ss, _ := e.doc.SplicesSince(lq.offered) // evaluator() saw to it
			for _, s := range ss {
				more = append(more, s.Calls...)
			}
		}
		lq.offered, lq.seeded = e.doc.Version(), true
		matched, work = lq.iev.MatchedCandidates(e.doc, nfq.Out, more)
	} else {
		matched, work = lq.iev.MatchedCallsIncremental(e.doc, nfq.Out)
	}
	for _, c := range matched {
		if !e.failed[c] && nfq.SatisfiesOut(e.p.an, c.Label) {
			calls = append(calls, c)
		}
	}
	e.stats.NodesVisited += work.NodesVisited
	e.stats.MemoHits += work.MemoHits
	e.stats.SubtreesPruned += work.SubtreesPruned
	e.stats.GuideCandidates += work.Validated
	e.stats.Revalidated += work.Revalidated
	return calls, true
}

// relevantCalls runs one relevance detection: it charges detection time,
// counts the query and emits the detect span. shard is the member's slot
// in the current layer.
func (e *engine) relevantCalls(nfq *rewrite.NFQ, shard int) []*tree.Node {
	// Building the evaluator and its projection predicate is analysis
	// work, so it happens outside the detection-time window.
	lq := e.evaluator(nfq)
	t0 := time.Now()
	calls, queried := e.detect(nfq, lq)
	elapsed := time.Since(t0)
	e.stats.DetectTime += elapsed
	if !queried {
		return calls
	}
	e.stats.RelevanceQueries++
	e.met.detectSecs.Observe(elapsed)
	if e.opt.Tracer != nil {
		e.opt.Tracer.Emit(telemetry.Span{
			Parent: e.spanParent(),
			Name:   "detect",
			Shard:  shard,
			Start:  t0,
			Wall:   elapsed,
			Attrs: []telemetry.Attr{
				{Key: "round", Value: strconv.Itoa(e.round)},
				{Key: "target", Value: traceTarget(nfq)},
				{Key: "calls", Value: strconv.Itoa(len(calls))},
			},
		})
	}
	return calls
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

// invokeAttempts runs the retry loop for one call. It mutates no engine
// state (safe to run concurrently for a batch); the caller applies the
// response, charges the clock and updates stats afterwards.
func (e *engine) invokeAttempts(call *tree.Node, pushed *pattern.Pattern) (service.Response, callMeta) {
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
	// under the enclosing layer/evaluate span and may return their span
	// subtree (Options.RemoteSpans). With no trace ID set the context
	// is the run's own and the wire envelope is byte-identical to untraced
	// runs.
	ctx := e.ctx
	if id := e.opt.Tracer.Trace(); id != "" {
		ctx = telemetry.WithTrace(ctx, telemetry.TraceContext{
			TraceID:  id,
			Parent:   e.spanParent(),
			MaxSpans: e.opt.RemoteSpans,
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
			meta.cost += policy.backoffBefore(meta.attempts, int(call.ID))
		}
		resp, err := e.reg.InvokeContext(ctx, call.Label, tree.CloneForest(call.Children), pushed)
		if err == nil {
			if policy.Deadline > 0 && resp.Latency > policy.Deadline {
				// The provider answered, but past the deadline: the
				// engine stopped waiting at the cutoff, so the attempt
				// costs exactly the deadline and the answer is lost.
				meta.cost += policy.Deadline
				meta.cuts++
				err = &service.Fault{
					Service: call.Label, Class: service.Timeout, Latency: policy.Deadline,
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

// emitInvokeSpan records one call's full attempt sequence as a span and
// feeds the invocation histograms. worker is the invocation-pool worker
// the attempt sequence ran on; batch is the size of the batch the call
// was a member of, stamped on members of multi-call batches only.
// remote is the provider-side span subtree returned in the response
// envelope; it is grafted under the invoke span. A retried call
// additionally gets one "attempt" child span per attempt, so retry
// storms are visible in the explain tree (single-attempt calls emit no
// children, keeping fault-free trace streams unchanged).
func (e *engine) emitInvokeSpan(call *tree.Node, nfq *rewrite.NFQ, path string, worker, batch int, start time.Time, wall time.Duration, meta callMeta, pushed bool, remote []telemetry.Span) {
	e.met.invokeWall.Observe(wall)
	e.met.invokeVirt.Observe(meta.cost)
	if e.opt.Tracer == nil {
		return
	}
	s := telemetry.Span{
		Parent:  e.spanParent(),
		Name:    "invoke",
		Worker:  worker,
		Start:   start,
		Wall:    wall,
		Virtual: meta.cost,
		Attrs: []telemetry.Attr{
			{Key: "round", Value: strconv.Itoa(e.round)},
			{Key: "service", Value: call.Label},
			{Key: "path", Value: path},
		},
	}
	if t := traceTarget(nfq); t != "" {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "target", Value: t})
	}
	if batch > 1 {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "batch", Value: strconv.Itoa(batch)})
	}
	if pushed {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "pushed", Value: "true"})
	}
	if meta.attempts > 1 {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "attempts", Value: strconv.Itoa(meta.attempts)})
	}
	if meta.err != nil {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "error", Value: meta.err.Error()})
	}
	id := e.opt.Tracer.Emit(s)
	if meta.attempts > 1 {
		for i, a := range meta.attemptLog {
			status := a.class
			if status == "" {
				status = "ok"
			}
			e.opt.Tracer.Emit(telemetry.Span{
				Parent:  id,
				Name:    "attempt",
				Worker:  worker,
				Start:   start,
				Virtual: a.cost,
				Attrs: []telemetry.Attr{
					{Key: "attempt", Value: strconv.Itoa(i + 1)},
					{Key: "status", Value: status},
				},
			})
		}
	}
	e.opt.Tracer.GraftRemote(id, remote)
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

// invoke runs one invocation round over calls, nfqs[i] being the NFQ
// that retrieved calls[i] (nil for naive invocations), so each call is
// pushed the subquery it was retrieved for. Every member runs its own
// retry loop and the round is charged its slowest member's full cost,
// retries and backoffs included (Section 4.4) — for a single call, that
// call's cost. All completed members are applied before any failure is
// reported, so a mid-batch error — or the run's context ending mid-batch —
// never drops (or forgets to charge) responses that already arrived.
func (e *engine) invoke(calls []*tree.Node, nfqs []*rewrite.NFQ) error {
	type result struct {
		resp   service.Response
		meta   callMeta
		pushed bool
		start  time.Time
		wall   time.Duration
	}
	n := len(calls)
	results := make([]result, n)
	pushes := make([]*pattern.Pattern, n)
	paths := make([]string, n)
	for i, c := range calls {
		pushes[i] = e.pushFor(nfqs[i], c.Label)
		paths[i] = tracePath(c)
	}
	// queues[w] is worker w's run list, walked sequentially. A single
	// call is one queue of one: there is nothing to schedule, so it is
	// never shown to the planner.
	queues := [][]int{{0}}
	if n > 1 {
		// Bounded invocation pool: member i runs on worker i mod W, so
		// the member→worker assignment — and the Worker stamped onto
		// each invoke span — is deterministic for a given batch
		// regardless of goroutine scheduling. W <= 0 means one worker
		// per member; W == 1 is a sequential walk.
		workers := e.opt.InvokeWorkers
		if workers <= 0 || workers > n {
			workers = n
		}
		queues = make([][]int, workers)
		for i := range calls {
			queues[i%workers] = append(queues[i%workers], i)
		}
		// A planner may regroup members across workers and shrink the
		// pool, nothing more: responses are still applied in member
		// order after the pool drains and the batch is still charged
		// its slowest member, so an accepted plan changes wall-clock
		// shape only. A plan that is not an exact permutation of the
		// batch within the width bound is discarded in favour of the
		// striped schedule.
		if pl := e.opt.Planner; pl != nil {
			planStart := time.Now()
			bp := pl.PlanBatch(planCalls(calls, pushes), workers)
			planWall := time.Since(planStart)
			if bp.Width >= 1 && bp.Width <= workers && len(bp.Queues) == bp.Width && validQueues(bp.Queues, n) {
				queues = bp.Queues
			}
			e.emitPlanSpan(bp, n, len(queues), planStart, planWall)
		}
	}
	workerOf := make([]int, n)
	for w, q := range queues {
		for _, i := range q {
			workerOf[i] = w
		}
	}
	// Each worker writes only its own members' slots; the coordinator
	// below applies responses in member (document) order after the pool
	// drains, so results, spans and virtual-clock stats are identical
	// for every pool width. One queue runs on the calling goroutine.
	runQueue := func(q []int) {
		for _, i := range q {
			start := time.Now()
			resp, meta := e.invokeAttempts(calls[i], pushes[i])
			results[i] = result{resp, meta, pushes[i] != nil && resp.Pushed, start, time.Since(start)}
		}
	}
	if len(queues) == 1 {
		runQueue(queues[0])
	} else {
		var wg sync.WaitGroup
		for _, q := range queues {
			wg.Add(1)
			go func(q []int) {
				defer wg.Done()
				runQueue(q)
			}(q)
		}
		wg.Wait()
	}
	var maxCost time.Duration
	var firstErr error
	for i, c := range calls {
		r := results[i]
		if r.meta.attempts == 0 {
			continue // the context ended before this member's turn
		}
		e.stats.Retries += r.meta.attempts - 1
		e.stats.DeadlineCuts += r.meta.cuts
		if r.meta.cost > maxCost {
			maxCost = r.meta.cost
		}
		e.emitInvokeSpan(c, nfqs[i], paths[i], workerOf[i], n, r.start, r.wall, r.meta, r.meta.err == nil && r.pushed, r.resp.RemoteTrace)
		if r.meta.err != nil {
			if err := e.giveUp(c, paths[i], r.meta); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.apply(c, r.resp, r.pushed)
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

// apply splices a response into the document — the document itself, which
// records the splice for every evaluation over it, and the guide, done once,
// by the engine that invoked the call — brings this evaluation's counts and
// names up to date, and updates accounting.
func (e *engine) apply(call *tree.Node, resp service.Response, wasPushed bool) {
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
