package core

import (
	"strconv"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// round is what detect picks for the other stages: the calls to invoke, the
// NFQ that retrieved each (nil for naive), and whether they go as one batch.
type round struct {
	calls []*tree.Node
	nfqs  []*rewrite.NFQ
	batch bool
}

// detect picks the next round under the strategy's selection rule: every
// pending call for the naive fixpoint, which has no layers (li < 0); the
// first relevant member's calls for NFQA over layer li (Section 4.1); the
// union of the members' calls for speculative batches (Section 4.4). An
// empty round is the fixpoint.
func (e *engine) detect(li int, members []int) (round, error) {
	if li < 0 {
		// Naive invocations serve no relevance query: every NFQ is nil.
		calls := e.pendingCalls()
		return round{calls, make([]*rewrite.NFQ, len(calls)), e.opt.Parallel}, nil
	}
	// The query objects only change when the done set does (one set per
	// layer) or, for refined NFQs, when a previously unseen service name
	// enters the document.
	queries, err := e.queries(li)
	if err != nil {
		return round{}, err
	}
	if e.opt.Speculative {
		return e.union(queries, members), nil
	}
	return e.firstRelevant(queries, members), nil
}

// firstRelevant is NFQA's rule: the calls of the first member whose relevant
// set is non-empty — an invocation's result may change every NFQ's relevant
// set, so the next round detects again. An independent NFQ fires its set as
// one batch (✶, Section 4.4). Otherwise the set is invoked one call at a
// time: all of it for an LPQ — position relevance cannot be invalidated by
// another invocation (an LPQ has no conditions and the call stays at its
// position) — but only the first call for an NFQ, whose relevant set must be
// re-evaluated after every invocation.
func (e *engine) firstRelevant(queries []*rewrite.NFQ, members []int) round {
	for mi, m := range members {
		nfq := queries[m]
		calls := e.relevantCalls(nfq, mi)
		if len(calls) == 0 {
			continue
		}
		batch := e.opt.Parallel && (e.p.analysis == nil || e.p.analysis.Independent(m))
		if !batch && !e.p.lpqBased() {
			calls = calls[:1]
		}
		nfqs := make([]*rewrite.NFQ, len(calls))
		for i := range nfqs {
			nfqs[i] = nfq
		}
		return round{calls, nfqs, batch}
	}
	return round{}
}

// union is the speculative rule: every member's retrieved calls as one
// batch, deduplicated, each call pushed the subquery of the first NFQ that
// retrieved it.
func (e *engine) union(queries []*rewrite.NFQ, members []int) round {
	r := round{batch: true}
	seen := map[*tree.Node]bool{}
	for mi, m := range members {
		for _, c := range e.relevantCalls(queries[m], mi) {
			if !seen[c] {
				seen[c] = true
				r.calls = append(r.calls, c)
				r.nfqs = append(r.nfqs, queries[m])
			}
		}
	}
	return r
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

// pendingCount is len(pendingCalls()), from the document's count: calls
// given up on stay in the document.
func (e *engine) pendingCount() int { return e.doc.Pending() - len(e.failed) }

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

// newLiveQuery returns a fresh evaluator for q, its parameters bound to
// args, over the document as it stands: there is nothing in it for the
// recorded splices to evict.
func (e *engine) newLiveQuery(q *pattern.Pattern, args []string, proj *schema.Projection) *liveQuery {
	return &liveQuery{iev: pattern.NewIncrementalBound(q, args, asProjector(proj)), seen: e.doc.Version()}
}

// evaluator returns the pattern evaluator that answers one relevance
// query — the only place the engine obtains one. Under
// Options.Incremental it lives as long as the query object, its memo and
// call view kept sound by the document's splice records, unless it falls
// further behind than the document keeps records; otherwise every detection
// gets a fresh one, the from-scratch reference the differentials compare
// against. The query object is the shape's: the evaluator reads its
// parameters as the text's arguments. Building its projection predicate is
// charged to analysis time.
func (e *engine) evaluator(nfq *rewrite.NFQ) *liveQuery {
	// Only guided detections feed a seeded view: a guideless run starts afresh.
	if lq := e.relevance[nfq]; lq != nil && e.follows(lq) && (e.guide != nil || !lq.seeded) {
		return lq
	}
	proj, built := e.p.projection(nfq)
	e.stats.AnalysisTime += built
	lq := e.newLiveQuery(nfq.Query, e.p.args, proj)
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
// filter drops could never survive retrieve's MatchedCandidates
// validation).
// Returns nil (index everything) without typed projection, or when any
// query's projection is absent or trivial and filtering could lose
// candidates or buy nothing. base is the first layer's query set under the
// names known at the start: the relevance queries of later layers only drop
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

// retrieve returns the calls currently relevant for one NFQ through its
// evaluator: by evaluating the query on the document, or — with an
// F-guide — by validating the guide's candidates for the linear part
// against the remaining conditions (Section 6.2; each check only explores
// the candidate's own ancestors' subtrees, and the evaluator's memo shares
// condition checks across candidates). The guided answer is a maintained
// view: the evaluator is offered candidates once and after that only the
// calls the splices it absorbs brought in, and re-checks nothing a splice
// cannot have changed — on a fresh evaluator that is every candidate
// offered, every detection. On a guide the run adopted, the first offer is
// probed (pattern.IncrementalEvaluator.Anchored): only the candidates below
// the anchors whose ground conditions can still hold. Type pruning on the
// output side (Section 5) and parked calls filter the answer as it is
// read, and both paths charge their match work to the stats. queried
// reports whether a relevance query actually ran (the guide can rule every
// candidate out first); anchors, what a probed first offer kept.
func (e *engine) retrieve(nfq *rewrite.NFQ, lq *liveQuery) (calls []*tree.Node, queried bool, anchors probed) {
	var matched []*tree.Node
	var work pattern.Stats
	more := e.absorb(lq)
	if e.guide != nil {
		if !e.guide.HasCandidates(nfq.Lin, nfq.DescTail) {
			// No call lies on the linear path, the calls just absorbed
			// included, nor ever will: a fresh view gets none of them either.
			return nil, false, anchors
		}
		if !lq.seeded {
			ok := false
			if e.adopted {
				more, anchors.kept, anchors.of, ok = lq.iev.Anchored(e.doc, nfq.Out)
			}
			if !ok {
				more = e.guide.Candidates(nfq.Lin, nfq.DescTail)
			}
			lq.seeded = true
		}
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
	return calls, true, anchors
}

// probed counts what a probe kept: kept of the of anchors. of is 0 when no
// probe ran.
type probed struct{ kept, of int }

// String is the anchors attribute of a span: "<kept>/<of>".
func (p probed) String() string { return strconv.Itoa(p.kept) + "/" + strconv.Itoa(p.of) }

// relevantCalls runs one relevance detection: it charges detection time,
// counts the query and emits the detect span. shard is the member's slot
// in the current layer.
func (e *engine) relevantCalls(nfq *rewrite.NFQ, shard int) []*tree.Node {
	// Building the evaluator and its projection predicate is analysis
	// work, so it happens outside the detection-time window.
	lq := e.evaluator(nfq)
	t0 := time.Now()
	calls, queried, anchors := e.retrieve(nfq, lq)
	elapsed := time.Since(t0)
	e.stats.DetectTime += elapsed
	if !queried {
		return calls
	}
	e.stats.RelevanceQueries++
	e.met.detectSecs.Observe(elapsed)
	if e.opt.Tracer != nil {
		attrs := []telemetry.Attr{
			{Key: "round", Value: strconv.Itoa(e.round)},
			{Key: "target", Value: e.traceTarget(nfq)},
			{Key: "calls", Value: strconv.Itoa(len(calls))},
		}
		if anchors.of > 0 {
			attrs = append(attrs, telemetry.Attr{Key: "anchors", Value: anchors.String()})
		}
		e.opt.Tracer.Emit(telemetry.Span{
			Parent: e.spanParent(),
			Name:   "detect",
			Shard:  shard,
			Start:  t0,
			Wall:   elapsed,
			Attrs:  attrs,
		})
	}
	return calls
}

// traceTarget labels the text's node an NFQ was generated for.
func (e *engine) traceTarget(nfq *rewrite.NFQ) string {
	if nfq == nil {
		return ""
	}
	return nfq.TargetLabel(e.q)
}
