package core

import (
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/tree"
)

// Evaluation is one query's engine state over one document: what a run
// learns about the document and would otherwise throw away. Run evaluates
// the query; when a run ends with the document complete for it, the state
// stays, and the next Run resumes from it instead of starting from the
// document — provided every mutation of the document in between was either
// made by this evaluation's own runs or reported through Spliced.
//
// What is kept: the known service names, the pending-call count and the
// document size (exact, maintained from the splice deltas), the persistent
// evaluator of every live relevance query with its memo and call view
// (Options.Incremental), one more evaluator for the user query itself, and
// the feed of splices those evaluators have not absorbed yet. The lifetime
// invariant of doc/PERF.md §1 holds for it: an evaluator never outlives the
// query object it answers for — a new service name regenerates the refined
// NFQs and drops their evaluators, here as inside a run. A run that fails,
// gives up on a call or ends incomplete drops everything, and so does a
// document that moved without this evaluation being told.
//
// An Evaluation is not safe for concurrent use, and Run and Spliced must
// not overlap with anything else that mutates the document.
type Evaluation struct {
	q   *pattern.Pattern
	p   *Prepared // nil until the first run prepares the query
	doc *tree.Document

	// live reports that the fields below describe doc as of version at.
	live bool
	at   uint64

	names map[string]bool // service names seen in the document
	// nameVersion increments whenever a previously unseen service name
	// enters the document; refined NFQs must then be regenerated with
	// the enriched name list (Section 5, "the refined NFQs are enriched
	// accordingly").
	nameVersion int
	pending     int // function nodes in the document, parameters included
	size        int // nodes in the document

	// relevance holds the persistent evaluator of each live relevance query
	// (Options.Incremental; empty otherwise), result the user query's.
	relevance map[*rewrite.NFQ]*liveQuery
	result    *liveQuery
	// log is the splice feed: every mutation since the oldest one some
	// evaluator has not absorbed, in order. indexed lists the calls those
	// splices brought into the document outside other calls' parameters —
	// what the guide's upkeep indexed, the insert feed of the call views.
	log     []splice
	indexed []*tree.Node
}

// splice is one logged document mutation: the call subtree rooted at
// removed was detached from parent and a response forest put in its place.
type splice struct{ parent, removed *tree.Node }

// liveQuery is a pattern evaluator over the evaluation's document together
// with how much of the feed it has absorbed: seen splices of the log, and
// offered calls of indexed — -1 before its call view is seeded with the
// guide's candidates.
type liveQuery struct {
	iev     *pattern.IncrementalEvaluator
	seen    int
	offered int
}

// Live reports whether the evaluation holds state a next Run would resume
// from.
func (ev *Evaluation) Live() bool { return ev.live }

// seed learns the document from scratch, in one walk.
func (ev *Evaluation) seed() {
	*ev = Evaluation{q: ev.q, p: ev.p, doc: ev.doc, live: true, at: ev.doc.Version(),
		names: map[string]bool{}, relevance: map[*rewrite.NFQ]*liveQuery{}}
	ev.doc.Root.Walk(func(n *tree.Node) bool {
		ev.size++
		if n.Kind == tree.Call {
			ev.pending++
			ev.names[n.Label] = true
		}
		return true
	})
}

// drop forgets everything but the query.
func (ev *Evaluation) drop() {
	*ev = Evaluation{q: ev.q, p: ev.p, doc: ev.doc}
}

// Spliced reports one mutation of the document made by someone else — an
// evaluation of another query over the same document (Options.OnMutate
// hands out exactly these arguments): the call subtree rooted at removed
// was detached from parent and the inserted forest spliced in its place.
// It is the upkeep half of what the engine does on its own splices and
// costs the size of the delta: counts and names are brought up to date, the
// splice joins the feed, and each evaluator absorbs it when it is next
// asked.
func (ev *Evaluation) Spliced(parent, removed *tree.Node, inserted []*tree.Node) {
	if !ev.live {
		return
	}
	removed.Walk(func(n *tree.Node) bool {
		ev.size--
		if n.Kind == tree.Call {
			ev.pending--
		}
		return true
	})
	var walk func(n *tree.Node, param bool)
	walk = func(n *tree.Node, param bool) {
		ev.size++
		if n.Kind == tree.Call {
			ev.pending++
			ev.noteService(n.Label)
			// Calls inside another call's parameters are visible to no
			// relevance query before that call is expanded, and then they
			// are gone.
			if !param {
				ev.indexed = append(ev.indexed, n)
			}
			param = true
		}
		for _, c := range n.Children {
			walk(c, param)
		}
	}
	for _, n := range inserted {
		walk(n, false)
	}
	ev.log = append(ev.log, splice{parent, removed})
	ev.at = ev.doc.Version()
}

// noteService records a service name seen in the document. A new one makes
// the refined NFQs due for regeneration, and the evaluators of the old
// query objects go with them.
func (ev *Evaluation) noteService(name string) {
	if !ev.names[name] {
		ev.names[name] = true
		ev.nameVersion++
		if ev.p.an != nil {
			ev.relevance = map[*rewrite.NFQ]*liveQuery{}
		}
	}
}

// absorb brings one evaluator up to date with the feed: every logged
// splice it has not seen evicts what that splice can have changed — the
// memo entries of the removed call subtree and of the root-to-parent spine,
// the removed call's place in the view and the verdicts that hang on that
// spine — and keeps everything off the spine (solutions depend only on the
// keyed node's subtree).
func (ev *Evaluation) absorb(lq *liveQuery) {
	for _, s := range ev.log[lq.seen:] {
		lq.iev.Invalidate(s.parent, s.removed)
	}
	lq.seen = len(ev.log)
}

// trim cuts the feed down to what some kept evaluator still has to absorb.
func (ev *Evaluation) trim() {
	seen, offered := ev.result.seen, len(ev.indexed)
	for _, lq := range ev.relevance {
		seen = min(seen, lq.seen)
		if lq.offered >= 0 {
			offered = min(offered, lq.offered)
		}
	}
	ev.log = append(ev.log[:0:0], ev.log[seen:]...)
	ev.indexed = append(ev.indexed[:0:0], ev.indexed[offered:]...)
	ev.result.seen -= seen
	for _, lq := range ev.relevance {
		lq.seen -= seen
		if lq.offered >= 0 {
			lq.offered -= offered
		}
	}
}
