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
// document.
//
// What is kept: the known service names, and the persistent evaluator of
// every live relevance query with its memo and call view
// (Options.Incremental) plus one for the user query itself; the node and
// call counts are the document's (tree.Document.Size, Pending). The
// evaluation and each evaluator hold a cursor into the document's splice
// records (tree.Document.SplicesSince) and read the records past it when
// next asked, whoever made the splices. The lifetime
// invariant of doc/PERF.md §1 holds for it: an evaluator never outlives the
// query object it answers for — a new service name regenerates the refined
// NFQs and drops their evaluators, here as inside a run. A run that fails,
// gives up on a call or ends incomplete drops everything; a cursor the
// records no longer reach back to (a mutation other than a splice, or more
// splices than the document keeps) sends its holder — the evaluation, or
// one evaluator — back to the document.
//
// An Evaluation is not safe for concurrent use. Its runs may overlap with
// the runs of other evaluations that share its document's Shared
// (Prepared.OverShared): a run holds the document only to read or splice
// it, and reads the others' splices when it next holds it. Anything else
// that mutates the document holds the Shared's lock for writing.
type Evaluation struct {
	q   *pattern.Pattern
	p   *Prepared // nil until the first run prepares the query
	doc *tree.Document
	sh  *Shared // doc's lock and claims; the first run makes one when none was handed over

	// live reports that the fields below describe doc as of version at.
	live bool
	at   uint64

	names map[string]bool // service names seen in the document
	// nameVersion increments whenever a previously unseen service name
	// enters the document; refined NFQs must then be regenerated with
	// the enriched name list (Section 5, "the refined NFQs are enriched
	// accordingly").
	nameVersion int

	// relevance holds the persistent evaluator of each live relevance query
	// (Options.Incremental; empty otherwise), result the user query's.
	relevance map[*rewrite.NFQ]*liveQuery
	result    *liveQuery
}

// liveQuery is a pattern evaluator over the evaluation's document with its
// cursor: the version up to which it has absorbed the splices (seen). Once
// its call view is seeded with the guide's candidates, the same splices feed
// it the calls they brought in.
type liveQuery struct {
	iev    *pattern.IncrementalEvaluator
	seen   uint64
	seeded bool
}

// Live reports whether the evaluation holds state a next Run would resume
// from.
func (ev *Evaluation) Live() bool { return ev.live }

// Rows returns the rows the evaluation's pattern evaluators keep in their
// memos (pattern.IncrementalEvaluator.Rows): what holding it resident costs.
func (ev *Evaluation) Rows() int {
	n := 0
	if ev.result != nil {
		n += ev.result.iev.Rows()
	}
	for _, lq := range ev.relevance {
		n += lq.iev.Rows()
	}
	return n
}

// seed learns the document from scratch: the service names its calls name
// now, which the document counts.
func (ev *Evaluation) seed() {
	*ev = Evaluation{q: ev.q, p: ev.p, doc: ev.doc, sh: ev.sh, live: true, at: ev.doc.Version(),
		names: map[string]bool{}, relevance: map[*rewrite.NFQ]*liveQuery{}}
	ev.doc.EachService(func(name string) { ev.names[name] = true })
}

// drop forgets everything but the query.
func (ev *Evaluation) drop() {
	*ev = Evaluation{q: ev.q, p: ev.p, doc: ev.doc, sh: ev.sh}
}

// follow brings the names up to the document's version from the splice
// records since at, costing the records' length. It reports false,
// changing nothing, when the document cannot say what happened since at.
func (ev *Evaluation) follow() bool {
	ss, ok := ev.doc.SplicesSince(ev.at)
	if !ok {
		return false
	}
	for _, s := range ss {
		for _, c := range s.Calls {
			ev.noteService(c.Label)
		}
		for _, c := range s.Nested {
			ev.noteService(c.Label)
		}
	}
	ev.at = ev.doc.Version()
	return true
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

// follows reports whether the document still keeps every splice lq has not
// absorbed. An evaluator that fell further behind is replaced by a fresh one.
func (ev *Evaluation) follows(lq *liveQuery) bool {
	_, ok := ev.doc.SplicesSince(lq.seen)
	return ok
}

// absorb brings one evaluator that follows the document up to date: every
// splice it has not seen evicts what that splice can have changed — the
// memo entries of the removed call subtree and of the root-to-parent spine,
// the removed call's place in the view and the verdicts that hang on that
// spine — and keeps everything off the spine (solutions depend only on the
// keyed node's subtree). A seeded call view is owed the calls those splices
// brought in: absorb returns them, and nothing for any other evaluator.
func (ev *Evaluation) absorb(lq *liveQuery) (arrived []*tree.Node) {
	ss, _ := ev.doc.SplicesSince(lq.seen)
	for _, s := range ss {
		lq.iev.Invalidate(s.Parent, s.Removed)
		if lq.seeded {
			arrived = append(arrived, s.Calls...)
		}
	}
	lq.seen = ev.doc.Version()
	return arrived
}
