package pattern

import (
	"github.com/activexml/axml/internal/tree"
)

// IncrementalEvaluator is the package's one pattern evaluator: it holds
// the memo table of (query node, document node) matches, the projection
// predicate and the per-query caches, and answers both whole-document
// evaluation (EvalIncremental, MatchedCallsIncremental) and per-candidate
// validation (MatchCall) off that same table. Used once and dropped it is
// the from-scratch evaluation behind Eval and MatchedCalls; kept alive it
// evaluates one pattern repeatedly over a document that changes a little
// between evaluations — the shape of the engine's NFQA loop, where every
// round replaces a single call by its result and then re-asks every
// relevance query. A fresh evaluator recomputes every match each round,
// so the cost of a round grows with the document; a kept one, on each
// replacement, evicts only the entries the mutation can have changed.
//
// The invalidation rule exploits the locality of the memo: the solutions
// for (v, n) depend only on v's subtree and n's subtree (match never
// looks above n). Replacing the subtree rooted at a call c therefore
// invalidates exactly
//
//   - the entries of every node inside the removed subtree (those
//     document nodes are gone), and
//   - the entries of every ancestor of c — the root-to-c spine — whose
//     subtrees now contain the spliced-in result instead of the call.
//
// Every other entry keys a node whose subtree is untouched and stays
// valid. A round's re-evaluation then recomputes O(spine + inserted
// region) matches instead of O(document).
//
// The verdicts of MatchedCandidates follow the same locality one level up.
// A verdict is decided by the target's ancestor labels, which never
// change, and by the off-spine joins MatchCall ran at some of those
// ancestors; a join at ancestor a reads only memo entries inside a's
// subtree. The verdict's dependency root is the shallowest ancestor at
// which a non-empty join ran — the root element when the anchor itself has
// off-spine branches, none for a purely linear query. A splice below
// parent can change the verdict only if it changes one of those joins,
// i.e. only if one of the consulted ancestors lies on the root-to-parent
// spine, and then so does the shallowest of them. So the view files each
// verdict under its dependency root, and Invalidate marks for re-checking
// exactly the verdicts filed on the spine it already walks; all others,
// and all verdicts without a root, stay as they are. The rule errs only on
// the side of re-checking: a value join that reaches across branches makes
// the joined branches hang off a shallower spine node, whose verdicts are
// then re-checked by every splice below it (Stats.Revalidated counts
// them).
//
// The evaluator is not safe for concurrent use; the engine keeps one
// evaluator per relevance query.
type IncrementalEvaluator struct {
	q      *Pattern
	memo   map[memoKey]*memoEntry
	fps    map[int]string       // query node ID → pushed-subquery fingerprint
	order  map[int][]*Node      // query node ID → cost-ordered children
	spines map[*Node]*spinePath // output node → its anchor→output spine (MatchCall)
	proj   Projector            // nil: no document projection

	work      Stats // match work since the last takeStats
	consulted int   // matchChain: shallowest ancestor position a join ran at so far
	evictions int
}

// NewIncrementalProjected returns an evaluator for q under a document
// projection: every evaluation prunes descendant walks through proj (see
// EvalProjected). The projection predicate depends only on (element
// label, query node), both stable across mutations, so memoised entries
// and pruning decisions stay consistent across rounds. proj == nil
// disables projection.
func NewIncrementalProjected(q *Pattern, proj Projector) *IncrementalEvaluator {
	return &IncrementalEvaluator{
		q:    q,
		memo: map[memoKey]*memoEntry{},
		fps:  map[int]string{},
		proj: proj,
	}
}

// takeStats returns and resets the work counters, so every exported entry
// point reports the effort of that call only.
func (ev *IncrementalEvaluator) takeStats() Stats {
	st := ev.work
	ev.work = Stats{}
	return st
}

// MatchedCallsIncremental returns the distinct document function nodes
// matched by the result node out, in ID order, reusing every memoised
// match that the replacements reported through Invalidate cannot have
// changed. Stats cover this call only: NodesVisited counts the matches
// actually recomputed, MemoHits the ones answered from the table.
func (ev *IncrementalEvaluator) MatchedCallsIncremental(doc *tree.Document, out *Node) ([]*tree.Node, Stats) {
	rs, st := ev.EvalIncremental(doc)
	return collectCalls(rs, out), st
}

// EvalIncremental computes the pattern's snapshot result over doc,
// reusing every memoised match that the mutations reported through
// Invalidate cannot have changed. On an unchanged document a repeat
// evaluation is pure memo hits; after a mutation it recomputes O(spine +
// inserted region) matches. Stats cover this call only, like
// MatchedCallsIncremental.
//
// It is the body of MatchedCallsIncremental, the engine's guideless
// detection arm. The serving layer holds no evaluator of its own (a
// repeat query gets the stored answer of the engine run that completed
// it); the one caller outside the package is the benchmark's replay.
func (ev *IncrementalEvaluator) EvalIncremental(doc *tree.Document) ([]Result, Stats) {
	return ev.eval(rootScope{doc: doc})
}

func (ev *IncrementalEvaluator) eval(scope rootScope) ([]Result, Stats) {
	sink := newResultSink(ev.q)
	ev.streamChildren(ev.q.Root(), scope, sink.add)
	return sink.out, ev.takeStats()
}

// Invalidate reports one document mutation: the subtree rooted at removed
// was detached from parent and an arbitrary forest spliced in its place
// (tree.Document.ReplaceCall). It evicts the memo entries for the removed
// subtree and for the root-to-parent spine; entries for inserted nodes do
// not exist yet, so nothing else needs touching. The call views lose the
// removed calls and get the verdicts filed on that spine marked for
// re-checking. Call it after every mutation, before the next evaluation;
// missing a call makes subsequent results stale.
func (ev *IncrementalEvaluator) Invalidate(parent, removed *tree.Node) {
	if removed != nil {
		removed.Walk(func(n *tree.Node) bool {
			ev.evict(n)
			if n.Kind == tree.Call {
				for _, sp := range ev.spines {
					sp.setMatched(n, false)
				}
			}
			return true
		})
	}
	for x := parent; x != nil; x = x.Parent {
		ev.evict(x)
		for _, sp := range ev.spines {
			if hung, ok := sp.filed[x]; ok {
				sp.dirty = append(sp.dirty, hung...)
				delete(sp.filed, x)
			}
		}
	}
}

// Evictions returns the total number of document nodes whose memo entries
// were evicted, for accounting.
func (ev *IncrementalEvaluator) Evictions() int { return ev.evictions }

func (ev *IncrementalEvaluator) evict(n *tree.Node) {
	ev.evictions++
	for _, v := range ev.q.nodes {
		delete(ev.memo, memoKey{qnode: v.ID, dnode: n})
	}
}
