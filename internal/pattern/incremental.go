package pattern

import (
	"github.com/activexml/axml/internal/tree"
)

// IncrementalEvaluator evaluates one pattern repeatedly over a document
// that changes a little between evaluations — the shape of the engine's
// NFQA loop, where every round replaces a single call by its result and
// then re-asks every relevance query. A fresh evaluator would recompute
// every (query node, document node) match from scratch each round, so the
// cost of a round grows with the document; this evaluator keeps the memo
// table alive across rounds and, on each replacement, evicts only the
// entries the mutation can have changed.
//
// The invalidation rule exploits the locality of the memo: the solutions
// for (v, n) depend only on v's subtree and n's subtree (match and
// matchChildren never look above n). Replacing the subtree rooted at a
// call c therefore invalidates exactly
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
// The evaluator is not safe for concurrent use; the engine keeps one
// evaluator per relevance query.
type IncrementalEvaluator struct {
	q    *Pattern
	ev   *evaluator
	qids []int

	lastVisited int
	lastHits    int
	lastPruned  int
	evictions   int
}

// NewIncrementalProjected returns a persistent evaluator for q under a
// document projection: every evaluation prunes descendant walks through
// proj (see EvalProjected). The projection predicate depends only on
// (element label, query node), both stable across mutations, so memoised
// entries and pruning decisions stay consistent across rounds. proj ==
// nil disables projection. The from-scratch fallback with identical
// semantics is MatchedCallsProjected (and Eval), which builds a
// throwaway evaluator per call.
func NewIncrementalProjected(q *Pattern, proj Projector) *IncrementalEvaluator {
	ids := make([]int, 0, len(q.Nodes()))
	for _, n := range q.Nodes() {
		ids = append(ids, n.ID)
	}
	ev := newEvaluator(q)
	ev.proj = proj
	return &IncrementalEvaluator{q: q, ev: ev, qids: ids}
}

// Pattern returns the query this evaluator serves.
func (ie *IncrementalEvaluator) Pattern() *Pattern { return ie.q }

// MatchedCallsIncremental is the incremental counterpart of
// MatchedCallsProjected: it returns the distinct document function nodes
// matched by the result node out, reusing every memoised match that the
// replacements reported through Invalidate cannot have changed. Stats
// cover this call only: NodesVisited counts the matches actually
// recomputed, MemoHits the ones answered from the persistent table.
func (ie *IncrementalEvaluator) MatchedCallsIncremental(doc *tree.Document, out *Node) ([]*tree.Node, Stats) {
	rs, st := ie.EvalIncremental(doc)
	return collectCalls(rs, out), st
}

// EvalIncremental is the incremental counterpart of Eval: it computes the
// pattern's snapshot result over doc, reusing every memoised match that
// the mutations reported through Invalidate cannot have changed. On an
// unchanged document a repeat evaluation is pure memo hits; after a
// mutation it recomputes O(spine + inserted region) matches. Stats cover
// this call only, like MatchedCallsIncremental.
//
// The session layer uses one shared evaluator per (document, query) pair
// to answer repeat queries across tenants without re-walking the whole
// document; core.Evaluate remains the from-scratch oracle with identical
// results.
func (ie *IncrementalEvaluator) EvalIncremental(doc *tree.Document) ([]Result, Stats) {
	sink := newResultSink(ie.q)
	ie.ev.streamChildren(ie.q.Root(), rootScope{doc: doc}, sink.add)
	st := Stats{
		NodesVisited:   ie.ev.visited - ie.lastVisited,
		MemoHits:       ie.ev.hits - ie.lastHits,
		SubtreesPruned: ie.ev.pruned - ie.lastPruned,
	}
	ie.lastVisited, ie.lastHits, ie.lastPruned = ie.ev.visited, ie.ev.hits, ie.ev.pruned
	return sink.out, st
}

// Invalidate reports one document mutation: the subtree rooted at removed
// was detached from parent and an arbitrary forest spliced in its place
// (tree.Document.ReplaceCall). It evicts the memo entries for the removed
// subtree and for the root-to-parent spine; entries for inserted nodes do
// not exist yet, so nothing else needs touching. Call it after every
// mutation, before the next evaluation; missing a call makes subsequent
// results stale.
func (ie *IncrementalEvaluator) Invalidate(parent, removed *tree.Node) {
	if removed != nil {
		removed.Walk(func(n *tree.Node) bool {
			ie.evict(n)
			return true
		})
	}
	for x := parent; x != nil; x = x.Parent {
		ie.evict(x)
	}
}

// Evictions returns the total number of document nodes whose memo entries
// were evicted, for accounting.
func (ie *IncrementalEvaluator) Evictions() int { return ie.evictions }

func (ie *IncrementalEvaluator) evict(n *tree.Node) {
	ie.evictions++
	for _, id := range ie.qids {
		delete(ie.ev.memo, memoKey{qnode: id, dnode: n})
	}
}
