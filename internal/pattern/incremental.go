package pattern

import (
	"slices"

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
// replacement, redoes only what the mutation can have changed.
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
// valid. Of a spine entry, only the part its child on the spine
// contributes is invalid: an entry whose query node has one requirement
// keeps its solutions as rows per candidate child (memoEntry), stays, and
// re-joins just that child's row when next read. A round's re-evaluation
// then recomputes O(spine + inserted region) matches instead of
// O(document), and merges, keys and copies the solutions of the changed
// rows only — an ancestor with a thousand children does not re-join the
// other 999. EvalIncremental keeps its answer the same way (resultView):
// made of the root element's rows, re-restricted where a row changed, and
// known to be unchanged when none did (Unchanged).
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

	view *resultView // the answer of EvalIncremental; nil until the first

	work      Stats // match work since the last takeStats
	consulted int   // matchChain: shallowest ancestor position a join ran at so far
	evictions int
	rows      int // rows the memo keeps (memoEntry.size, summed)
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
// reusing every memoised match and every row of the last answer that the
// mutations reported through Invalidate cannot have changed. On an
// unchanged document a repeat evaluation is one memo hit; after a mutation
// it recomputes O(spine + inserted region) matches and restricts the
// answer's changed rows only. Stats cover this call only, like
// MatchedCallsIncremental. The returned slice is the evaluator's own and
// read-only: an evaluation that answers what the last one did (Unchanged)
// returns the same slice again.
//
// It is the body of MatchedCallsIncremental, the engine's guideless
// detection arm, and the engine's result evaluation: a resumed run of a
// kept core.Evaluation reads its answer through it.
func (ev *IncrementalEvaluator) EvalIncremental(doc *tree.Document) ([]Result, Stats) {
	return ev.eval(rootScope{doc: doc})
}

// Invalidate reports one document mutation: the subtree rooted at removed
// was detached from parent and an arbitrary forest spliced in its place
// (tree.Document.ReplaceCall). It evicts the memo entries for the removed
// subtree and for parent, whose children changed; entries for inserted
// nodes do not exist yet. Up the rest of the root-to-parent spine, a rowed
// entry stays and has the one child on the spine marked stale — the next
// read re-joins that child's row and keeps the others (memoEntry) — and any
// other entry is evicted. The call views lose the removed calls and get the
// verdicts filed on that spine marked for re-checking. Call it after every
// mutation, before the next evaluation; missing a call makes subsequent
// results stale.
func (ev *IncrementalEvaluator) Invalidate(parent, removed *tree.Node) {
	if removed != nil {
		removed.Walk(func(n *tree.Node) bool {
			ev.evict(n, nil)
			if n.Kind == tree.Call {
				for _, sp := range ev.spines {
					sp.setMatched(n, false)
				}
			}
			return true
		})
	}
	var below *tree.Node // the child of x on the spine; nil at parent
	for x := parent; x != nil; below, x = x, x.Parent {
		ev.evict(x, below)
		for _, sp := range ev.spines {
			if hung, ok := sp.filed[x]; ok {
				sp.dirty = append(sp.dirty, hung...)
				delete(sp.filed, x)
			}
		}
	}
}

// Evictions returns the total number of document nodes whose memo entries
// were evicted or marked stale, for accounting.
func (ev *IncrementalEvaluator) Evictions() int { return ev.evictions }

// Rows returns the number of rows the evaluator's memo keeps: a rowed
// entry's rows, one for any other entry with solutions. It is the measure of
// what a kept evaluator holds.
func (ev *IncrementalEvaluator) Rows() int { return ev.rows }

// evict drops n's memo entries, except that with stale set the rowed ones
// stay and get their row for the child stale marked.
func (ev *IncrementalEvaluator) evict(n, stale *tree.Node) {
	ev.evictions++
	for _, v := range ev.q.nodes {
		k := memoKey{qnode: v.ID, dnode: n}
		e, ok := ev.memo[k]
		switch {
		case !ok:
		case stale != nil && e.rowed:
			if e.ix == nil {
				e.ix = &rowIndex{}
			}
			if !slices.Contains(e.ix.stale, stale) {
				e.ix.stale = append(e.ix.stale, stale)
			}
		default:
			ev.rows -= e.size()
			delete(ev.memo, k)
		}
	}
}
