package pattern

import (
	"github.com/activexml/axml/internal/tree"
)

// spinePath is the anchor→output path of one output node, prepared once
// per evaluator: nodes are the path's interior (anchor and output
// excluded), off[0] the anchor's branches that leave the path, off[i+1]
// those of nodes[i] — each cheapest first, like every other join.
type spinePath struct {
	out   *Node
	nodes []*Node
	off   [][]*Node
}

// spine returns (and caches) the spine of the output node out. The nodes
// on the path from the root to out must be data-matching nodes (Const,
// Star or Var), which holds for every generated LPQ and NFQ: the
// ancestors of a function output are plain data nodes by construction. It
// panics otherwise, since that indicates a query not produced by the
// rewrite package.
func (ev *IncrementalEvaluator) spine(out *Node) *spinePath {
	if sp, ok := ev.spines[out]; ok {
		return sp
	}
	var path []*Node // anchor first, out last
	for x := out; x != nil; x = x.Parent {
		path = append(path, x)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	sp := &spinePath{out: out, nodes: path[1 : len(path)-1]}
	for _, s := range sp.nodes {
		if s.Kind != Const && s.Kind != Star && s.Kind != Var {
			panic("pattern: residual matching requires a plain data spine")
		}
	}
	for i, s := range path[:len(path)-1] {
		var off []*Node
		for _, c := range ev.ordered(s) {
			if c != path[i+1] {
				off = append(off, c)
			}
		}
		sp.off = append(sp.off, off)
	}
	if ev.spines == nil {
		ev.spines = map[*Node]*spinePath{}
	}
	ev.spines[out] = sp
	return sp
}

// MatchCall reports whether the query has an embedding mapping the output
// node out to the target call, i.e. whether target is a member of
// MatchedCallsIncremental(doc, out) — decided from the target upwards
// instead of by evaluating the whole query. This is the "NFQ filtering"
// of Section 6.2 of the paper ("the remaining query to evaluate checks
// for the conditions in q_v that don't appear in q_v^lin ... starting
// from the set of function calls returned"): candidates typically come
// from an F-guide, so their ancestor paths already match the linear part;
// MatchCall nevertheless re-verifies labels and edges, making it safe for
// arbitrary targets.
//
// Re-evaluating the whole query per candidate would make the guide
// pointless (every candidate would pay a document-wide pass). Instead the
// query's root→output spine is aligned to the candidate's concrete
// ancestor chain and each spine node's off-spine branches are checked
// *relative to that ancestor* — so a condition on hotel i's name is only
// searched inside hotel i. The checks read and fill the evaluator's one
// memo table: conditions shared between candidates are computed once,
// and on a kept evaluator they survive from round to round under the
// Invalidate rule. Stats cover this call only.
func (ev *IncrementalEvaluator) MatchCall(doc *tree.Document, out *Node, target *tree.Node) (bool, Stats) {
	ok := ev.matchCall(doc, ev.spine(out), target)
	return ok, ev.takeStats()
}

func (ev *IncrementalEvaluator) matchCall(doc *tree.Document, sp *spinePath, target *tree.Node) bool {
	if target.Kind != tree.Call {
		return false
	}
	if sp.out.Label != AnyFunc && sp.out.Label != target.Label {
		return false
	}
	// Ancestor chain of the target, root element first. A target below
	// another call is that call's input, not document content.
	var anc []*tree.Node
	for x := target.Parent; x != nil; x = x.Parent {
		if x.Kind == tree.Call {
			return false
		}
		anc = append(anc, x)
	}
	for i, j := 0, len(anc)-1; i < j; i, j = i+1, j-1 {
		anc[i], anc[j] = anc[j], anc[i]
	}
	// Anchor-level branches off the spine are document-wide conditions,
	// checked against the root scope. The first spine step then anchors at
	// the document root: a Child edge pins it to anc[0] (the root
	// element); a Desc edge allows any ancestor.
	matched := false
	ev.streamJoin(sp.off[0], true, rootScope{doc: doc}, emptySolution, func(s solution) bool {
		matched = ev.align(sp, 0, -1, anc, s)
		return !matched
	})
	return matched
}

// align assigns sp.nodes[i] to an ancestor position after prevJ and
// streams the join of its off-spine branches with the bindings collected
// so far; it succeeds as soon as one joined solution lets every remaining
// spine node be placed with the output edge constraint holding.
func (ev *IncrementalEvaluator) align(sp *spinePath, i, prevJ int, anc []*tree.Node, acc solution) bool {
	if i == len(sp.nodes) {
		// All spine nodes placed; the target is a child of the last
		// ancestor, so a Child output edge needs the spine to end there and
		// a Desc one is satisfied from any placement.
		return sp.out.Edge == Desc || prevJ == len(anc)-1
	}
	s := sp.nodes[i]
	lo := prevJ + 1
	hi := lo
	if s.Edge == Desc {
		hi = len(anc) - 1
	}
	for j := lo; j <= hi && j < len(anc); j++ {
		a := anc[j]
		if !a.IsData() || (s.Kind == Const && s.Label != a.Label) {
			continue
		}
		from := acc
		if s.Kind == Var {
			// The spine node's own variable binding participates in joins.
			var ok bool
			if from, ok = acc.withVar(s.Label, a.Label); !ok {
				continue
			}
		}
		matched := false
		ev.streamJoin(sp.off[i+1], false, rootScope{forest: []*tree.Node{a}}, from, func(sol solution) bool {
			matched = ev.align(sp, i+1, j, anc, sol)
			return !matched
		})
		if matched {
			return true
		}
	}
	return false
}
