package pattern

import (
	"sort"

	"github.com/activexml/axml/internal/tree"
)

// spinePath is the anchor→output path of one output node, prepared once
// per evaluator: nodes are the path's interior (anchor and output
// excluded), off[0] the anchor's branches that leave the path, off[i+1]
// those of nodes[i] — each cheapest first, like every other join. It also
// holds the output node's maintained call view (MatchedCandidates).
type spinePath struct {
	out   *Node
	nodes []*Node
	off   [][]*Node

	// The view: one entry per validated candidate and nothing else. A
	// verdict that read the document is filed under its dependency root
	// until a splice touches that root (Invalidate moves it to dirty); a
	// true verdict is also a member of matched.
	filed   map[*tree.Node][]*tree.Node // dependency root → candidates whose verdict hangs on it
	matched []*tree.Node                // candidates whose verdict is true, in ascending ID order
	dirty   []*tree.Node                // candidates to re-check before the next answer
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
	sp := ev.spine(out)
	anc := sp.chain(doc, target)
	ok := anc != nil
	if ok {
		ok, _ = ev.matchChain(doc, sp, anc)
	}
	return ok, ev.takeStats()
}

// MatchedCandidates is MatchCall kept as a maintained view. The targets
// offered to it — more, and the more of every earlier call on this
// evaluator — are its candidates, and it returns, in ascending ID order,
// those of them that out matches and that are still in the document. Offer
// each target once; the typical feed is an F-guide: its candidates for the
// linear part on the first call, afterwards the calls each expansion added
// to the index. Targets that do not lie on the query's linear path are
// ignored.
//
// A call validates only the new targets and the verdicts that the splices
// reported through Invalidate since the last call can have changed (the
// dependency rule in the IncrementalEvaluator comment); every other
// verdict is read off the view. Stats cover this call only: Validated
// counts the verdicts computed, Revalidated those among them that had
// been computed before. The returned slice is the view's own — valid
// until the next call, not to be modified.
func (ev *IncrementalEvaluator) MatchedCandidates(doc *tree.Document, out *Node, more []*tree.Node) ([]*tree.Node, Stats) {
	sp := ev.spine(out)
	again := sp.dirty
	sp.dirty = nil
	for _, t := range again {
		ev.validate(doc, sp, t)
	}
	// The counters were reset by the previous call's takeStats: everything
	// validated so far in this one was a re-check.
	ev.work.Revalidated = ev.work.Validated
	for _, t := range more {
		ev.validate(doc, sp, t)
	}
	return sp.matched, ev.takeStats()
}

// validate computes one target's verdict and enters it into the view.
// Targets off the linear path — among them every call that has left the
// document, which Invalidate took out of the matched set — get no entry
// and are not counted: nothing that can still happen to the document makes
// them match.
func (ev *IncrementalEvaluator) validate(doc *tree.Document, sp *spinePath, target *tree.Node) {
	anc := sp.chain(doc, target)
	if anc == nil {
		return
	}
	ev.work.Validated++
	ok, root := ev.matchChain(doc, sp, anc)
	sp.setMatched(target, ok)
	if root != nil {
		if sp.filed == nil {
			sp.filed = map[*tree.Node][]*tree.Node{}
		}
		sp.filed[root] = append(sp.filed[root], target)
	}
}

// setMatched makes target's membership of the ID-ordered matched set ok.
func (sp *spinePath) setMatched(target *tree.Node, ok bool) {
	i := sort.Search(len(sp.matched), func(i int) bool { return sp.matched[i].ID >= target.ID })
	present := i < len(sp.matched) && sp.matched[i] == target
	switch {
	case ok && !present:
		sp.matched = append(sp.matched, nil)
		copy(sp.matched[i+1:], sp.matched[i:])
		sp.matched[i] = target
	case !ok && present:
		sp.matched = append(sp.matched[:i], sp.matched[i+1:]...)
	}
}

// chain returns the target's ancestors, root element first, when the
// target lies on the spine's linear path: it is a call out's label admits,
// attached to doc, outside every other call's parameters (a call's
// parameters are its input, not document content), and the labels above
// it can be aligned with the spine. Otherwise it returns nil — the target
// matches under no document content, so no join needs to run.
func (sp *spinePath) chain(doc *tree.Document, target *tree.Node) []*tree.Node {
	if target.Kind != tree.Call {
		return nil
	}
	if sp.out.Label != AnyFunc && sp.out.Label != target.Label {
		return nil
	}
	var anc []*tree.Node
	for x := target.Parent; x != nil; x = x.Parent {
		if x.Kind == tree.Call {
			return nil
		}
		anc = append(anc, x)
	}
	if len(anc) == 0 || anc[len(anc)-1] != doc.Root {
		return nil
	}
	for i, j := 0, len(anc)-1; i < j; i, j = i+1, j-1 {
		anc[i], anc[j] = anc[j], anc[i]
	}
	if !sp.aligns(0, -1, anc) {
		return nil
	}
	return anc
}

// span returns the ancestor positions sp.nodes[i] may take once its
// predecessor sits at prevJ: the next one for a Child edge, any deeper one
// for a Desc edge. The first spine step anchors at the document root, so a
// Child edge pins it to anc[0] (the root element).
func (sp *spinePath) span(i, prevJ int, anc []*tree.Node) (lo, hi int) {
	lo, hi = prevJ+1, prevJ+1
	if sp.nodes[i].Edge == Desc || hi >= len(anc) {
		hi = len(anc) - 1
	}
	return lo, hi
}

// fits is the label test of placing spine node s at ancestor a.
func fits(s *Node, a *tree.Node) bool {
	return a.IsData() && (s.Kind != Const || s.Label == a.Label)
}

// ends reports whether a placement of the whole spine ending at position
// prevJ satisfies the output edge: the target is a child of the last
// ancestor, so a Child edge needs the spine to end there and a Desc one is
// satisfied from any placement.
func (sp *spinePath) ends(prevJ int, anc []*tree.Node) bool {
	return sp.out.Edge == Desc || prevJ == len(anc)-1
}

// aligns reports whether sp.nodes[i:] can be placed below position prevJ
// by labels and edges alone — align without its joins.
func (sp *spinePath) aligns(i, prevJ int, anc []*tree.Node) bool {
	if i == len(sp.nodes) {
		return sp.ends(prevJ, anc)
	}
	lo, hi := sp.span(i, prevJ, anc)
	for j := lo; j <= hi; j++ {
		if fits(sp.nodes[i], anc[j]) && sp.aligns(i+1, j, anc) {
			return true
		}
	}
	return false
}

// matchChain decides the verdict of the target below the ancestor chain
// anc and returns with it the verdict's dependency root: the shallowest
// ancestor at which a non-empty off-spine join ran (nil when none did).
func (ev *IncrementalEvaluator) matchChain(doc *tree.Document, sp *spinePath, anc []*tree.Node) (bool, *tree.Node) {
	// Anchor-level branches off the spine are document-wide conditions,
	// checked against the root scope: such a verdict hangs on the root
	// element, which every splice touches.
	ev.consulted = len(anc)
	if len(sp.off[0]) > 0 {
		ev.consulted = 0
	}
	matched := false
	ev.streamJoin(sp.off[0], true, rootScope{doc: doc}, emptySolution, func(s solution) bool {
		matched = ev.align(sp, 0, -1, anc, s)
		return !matched
	})
	if ev.consulted == len(anc) {
		return matched, nil
	}
	return matched, anc[ev.consulted]
}

// align assigns sp.nodes[i] to an ancestor position after prevJ and
// streams the join of its off-spine branches with the bindings collected
// so far; it succeeds as soon as one joined solution lets every remaining
// spine node be placed with the output edge constraint holding.
func (ev *IncrementalEvaluator) align(sp *spinePath, i, prevJ int, anc []*tree.Node, acc solution) bool {
	if i == len(sp.nodes) {
		return sp.ends(prevJ, anc)
	}
	s := sp.nodes[i]
	lo, hi := sp.span(i, prevJ, anc)
	for j := lo; j <= hi; j++ {
		a := anc[j]
		if !fits(s, a) {
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
		if len(sp.off[i+1]) > 0 && j < ev.consulted {
			ev.consulted = j
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
