package pattern

import (
	"github.com/activexml/axml/internal/tree"
)

// This file retains the original eager evaluator — the one that
// materialises the complete solution set at every pattern node — exactly
// as it shipped before the streaming rewrite. It lives in a test file so
// that production builds carry one evaluator, and it serves two purposes:
//
//   - it is the differential-test oracle: the streaming evaluator must
//     produce bit-identical results (same Result slice, same order, same
//     NodesVisited/MemoHits accounting) on every input;
//   - it is the seed baseline of TestE13AllocationRegression, so the
//     streamed evaluator's memory reduction is measured against real
//     code, not a remembered number.

// EvalNaive computes the snapshot result of q on doc with the retained
// eager evaluator. Semantically identical to Eval; kept as the test
// oracle and allocation baseline.
func EvalNaive(doc *tree.Document, q *Pattern) ([]Result, Stats) {
	ev := newNaiveEvaluator(q)
	sols := ev.matchChildren(q.Root(), rootScope{doc: doc})
	return collectResults(q, sols), Stats{NodesVisited: ev.visited, MemoHits: ev.hits}
}

// EvalForestNaive is EvalNaive over a detached forest, mirroring
// EvalForest.
func EvalForestNaive(forest []*tree.Node, q *Pattern) ([]Result, Stats) {
	ev := newNaiveEvaluator(q)
	sols := ev.matchChildren(q.Root(), rootScope{forest: forest})
	return collectResults(q, sols), Stats{NodesVisited: ev.visited, MemoHits: ev.hits}
}

type naiveEvaluator struct {
	q       *Pattern
	memo    map[memoKey]*memoEntry
	fps     map[int]string
	desc    map[*tree.Node][]*tree.Node
	order   map[int][]*Node
	visited int
	hits    int
}

func newNaiveEvaluator(q *Pattern) *naiveEvaluator {
	return &naiveEvaluator{
		q:    q,
		memo: map[memoKey]*memoEntry{},
		fps:  map[int]string{},
		desc: map[*tree.Node][]*tree.Node{},
	}
}

func (ev *naiveEvaluator) fingerprint(v *Node) string {
	if fp, ok := ev.fps[v.ID]; ok {
		return fp
	}
	fp := ev.q.Fingerprint(v)
	ev.fps[v.ID] = fp
	return fp
}

func (ev *naiveEvaluator) match(v *Node, n *tree.Node) []solution {
	key := memoKey{v.ID, n}
	if e, ok := ev.memo[key]; ok {
		ev.hits++
		return e.sols
	}
	e := &memoEntry{} // inserted before computing; trees have no cycles
	ev.memo[key] = e
	e.sols = ev.computeMatch(v, n)
	return e.sols
}

func (ev *naiveEvaluator) computeMatch(v *Node, n *tree.Node) []solution {
	ev.visited++
	switch v.Kind {
	case Or:
		var sols []solution
		for _, alt := range v.Children {
			sols = append(sols, ev.match(alt, n)...)
		}
		return dedupe(sols)
	case Const:
		if !n.IsData() || n.Label != v.Label {
			return nil
		}
	case Star:
		if !n.IsData() {
			return nil
		}
	case Var:
		if !n.IsData() {
			return nil
		}
	case Func:
		if n.Kind != tree.Call {
			return nil
		}
		if v.Label != AnyFunc && v.Label != n.Label {
			return nil
		}
	default:
		return nil // Root never matches a concrete node
	}
	sols := ev.matchChildren(v, rootScope{forest: []*tree.Node{n}})
	if sols == nil {
		return nil
	}
	out := sols[:0:0]
	for _, s := range sols {
		if v.Kind == Var {
			var ok bool
			if s, ok = s.withVar(v.Label, n.Label); !ok {
				continue
			}
		}
		if v.Result {
			s = s.withCap(v.ID, n)
		}
		out = append(out, s)
	}
	return dedupe(out)
}

// matchChildren materialises the full cross-product join of the child
// requirements' solution sets — the eager strategy the streaming
// evaluator replaced.
func (ev *naiveEvaluator) matchChildren(v *Node, scope rootScope) []solution {
	sols := []solution{emptySolution}
	for _, c := range ev.ordered(v) {
		childSols := ev.requirementSolutions(c, v.Kind == Root, scope)
		if len(childSols) == 0 {
			return nil
		}
		sols = joinSolutions(sols, childSols)
		if len(sols) == 0 {
			return nil
		}
	}
	return sols
}

func (ev *naiveEvaluator) ordered(v *Node) []*Node {
	if len(v.Children) < 2 {
		return v.Children
	}
	if cached, ok := ev.order[v.ID]; ok {
		return cached
	}
	out := costOrdered(v)
	if ev.order == nil {
		ev.order = map[int][]*Node{}
	}
	ev.order[v.ID] = out
	return out
}

func (ev *naiveEvaluator) requirementSolutions(c *Node, anchor bool, scope rootScope) []solution {
	var candidates []*tree.Node
	if c.Edge == Child {
		if anchor {
			candidates = scope.childCandidates()
		} else {
			candidates = scope.forest[0].Children
		}
	} else {
		if anchor {
			candidates = descCandidatesEager(scope)
		} else {
			// Several query children commonly share a scope node;
			// enumerate its descendants once per evaluation.
			n := scope.forest[0]
			if cached, ok := ev.desc[n]; ok {
				candidates = cached
			} else {
				candidates = properDescendantsEager(n)
				ev.desc[n] = candidates
			}
		}
	}
	var childSols []solution
	for _, cand := range candidates {
		if cand.Kind == tree.Tuples {
			childSols = append(childSols, tupleSolutions(c, cand, ev.fingerprint)...)
			continue
		}
		childSols = append(childSols, ev.match(c, cand)...)
	}
	return dedupe(childSols)
}

// descCandidatesEager copies every query-visible node of the scope into a
// fresh slice — the per-call allocation the streaming walk eliminated.
func descCandidatesEager(s rootScope) []*tree.Node {
	var out []*tree.Node
	for _, r := range s.childCandidates() {
		r.Walk(func(n *tree.Node) bool {
			out = append(out, n)
			// The parameters of a call are the call's input, not
			// document content: they only become query-visible if the
			// call is invoked and happens to return them. Descendant
			// enumeration therefore stops at call boundaries (pushed
			// results have no element payload either).
			return n.Kind != tree.Call && n.Kind != tree.Tuples
		})
	}
	return out
}

func properDescendantsEager(n *tree.Node) []*tree.Node {
	var out []*tree.Node
	for _, c := range n.Children {
		c.Walk(func(x *tree.Node) bool {
			out = append(out, x)
			return x.Kind != tree.Call && x.Kind != tree.Tuples
		})
	}
	return out
}

func joinSolutions(a, b []solution) []solution {
	var out []solution
	for _, sa := range a {
		for _, sb := range b {
			if m, ok := merge(sa, sb); ok {
				out = append(out, m)
			}
		}
	}
	return dedupe(out)
}

// collectResults restricts a materialised solution set to the query's
// result nodes and deduplicates it by key, in first-occurrence order — with
// the restriction and the keys the evaluator uses, so the two evaluators
// share one definition of a Result.
func collectResults(q *Pattern, sols []solution) []Result {
	rn := newRestriction(q)
	seen := map[string]bool{}
	var out []Result
	for _, s := range sols {
		r := rn.restrict(s)
		if k := r.Key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
