// Package rewrite generates the auxiliary queries that retrieve relevant
// service calls: the linear path queries (LPQs) of Section 3.1 and the
// node-focused queries (NFQs) of Section 3.2 of "Lazy Query Evaluation for
// Active XML" (SIGMOD 2004), including the type-refined variant of Section
// 5 and the relaxed variants of Section 6.1.
//
// Given a user query q, every non-anchor node v of q yields one relevance
// query: it retrieves the function nodes of the document sitting at
// positions where data matched by v could appear, under the condition that
// all the *other* constraints of q can still be satisfied — either by data
// already present or, optimistically, by some call that could produce it
// (the OR/() branches of Figure 5 of the paper).
package rewrite

import (
	"fmt"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/regex"
	"github.com/activexml/axml/internal/schema"
)

// NFQ is one generated relevance query, together with the metadata the
// sequencing machinery of Section 4 needs.
type NFQ struct {
	// For is the node v of the original query this NFQ was built for.
	For *pattern.Node
	// Query is the generated extended pattern (q_v in the paper).
	Query *pattern.Pattern
	// Out is the output function node f_v inside Query. The calls it
	// matches are the candidate relevant calls.
	Out *pattern.Node
	// Lin is the linear part lin_v: the path of the original query from
	// the root to v, v excluded (Section 4.2). It drives the influence
	// analysis and the independence condition.
	Lin []regex.PathStep
	// DescTail is set when v is reached through a descendant edge: the
	// calls this NFQ retrieves may then sit at any depth below a Lin
	// match, so the NFQ's *position language* is L(Lin)·σ*. The paper
	// states Proposition 3 over lin_v; the trailing closure is required
	// for the test to be sound for descendant-edge targets (a call
	// retrieved deep below the lin path produces data even deeper, which
	// the same or a sibling descendant NFQ can retrieve).
	DescTail bool
}

// String identifies the NFQ by its target node, for logs and tests.
func (n *NFQ) String() string {
	return fmt.Sprintf("NFQ(for=%s): %s", subLabel(n.For), n.Query)
}

// TargetLabel names, for traces, the node of q this NFQ targets: q is the
// query the NFQ was generated from, or a text bound to that query's shape,
// whose node of the same ID carries the text's own constant.
func (n *NFQ) TargetLabel(q *pattern.Pattern) string { return subLabel(q.Node(n.For.ID)) }

func subLabel(v *pattern.Node) string {
	switch v.Kind {
	case pattern.Const:
		return v.Label
	case pattern.Var:
		return "$" + v.Label
	case pattern.Star:
		return "*"
	default:
		return fmt.Sprintf("node#%d", v.ID)
	}
}

// Options tunes query generation.
type Options struct {
	// Analyzer, when non-nil, produces the refined NFQs of Section 5:
	// OR branches list only the concrete functions whose output type can
	// satisfy the branch's subquery, drawn from Names. When nil, star
	// function branches are generated (untyped, Proposition 1).
	Analyzer *schema.Analyzer
	// Names are the service names known to occur in the document; the
	// refined OR branches are drawn from them. Ignored when Analyzer is
	// nil.
	Names []string
	// Done holds IDs of original query nodes whose document positions
	// can no longer hold function calls because their NFQ layer has been
	// fully processed (the simplification step of Section 4.3): their
	// OR/() branches are omitted.
	Done map[int]bool
	// RelaxJoins produces the relaxed NFQs of Section 6.1: variables are
	// replaced by stars, dropping value joins (the XPath approximation).
	RelaxJoins bool
}

// Validate checks that q is a plain user query: extended constructs (OR
// and function nodes) are produced by this package, not consumed by it.
func Validate(q *pattern.Pattern) error {
	for _, n := range q.Nodes() {
		switch n.Kind {
		case pattern.Or:
			return fmt.Errorf("rewrite: query contains an OR node; NFQs are generated from plain tree patterns")
		case pattern.Func:
			return fmt.Errorf("rewrite: query contains a function node; NFQs are generated from plain tree patterns")
		}
	}
	return nil
}

// BuildAll generates one NFQ per non-anchor node of q, in pre-order of
// the target nodes (the algorithm of Figure 5, applied at every node).
func BuildAll(q *pattern.Pattern, opt Options) ([]*NFQ, error) {
	if err := Validate(q); err != nil {
		return nil, err
	}
	var out []*NFQ
	for _, v := range q.Nodes() {
		if v.Kind == pattern.Root {
			continue
		}
		if opt.Done[v.ID] {
			continue
		}
		out = append(out, build(q, v, opt))
	}
	return out, nil
}

// Build generates the NFQ of a single node v of q.
func Build(q *pattern.Pattern, v *pattern.Node, opt Options) (*NFQ, error) {
	if err := Validate(q); err != nil {
		return nil, err
	}
	if v.Kind == pattern.Root {
		return nil, fmt.Errorf("rewrite: the anchor has no NFQ")
	}
	return build(q, v, opt), nil
}

func build(q *pattern.Pattern, v *pattern.Node, opt Options) *NFQ {
	onPath := map[*pattern.Node]bool{}
	for x := v.Parent; x != nil; x = x.Parent {
		onPath[x] = true
	}
	root := pattern.NewNode(pattern.Root, "", pattern.Child)
	var out *pattern.Node
	var transform func(n *pattern.Node, parent *pattern.Node)
	transform = func(n *pattern.Node, parent *pattern.Node) {
		switch {
		case n == v:
			// v is replaced by the output function node f_v.
			f := pattern.NewNode(pattern.Func, pattern.AnyFunc, n.Edge)
			f.Result = true
			parent.Add(f)
			out = f
		case onPath[n]:
			// Ancestors of the output must be data nodes: keep them
			// plain (the "redundant OR" simplification of Section 3.2).
			c := pattern.NewNode(n.Kind, n.Label, n.Edge)
			parent.Add(c)
			for _, ch := range n.Children {
				transform(ch, c)
			}
		default:
			// Off-path nodes may be provided either by data already in
			// the document or by a call that could produce it.
			data := pattern.NewNode(relaxKind(n.Kind, opt), relaxLabel(n, opt), n.Edge)
			for _, ch := range n.Children {
				transform(ch, data)
			}
			branches := funcBranches(q, n, opt)
			if len(branches) == 0 {
				parent.Add(data)
				return
			}
			or := pattern.NewNode(pattern.Or, "", n.Edge)
			or.Add(data)
			for _, b := range branches {
				or.Add(b)
			}
			parent.Add(or)
		}
	}
	for _, c := range q.Root().Children {
		transform(c, root)
	}
	nq := pattern.NewPattern(root)
	return &NFQ{For: v, Query: nq, Out: out, Lin: q.LinearSteps(v.Parent), DescTail: v.Edge == pattern.Desc}
}

// funcBranches returns the function-node alternatives for off-path node n:
// a single star function in the untyped case, or one named function node
// per known service whose output type satisfies sub_n in the refined case
// (Section 5). A node whose layer is done gets none (Section 4.3).
func funcBranches(q *pattern.Pattern, n *pattern.Node, opt Options) []*pattern.Node {
	if opt.Done[n.ID] {
		return nil
	}
	if opt.Analyzer == nil {
		return []*pattern.Node{pattern.NewNode(pattern.Func, pattern.AnyFunc, n.Edge)}
	}
	var out []*pattern.Node
	for _, name := range opt.Names {
		if opt.Analyzer.FunctionSatisfies(name, n) {
			out = append(out, pattern.NewNode(pattern.Func, name, n.Edge))
		}
	}
	return out
}

func relaxKind(k pattern.Kind, opt Options) pattern.Kind {
	if opt.RelaxJoins && k == pattern.Var {
		return pattern.Star
	}
	return k
}

func relaxLabel(n *pattern.Node, opt Options) string {
	if opt.RelaxJoins && n.Kind == pattern.Var {
		return ""
	}
	return n.Label
}

// SatisfiesOut reports whether a call to the named service can actually
// produce data matched by the subquery this NFQ stands for — the
// output-side pruning of Section 5. Untyped NFQs accept everything.
func (n *NFQ) SatisfiesOut(an *schema.Analyzer, service string) bool {
	if an == nil {
		return true
	}
	return an.FunctionSatisfies(service, n.For)
}

// Minimize removes relevance queries whose *position language* is
// contained in another's: for union-style retrieval the subsumed query
// can never contribute a call its subsumer misses. This is the
// containment-based redundant-query elimination Section 4.1 of the paper
// points at, and it is only sound for condition-free queries (LPQs) —
// two NFQs with nested positions still filter by different conditions.
// Ties (equivalent languages) keep the earliest query.
func Minimize(lpqs []*NFQ) []*NFQ {
	type posLang struct {
		nfa  *regex.NFA
		dead bool
	}
	langs := make([]posLang, len(lpqs))
	for i, l := range lpqs {
		langs[i] = posLang{nfa: l.PositionNFA()}
	}
	for i := range lpqs {
		if langs[i].dead {
			continue
		}
		for j := range lpqs {
			if i == j || langs[j].dead {
				continue
			}
			if regex.Subset(langs[i].nfa, langs[j].nfa) {
				// i ⊆ j. Drop i unless they are equivalent and i comes
				// first.
				if i < j && regex.Subset(langs[j].nfa, langs[i].nfa) {
					continue
				}
				langs[i].dead = true
				break
			}
		}
	}
	out := make([]*NFQ, 0, len(lpqs))
	for i, l := range lpqs {
		if !langs[i].dead {
			out = append(out, l)
		}
	}
	return out
}

// PositionNFA compiles the query's position language P_v (Section 4.3):
// the parent paths under which it retrieves calls — Lin, plus a trailing
// wildcard closure for descendant-edge targets.
func (q *NFQ) PositionNFA() *regex.NFA {
	parts := make([]regex.Expr, 0, 2*len(q.Lin)+1)
	for _, s := range q.Lin {
		if s.AnyDepth {
			parts = append(parts, regex.Star(regex.Sym(regex.Any)))
		}
		parts = append(parts, regex.Sym(s.Label))
	}
	if q.DescTail {
		parts = append(parts, regex.Star(regex.Sym(regex.Any)))
	}
	return regex.Compile(regex.Concat(parts...))
}

// LPQ builds the linear path query of a single node v of q.
func LPQ(q *pattern.Pattern, v *pattern.Node) (*NFQ, error) {
	if err := Validate(q); err != nil {
		return nil, err
	}
	if v.Kind == pattern.Root {
		return nil, fmt.Errorf("rewrite: the anchor has no LPQ")
	}
	return buildLPQ(q, v), nil
}

func buildLPQ(q *pattern.Pattern, v *pattern.Node) *NFQ {
	root := pattern.NewNode(pattern.Root, "", pattern.Child)
	cur := root
	var chain []*pattern.Node
	for x := v.Parent; x != nil && x.Kind != pattern.Root; x = x.Parent {
		chain = append(chain, x)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		n := chain[i]
		kind, label := n.Kind, n.Label
		if kind == pattern.Var {
			kind, label = pattern.Star, ""
		}
		cur = cur.Add(pattern.NewNode(kind, label, n.Edge))
	}
	f := pattern.NewNode(pattern.Func, pattern.AnyFunc, v.Edge)
	f.Result = true
	cur.Add(f)
	return &NFQ{For: v, Query: pattern.NewPattern(root), Out: f, Lin: q.LinearSteps(v.Parent), DescTail: v.Edge == pattern.Desc}
}
