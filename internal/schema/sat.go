package schema

import (
	"sort"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/regex"
)

// Mode selects the satisfiability algorithm.
type Mode uint8

const (
	// Exact is the algorithm of Section 5: it extends the Milo–Suciu
	// satisfiability test to *derived* instances of the output types
	// (outputs of outputs, recursively) and decides content models
	// precisely — worst-case exponential in the query branching (the
	// paper proves the problem NP-hard), but exact.
	Exact Mode = iota
	// Lenient is the relaxation of Section 6.1: content models are
	// collapsed to child-symbol sets (a graph schema in the spirit of
	// dataguides), ignoring cardinality and order. Polynomial, and sound
	// in the lenient direction: everything exactly satisfiable remains
	// satisfiable, some unsatisfiable pairs slip through.
	Lenient
)

// Analyzer decides, for a fixed schema and query, which functions satisfy
// which query subtrees (Definition 6 of the paper). It is the pruning
// component of the refined NFQs of Section 5.
//
// The analysis computes the least fixpoint of two mutually recursive
// relations over (symbol, query node) pairs:
//
//	sat(s, v)  — some tree derived from symbol s matches the query
//	             subtree rooted at v, with v at the tree's root;
//	desc(s, v) — some tree derived from s contains such a match at the
//	             root or strictly below.
//
// Function symbols recurse through their output types, which is what makes
// the instances "derived". Symbols not declared in the schema are treated
// optimistically (they satisfy everything): the paper's relevance notion
// is optimistic, and an unknown service may return anything.
type Analyzer struct {
	schema *Schema
	mode   Mode
	q      *pattern.Pattern

	symbols  []string
	symIndex map[string]int

	// usefulOut[f] / content info per element, precompiled.
	usefulOut  map[string][]string
	contentNFA map[string]*regex.NFA
	contentSym map[string][]string // lenient child-symbol sets

	sat  [][]bool // [symbol][nodeID]
	desc [][]bool

	// ContentChecks counts content-model walks, for the E6 experiment.
	ContentChecks int
}

// NewAnalyzer builds the satisfiability tables for the given schema and
// query. Construction runs the fixpoint; queries are O(1) afterwards.
func NewAnalyzer(s *Schema, q *pattern.Pattern, mode Mode) *Analyzer {
	a := &Analyzer{
		schema:     s,
		mode:       mode,
		q:          q,
		symIndex:   map[string]int{},
		usefulOut:  map[string][]string{},
		contentNFA: map[string]*regex.NFA{},
		contentSym: map[string][]string{},
	}
	for name := range s.Elements {
		a.symbols = append(a.symbols, name)
	}
	for name := range s.Functions {
		a.symbols = append(a.symbols, name)
	}
	a.symbols = append(a.symbols, DataSymbol)
	sort.Strings(a.symbols)
	for i, sym := range a.symbols {
		a.symIndex[sym] = i
	}
	for name, sig := range s.Functions {
		a.usefulOut[name] = usefulSymbols(sig.Out)
	}
	for name, content := range s.Elements {
		a.contentNFA[name] = regex.Compile(content)
		a.contentSym[name] = sortedSet(content.Symbols())
	}
	n := len(q.Nodes())
	a.sat = make([][]bool, len(a.symbols))
	a.desc = make([][]bool, len(a.symbols))
	for i := range a.symbols {
		a.sat[i] = make([]bool, n)
		a.desc[i] = make([]bool, n)
	}
	a.fixpoint()
	return a
}

func usefulSymbols(e regex.Expr) []string {
	syms, _ := regex.Compile(e).UsefulSymbols()
	return sortedSet(syms)
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// fixpoint iterates the monotone rules until the tables stabilise.
func (a *Analyzer) fixpoint() {
	for changed := true; changed; {
		changed = false
		for si, sym := range a.symbols {
			for _, v := range a.q.Nodes() {
				if v.Kind == pattern.Root {
					continue
				}
				if !a.sat[si][v.ID] && a.satRule(sym, v) {
					a.sat[si][v.ID] = true
					changed = true
				}
				if !a.desc[si][v.ID] && a.descRule(sym, v) {
					a.desc[si][v.ID] = true
					changed = true
				}
			}
		}
	}
}

// satOf looks up sat(s, v), resolving unknown symbols optimistically.
func (a *Analyzer) satOf(sym string, v *pattern.Node) bool {
	if i, ok := a.symIndex[sym]; ok {
		return a.sat[i][v.ID]
	}
	return a.unknownOK(v)
}

func (a *Analyzer) descOf(sym string, v *pattern.Node) bool {
	if i, ok := a.symIndex[sym]; ok {
		return a.desc[i][v.ID]
	}
	return a.unknownOK(v)
}

// unknownOK is the optimistic verdict for symbols missing from the
// schema: an element of unknown type or an undeclared service may produce
// anything, so it can satisfy any data subtree; a function query node is
// only matched by function symbols, which are always declared.
func (a *Analyzer) unknownOK(v *pattern.Node) bool {
	return v.Kind != pattern.Func
}

func (a *Analyzer) satRule(sym string, v *pattern.Node) bool {
	switch v.Kind {
	case pattern.Or:
		for _, alt := range v.Children {
			if a.satOf(sym, alt) {
				return true
			}
		}
		return false
	case pattern.Func:
		if !a.schema.IsFunction(sym) {
			return false
		}
		if v.Label == pattern.AnyFunc || v.Label == sym {
			return true // the call node itself matches, unexpanded
		}
		for _, t := range a.usefulOut[sym] {
			if a.satOf(t, v) {
				return true
			}
		}
		return false
	case pattern.Const, pattern.Star, pattern.Var:
		switch {
		case sym == DataSymbol:
			return len(v.Children) == 0
		case a.schema.IsElement(sym):
			if v.Kind == pattern.Const && v.Label != sym {
				return false
			}
			return a.contentSatisfied(sym, v.Children)
		case a.schema.IsFunction(sym):
			for _, t := range a.usefulOut[sym] {
				if a.satOf(t, v) {
					return true
				}
			}
			return false
		}
	}
	return false
}

func (a *Analyzer) descRule(sym string, v *pattern.Node) bool {
	if a.satOf(sym, v) {
		return true
	}
	switch {
	case sym == DataSymbol:
		return false // data values have no descendants
	case a.schema.IsElement(sym):
		for _, t := range a.contentSym[sym] {
			if a.descOf(t, v) {
				return true
			}
		}
		return false
	case a.schema.IsFunction(sym):
		// Expansion plugs the output trees at the call's own position,
		// so depth is preserved: descend through the output symbols.
		for _, t := range a.usefulOut[sym] {
			if a.descOf(t, v) {
				return true
			}
		}
		return false
	}
	return false
}

// contentSatisfied decides whether some word of the element's content
// model provides, per child requirement, a position symbol that satisfies
// it — jointly for all requirements in Exact mode (an NFA walk carrying
// the set of still-open requirements), independently in Lenient mode.
//
// A requirement reached through a Child edge must be satisfied at the
// position itself (sat); through a Desc edge, at the position or below
// (desc). Note that one position may satisfy several requirements:
// embeddings are homomorphisms, not injections.
func (a *Analyzer) contentSatisfied(element string, reqs []*pattern.Node) bool {
	a.ContentChecks++
	reqOK := func(sym string, req *pattern.Node) bool {
		if req.Edge == pattern.Desc {
			return a.descOf(sym, req)
		}
		return a.satOf(sym, req)
	}
	if a.mode == Lenient {
		for _, req := range reqs {
			ok := false
			for _, sym := range a.contentSym[element] {
				if reqOK(sym, req) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	// Exact: BFS over (NFA state, open-requirement mask).
	nfa := a.contentNFA[element]
	if len(reqs) > 30 {
		// Far beyond any realistic pattern; fall back to the lenient
		// check rather than building 2^k masks.
		saved := a.mode
		a.mode = Lenient
		ok := a.contentSatisfied(element, reqs)
		a.mode = saved
		return ok
	}
	full := (uint32(1) << len(reqs)) - 1
	type state struct {
		s    int
		open uint32
	}
	start := state{0, full}
	seen := map[state]bool{start: true}
	queue := []state{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.open == 0 && nfa.Accepting(cur.s) {
			return true
		}
		for _, e := range nfa.Edges(cur.s) {
			open := cur.open
			for i, req := range reqs {
				if open&(1<<i) != 0 && reqOK(e.Symbol, req) {
					open &^= 1 << i
				}
			}
			ns := state{e.To, open}
			if !seen[ns] {
				seen[ns] = true
				queue = append(queue, ns)
			}
		}
	}
	return false
}

// FunctionSatisfies implements Definition 6 for the subquery rooted at v:
// it reports whether some derived instance of fn's output type can match
// sub_v, plugged at the position the call occupies. The incoming edge of v
// decides whether the match must be at the plug position itself (child
// edge) or may be deeper (descendant edge). Functions missing from the
// schema satisfy everything, per the paper's untyped default.
func (a *Analyzer) FunctionSatisfies(fn string, v *pattern.Node) bool {
	if !a.schema.IsFunction(fn) {
		return true
	}
	if v.Edge == pattern.Desc {
		return a.descOf(fn, v)
	}
	return a.satOf(fn, v)
}
