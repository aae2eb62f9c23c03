// Package pattern implements the tree-pattern query model of Section 2 of
// "Lazy Query Evaluation for Active XML" (SIGMOD 2004): labelled trees with
// constant, variable and star nodes, child and descendant edges, and a set
// of result nodes, capturing the core tree-matching fragment of
// XPath/XQuery. It also implements the paper's *extended* queries — OR
// nodes and function nodes — which the rewriting machinery of Sections 3–5
// uses to retrieve relevant service calls.
//
// The package provides a textual query language (see Parse), a canonical
// serialisation used as the fingerprint of pushed subqueries (String), and
// the embedding evaluator of Definition 1 (Eval and friends).
package pattern

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/activexml/axml/internal/regex"
)

// EdgeKind is the kind of the edge connecting a pattern node to its parent.
type EdgeKind uint8

const (
	// Child is a parent-child edge (single line in the paper's figures).
	Child EdgeKind = iota
	// Desc is an ancestor-descendant edge (double line in the figures).
	Desc
)

func (e EdgeKind) String() string {
	if e == Desc {
		return "//"
	}
	return "/"
}

// Kind discriminates the pattern node kinds.
type Kind uint8

const (
	// Root is the virtual anchor above the document root. Every pattern
	// has exactly one Root node, at its top. A Root child reached by a
	// Child edge matches the document root element; one reached by a Desc
	// edge matches any node.
	Root Kind = iota
	// Const matches a data node with exactly the node's label (an element
	// name or a data value — the model does not distinguish).
	Const
	// Star matches any data node.
	Star
	// Var matches any data node and binds the node's label to the
	// variable; all occurrences of a variable must bind the same label.
	Var
	// Or is a choice between its children subtrees: a query with OR nodes
	// denotes the union of the OR-free queries obtained by keeping one
	// child per OR node (Section 2, "Some useful machinery").
	Or
	// Func matches a function node. A label of "*" matches a call to any
	// service, otherwise the service name must match exactly.
	Func
)

// AnyFunc is the label of star function nodes, written "()" in the paper.
const AnyFunc = "*"

// Node is a node of a tree pattern.
type Node struct {
	// Kind of the node.
	Kind Kind
	// Label is the constant label (Const), the variable name (Var), or
	// the service name or AnyFunc (Func). Unused for Root, Star, Or.
	Label string
	// Edge is the kind of the edge from the parent. Meaningless on Root.
	// The children of an Or node inherit the Or's position, so their own
	// Edge is ignored and the Or's Edge applies.
	Edge EdgeKind
	// Result marks the node as a result node of the query.
	Result bool
	// Parent is the parent node (nil for the Root node).
	Parent *Node
	// Children are the ordered children subtrees.
	Children []*Node

	// ID is the index of the node within its pattern, assigned by
	// Pattern.Reindex. It identifies the node in evaluation results.
	ID int
}

// NewNode returns a detached pattern node.
func NewNode(kind Kind, label string, edge EdgeKind) *Node {
	return &Node{Kind: kind, Label: label, Edge: edge}
}

// Add attaches child as the last child of n and returns child.
func (n *Node) Add(child *Node) *Node {
	child.Parent = n
	n.Children = append(n.Children, child)
	return child
}

// clone deep-copies the subtree rooted at n; the copy is detached.
func (n *Node) clone() *Node {
	return n.relabelled(func(n *Node) string { return n.Label })
}

// relabelled deep-copies the subtree rooted at n with each node's label
// given by label; the copy is detached.
func (n *Node) relabelled(label func(*Node) string) *Node {
	c := &Node{Kind: n.Kind, Label: label(n), Edge: n.Edge, Result: n.Result}
	for _, ch := range n.Children {
		c.Add(ch.relabelled(label))
	}
	return c
}

// Pattern is a tree-pattern query: a Root-anchored node tree plus the
// bookkeeping to address nodes by ID. Obtain one with Parse or NewPattern
// and call Reindex after structural modifications.
type Pattern struct {
	root  *Node
	nodes []*Node
}

// NewPattern wraps a Root node into a Pattern and indexes it. It panics if
// root is not of Kind Root: patterns are always anchored.
func NewPattern(root *Node) *Pattern {
	if root.Kind != Root {
		panic("pattern: NewPattern requires a Root node")
	}
	p := &Pattern{root: root}
	p.Reindex()
	return p
}

// Root returns the anchor node of the pattern.
func (p *Pattern) Root() *Node { return p.root }

// Nodes returns all nodes of the pattern in pre-order; the slice index of
// each node equals its ID. The slice must not be modified.
func (p *Pattern) Nodes() []*Node { return p.nodes }

// Node returns the node with the given ID.
func (p *Pattern) Node(id int) *Node { return p.nodes[id] }

// Reindex reassigns node IDs after a structural modification.
func (p *Pattern) Reindex() {
	p.nodes = p.nodes[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		n.ID = len(p.nodes)
		p.nodes = append(p.nodes, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.root)
}

// Clone returns an independent deep copy of the pattern.
func (p *Pattern) Clone() *Pattern {
	return NewPattern(p.root.clone())
}

// paramPrefix begins the label of a shape's parameter (see Lift); no label
// a shape keeps begins with it.
const paramPrefix = "\x00"

// param returns the index of the parameter a Const label stands for.
func param(label string) (int, bool) {
	rest, ok := strings.CutPrefix(label, paramPrefix)
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(rest)
	return i, err == nil
}

// Lift returns the shape of p and the constants it lifted: a copy in which
// every leaf Const node whose label lift accepts is a positional parameter,
// args[i] being parameter i's label. Equal labels share one parameter, so
// the shape also fixes which of its constants are equal. The copy keeps
// every node ID. A pattern lifts nothing, and is its own shape, when one of
// the labels it keeps begins like a parameter's or lift refuses a
// parameter's own label.
func (p *Pattern) Lift(lift func(label string) bool) (shape *Pattern, args []string) {
	index := map[string]int{}
	for _, n := range p.nodes {
		if n.Kind != Const {
			continue
		}
		if len(n.Children) == 0 && lift(n.Label) {
			if _, ok := index[n.Label]; !ok {
				index[n.Label] = len(args)
				args = append(args, n.Label)
			}
		} else if strings.HasPrefix(n.Label, paramPrefix) {
			return p, nil
		}
	}
	if len(args) == 0 {
		return p, nil
	}
	for i := range args {
		if !lift(paramPrefix + strconv.Itoa(i)) {
			return p, nil
		}
	}
	return NewPattern(p.root.relabelled(func(n *Node) string {
		if n.Kind == Const && len(n.Children) == 0 {
			if i, ok := index[n.Label]; ok {
				return paramPrefix + strconv.Itoa(i)
			}
		}
		return n.Label
	})), args
}

// Bind returns a copy of p, a shape (see Lift) or a query generated from
// one, with parameter i replaced by args[i]. The copy keeps every node ID.
func (p *Pattern) Bind(args []string) *Pattern {
	return NewPattern(p.root.relabelled(func(n *Node) string {
		if n.Kind == Const {
			if i, ok := param(n.Label); ok && i < len(args) {
				return args[i]
			}
		}
		return n.Label
	}))
}

// ResultNodes returns the result nodes of the pattern, in pre-order.
func (p *Pattern) ResultNodes() []*Node {
	var out []*Node
	for _, n := range p.nodes {
		if n.Result {
			out = append(out, n)
		}
	}
	return out
}

// Variables returns the distinct variable names used by the pattern, in
// first-occurrence order.
func (p *Pattern) Variables() []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range p.nodes {
		if n.Kind == Var && !seen[n.Label] {
			seen[n.Label] = true
			out = append(out, n.Label)
		}
	}
	return out
}

// FuncNodes returns the function nodes of the pattern, in pre-order.
func (p *Pattern) FuncNodes() []*Node {
	var out []*Node
	for _, n := range p.nodes {
		if n.Kind == Func {
			out = append(out, n)
		}
	}
	return out
}

// Sub returns a new pattern consisting of the subtree rooted at v (which
// must belong to p), re-anchored: the subquery's root keeps v's incoming
// edge kind below a fresh anchor. This is the sub_v of Section 5 of the
// paper, and the subquery pushed over calls retrieved for v (Section 7).
func (p *Pattern) Sub(v *Node) *Pattern {
	root := NewNode(Root, "", Child)
	c := v.clone()
	root.Add(c)
	return NewPattern(root)
}

// LinearSteps returns the linear path from the pattern root down to v
// (inclusive) as regex path steps: the lin part used by the influence
// analysis of Section 4.2 (there, v itself is excluded — pass v.Parent).
// Star and Var nodes contribute wildcard steps. It panics on Or and Func
// nodes, which never occur on the linear part of an NFQ.
func (p *Pattern) LinearSteps(v *Node) []regex.PathStep {
	var rev []*Node
	for x := v; x != nil && x.Kind != Root; x = x.Parent {
		rev = append(rev, x)
	}
	steps := make([]regex.PathStep, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		n := rev[i]
		var label string
		switch n.Kind {
		case Const:
			label = n.Label
		case Star, Var:
			label = regex.Any
		default:
			panic(fmt.Sprintf("pattern: LinearSteps through %v node", n.Kind))
		}
		steps = append(steps, regex.PathStep{Label: label, AnyDepth: n.Edge == Desc})
	}
	return steps
}

// String renders the pattern in the canonical textual form accepted by
// Parse: every child is rendered as a bracketed branch, result nodes carry
// a "!" suffix, OR nodes render as (alt1|alt2), function nodes as name()
// or (). The canonical form is used as the fingerprint of pushed
// subqueries, so it is deterministic.
func (p *Pattern) String() string {
	var sb strings.Builder
	for _, c := range p.root.Children {
		sb.WriteString(c.Edge.String())
		writeStep(&sb, c, true)
	}
	return sb.String()
}

// writeStep renders one step. When allowSpine is true (the grammar allows
// a /tail here, i.e. everywhere except inside OR alternatives), the last
// child is rendered as a spine continuation and the others as bracketed
// predicates; otherwise every child is a predicate.
func writeStep(sb *strings.Builder, n *Node, allowSpine bool) {
	switch n.Kind {
	case Const:
		if isName(n.Label) {
			sb.WriteString(n.Label)
		} else {
			quoteValue(sb, n.Label)
		}
	case Star:
		sb.WriteString("*")
	case Var:
		sb.WriteString("$" + n.Label)
	case Func:
		if n.Label == AnyFunc {
			sb.WriteString("()")
		} else {
			sb.WriteString(n.Label + "()")
		}
	case Or:
		sb.WriteString("(")
		for i, alt := range n.Children {
			if i > 0 {
				sb.WriteString("|")
			}
			writeStep(sb, alt, false)
		}
		sb.WriteString(")")
		if n.Result {
			sb.WriteString("!")
		}
		return
	default:
		sb.WriteString("#root")
	}
	if n.Result {
		sb.WriteString("!")
	}
	last := len(n.Children) - 1
	for i, c := range n.Children {
		if allowSpine && i == last {
			sb.WriteString(c.Edge.String())
			writeStep(sb, c, true)
			continue
		}
		sb.WriteString("[")
		if c.Edge == Desc {
			sb.WriteString("//")
		}
		writeStep(sb, c, true)
		sb.WriteString("]")
	}
}

// quoteValue renders a data value in the parser's own quoting syntax:
// only '"' and '\' are escaped (with a backslash), every other byte is
// literal. Go-style %q escaping would not survive the round trip — the
// parser reads \x as a literal x — and the canonical form is a byte-exact
// fingerprint, so the two sides must share one escaping convention.
func quoteValue(sb *strings.Builder, s string) {
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' || c == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(c)
	}
	sb.WriteByte('"')
}

// isName reports whether s is safe to render unquoted: it must lex as a
// name, i.e. match the parser's isNameStart/isNameChar exactly (a leading
// '-' or digit would not re-parse as a name).
func isName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		start := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if i == 0 && !start {
			return false
		}
		if !start && c != '-' && !(c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

// Fingerprint returns the canonical serialisation of the subquery rooted
// at v, used to tag pushed-call results (tree.Node.PushedQuery).
func (p *Pattern) Fingerprint(v *Node) string {
	return p.Sub(v).String()
}
