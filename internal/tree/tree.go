// Package tree implements the Active XML (AXML) document model: ordered
// labelled trees whose nodes are either data nodes (elements and text
// values) or function nodes (embedded calls to Web services).
//
// The model follows Section 2 of "Lazy Query Evaluation for Active XML"
// (Abiteboul et al., SIGMOD 2004). Data nodes carry element names (inner
// nodes) or data values (leaves). Function nodes are labelled with the name
// of the service they call; their children subtrees are the call's
// parameters. Invoking a call replaces the function node, in place, by the
// forest of trees the service returned — see Document.ReplaceCall.
//
// A third node kind, Tuples, does not appear in the paper's core model: it
// materialises the result of a call over which a subquery was *pushed*
// (Section 7 of the paper). Instead of a full result forest, a push-capable
// service returns bindings for the subquery's result variables; a Tuples
// node records those bindings together with a fingerprint of the pushed
// subquery, and the pattern evaluator treats it as a virtual match.
package tree

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Kind discriminates the three node kinds of an AXML tree.
type Kind uint8

const (
	// Element is a data node labelled with an element name.
	Element Kind = iota
	// Text is a data leaf labelled with a data value.
	Text
	// Call is a function node labelled with a service name. Its children
	// are the parameters of the call.
	Call
	// Tuples is the materialised result of a call invoked with a pushed
	// subquery: a set of variable-binding tuples standing for the
	// embeddings the remote service found (Section 7 of the paper).
	Tuples
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Text:
		return "text"
	case Call:
		return "call"
	case Tuples:
		return "tuples"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Binding maps variable names of a pushed subquery to the data values the
// remote service bound them to.
type Binding map[string]string

// Clone returns a deep copy of the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// String renders the binding deterministically, e.g. {X=In Delis, Y=2nd Av}.
func (b Binding) String() string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%s", k, b[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

// Node is a single node of an AXML tree. Nodes must only be created through
// the constructors (NewElement, NewText, NewCall, NewTuples) and attached
// with Append so that parent pointers stay consistent.
type Node struct {
	// Kind tells whether this is a data node, a function node, or a
	// pushed-result node.
	Kind Kind
	// Label is the element name (Element), the data value (Text), or the
	// service name (Call). It is empty for Tuples nodes.
	Label string
	// Parent is the parent node, nil for a root or detached node.
	Parent *Node
	// Children holds the ordered children subtrees. For Call nodes these
	// are the call parameters.
	Children []*Node

	// ID is a document-unique identifier assigned when the node is
	// attached to a Document. It is stable across mutations and is used
	// by access structures (F-guides) to keep extents consistent.
	ID uint64

	// PushedQuery is the fingerprint (canonical serialisation) of the
	// subquery that was pushed over the call this Tuples node replaced.
	// Only meaningful when Kind == Tuples.
	PushedQuery string
	// PushedBindings holds the binding tuples returned by the service.
	// Only meaningful when Kind == Tuples.
	PushedBindings []Binding
}

// NewElement returns a detached element node with the given name.
func NewElement(name string) *Node { return &Node{Kind: Element, Label: name} }

// NewText returns a detached text leaf carrying the given data value.
func NewText(value string) *Node { return &Node{Kind: Text, Label: value} }

// NewCall returns a detached function node calling the named service, with
// the given parameter subtrees as children.
func NewCall(service string, params ...*Node) *Node {
	n := &Node{Kind: Call, Label: service}
	for _, p := range params {
		n.Append(p)
	}
	return n
}

// NewTuples returns a detached pushed-result node for the given subquery
// fingerprint and binding tuples.
func NewTuples(pushedQuery string, bindings []Binding) *Node {
	return &Node{Kind: Tuples, PushedQuery: pushedQuery, PushedBindings: bindings}
}

// IsData reports whether the node is a data node (element or text). Only
// data nodes participate in query embeddings (Definition 1 of the paper);
// function nodes are matched only by the function nodes of extended
// patterns.
func (n *Node) IsData() bool { return n.Kind == Element || n.Kind == Text }

// Append attaches child as the last child of n and returns child.
// It panics if child already has a parent: a node belongs to at most one
// tree, and silently re-parenting would corrupt the previous tree.
func (n *Node) Append(child *Node) *Node {
	if child.Parent != nil {
		panic("tree: Append of a node that already has a parent")
	}
	child.Parent = n
	n.Children = append(n.Children, child)
	return child
}

// Path returns the labels of the nodes from the root down to n, inclusive.
// It is the path the F-guide indexes function nodes under.
func (n *Node) Path() []string {
	var rev []string
	for x := n; x != nil; x = x.Parent {
		rev = append(rev, x.Label)
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PathString returns Path joined with "/", prefixed with "/".
func (n *Node) PathString() string {
	return "/" + strings.Join(n.Path(), "/")
}

// Clone returns a deep copy of the subtree rooted at n. The copy is
// detached (nil parent) and carries zero IDs; attach it to a Document (or
// pass it through Document.Adopt) to assign fresh identifiers.
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Label: n.Label, PushedQuery: n.PushedQuery}
	if len(n.PushedBindings) > 0 {
		c.PushedBindings = make([]Binding, len(n.PushedBindings))
		for i, b := range n.PushedBindings {
			c.PushedBindings[i] = b.Clone()
		}
	}
	for _, ch := range n.Children {
		c.Append(ch.Clone())
	}
	return c
}

// CloneForest returns deep, detached copies of the given subtrees, in
// order — what a call's parameters are sent as, so that the service
// cannot reach back into the document.
func CloneForest(ns []*Node) []*Node {
	out := make([]*Node, len(ns))
	for i, n := range ns {
		out[i] = n.Clone()
	}
	return out
}

// Walk calls fn for every node of the subtree rooted at n, in document
// order (pre-order). If fn returns false the children of the current node
// are skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Size returns the number of nodes in the subtree rooted at n.
func (n *Node) Size() int {
	s := 0
	n.Walk(func(*Node) bool { s++; return true })
	return s
}

// Equal reports whether the two subtrees are structurally identical: same
// kinds, labels, pushed payloads and child sequences. IDs and parents are
// ignored.
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Kind != o.Kind || n.Label != o.Label || n.PushedQuery != o.PushedQuery {
		return false
	}
	if len(n.PushedBindings) != len(o.PushedBindings) {
		return false
	}
	for i, b := range n.PushedBindings {
		if b.String() != o.PushedBindings[i].String() {
			return false
		}
	}
	if len(n.Children) != len(o.Children) {
		return false
	}
	for i, c := range n.Children {
		if !c.Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// Text returns the concatenation of the data values of the text leaves of
// the subtree rooted at n, in document order. For a Text node this is its
// value.
func (n *Node) Text() string {
	var sb strings.Builder
	n.Walk(func(x *Node) bool {
		if x.Kind == Text {
			sb.WriteString(x.Label)
		}
		return true
	})
	return sb.String()
}

// Value returns the data value of the node if it is an element whose single
// child is a text leaf (the common <name>value</name> shape), the value
// itself for a text leaf, and "" otherwise.
func (n *Node) Value() string {
	switch n.Kind {
	case Text:
		return n.Label
	case Element:
		if len(n.Children) == 1 && n.Children[0].Kind == Text {
			return n.Children[0].Label
		}
	}
	return ""
}

// Child returns the first child element with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Kind == Element && c.Label == name {
			return c
		}
	}
	return nil
}

// Document owns an AXML tree and assigns document-unique node identifiers.
// A Document tracks a version counter, bumped on every mutation, that
// access structures use to detect staleness, and records its latest splices
// (SplicesSince), from which they catch up.
//
// A Document is not safe for concurrent use, with one exception: Version
// may be read while the tree is being mutated. Each mutation bumps it as its
// last step, its commit point, so a reader that still sees version v knows
// the tree is the one v stood for, or is being changed away from it by a
// mutation that has not committed yet.
type Document struct {
	// Root is the document root, always a data node in well-formed AXML.
	Root *Node

	nextID  uint64
	version atomic.Uint64
	// splices records the latest ReplaceCalls, oldest first, the last one
	// to version. Adopt empties it.
	splices []Splice
}

// MaxSplices bounds the splice records a Document keeps. Once it holds that
// many, the older half is dropped, so it always keeps at least the latest
// MaxSplices/2.
const MaxSplices = 4096

// Splice records one rewriting step (ReplaceCall): the call subtree Removed
// was detached from Parent and a forest spliced in its place. Calls are the
// forest's function nodes outside other calls' parameters, in document
// order — the ones a relevance query can retrieve and an F-guide indexes —
// and Nested those inside; Nodes and Pending are the changes to the
// document's node and function-node counts.
type Splice struct {
	Parent, Removed *Node
	Calls, Nested   []*Node
	Nodes, Pending  int
}

// NewDocument wraps root into a Document and assigns IDs to every node of
// the tree.
func NewDocument(root *Node) *Document {
	d := &Document{Root: root, nextID: 1}
	d.Adopt(root)
	return d
}

// Version returns the mutation counter of the document. It increases
// whenever the tree is structurally modified through the Document API, as
// the mutation's last step. It is the one method safe to call concurrently
// with a mutation.
func (d *Document) Version() uint64 { return d.version.Load() }

// Adopt assigns fresh IDs to every node of the given subtree that does not
// have one yet. It must be called for subtrees attached to the document
// outside of ReplaceCall. Such a mutation leaves no splice record:
// SplicesSince cannot describe it, nor anything before it.
func (d *Document) Adopt(n *Node) {
	n.Walk(func(x *Node) bool {
		d.identify(x)
		return true
	})
	d.splices = nil
	d.version.Add(1)
}

// identify gives x a fresh ID unless it has one.
func (d *Document) identify(x *Node) {
	if x.ID == 0 {
		x.ID = d.nextID
		d.nextID++
	}
}

// ReplaceCall implements the rewriting step of Definition 2: the function
// node call (and the subtree rooted at it, i.e. its parameters) is deleted
// and the trees of the result forest are plugged in its place, preserving
// document order. In one walk of the forest its nodes are adopted (assigned
// fresh IDs) and the splice recorded; ReplaceCall returns the record.
//
// It panics if call is not a function node, if it is detached, or if it is
// the document root (AXML documents have a data root).
func (d *Document) ReplaceCall(call *Node, forest []*Node) Splice {
	if call.Kind != Call {
		panic("tree: ReplaceCall on a non-function node")
	}
	p := call.Parent
	if p == nil {
		panic("tree: ReplaceCall on a detached or root function node")
	}
	i := slices.Index(p.Children, call)
	if i < 0 {
		panic("tree: ReplaceCall: corrupted parent link")
	}
	s := Splice{Parent: p, Removed: call}
	call.Walk(func(x *Node) bool {
		s.Nodes--
		if x.Kind == Call {
			s.Pending--
		}
		return true
	})
	var walk func(x *Node, param bool)
	walk = func(x *Node, param bool) {
		d.identify(x)
		s.Nodes++
		if x.Kind == Call {
			s.Pending++
			if param {
				s.Nested = append(s.Nested, x)
			} else {
				s.Calls = append(s.Calls, x)
			}
			param = true
		}
		for _, c := range x.Children {
			walk(c, param)
		}
	}
	for _, t := range forest {
		if t.Parent != nil {
			panic("tree: ReplaceCall result tree already has a parent")
		}
		t.Parent = p
		walk(t, false)
	}
	p.Children = slices.Concat(p.Children[:i], forest, p.Children[i+1:])
	call.Parent = nil
	if len(d.splices) == MaxSplices {
		n := copy(d.splices, d.splices[MaxSplices/2:])
		clear(d.splices[n:])
		d.splices = d.splices[:n]
	}
	d.splices = append(d.splices, s)
	d.version.Add(1) // the commit point: readers of Version see the splice from here
	return s
}

// SplicesSince returns the records of the splices that took the document
// from version v to its current one, oldest first, and true; false when it
// cannot say — since v the document was changed by Adopt, or spliced more
// times than it still keeps records of. The records are the document's own:
// read them before it next changes.
func (d *Document) SplicesSince(v uint64) ([]Splice, bool) {
	now := d.version.Load()
	if v > now || now-v > uint64(len(d.splices)) {
		return nil, false
	}
	return d.splices[len(d.splices)-int(now-v):], true
}

// Calls returns all function nodes of the document, in document order.
func (d *Document) Calls() []*Node {
	var out []*Node
	d.Root.Walk(func(n *Node) bool {
		if n.Kind == Call {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Size returns the number of nodes in the document.
func (d *Document) Size() int { return d.Root.Size() }

// Clone returns an independent deep copy of the document. Node IDs are
// reassigned in the copy; structural equality is preserved.
func (d *Document) Clone() *Document {
	return NewDocument(d.Root.Clone())
}
