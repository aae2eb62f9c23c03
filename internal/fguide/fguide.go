// Package fguide implements the function call guides of Section 6.2 of
// "Lazy Query Evaluation for Active XML" (SIGMOD 2004): a dataguide-style
// trie that summarises, with a single occurrence per path, the label paths
// of the document that lead to function nodes, together with their extents
// (pointers to the function nodes found under each path).
//
// Linear path queries yield the same candidate set on a document and on
// its F-guide, and the guide is typically far smaller, which is what makes
// relevance detection fast: the engine runs the linear part of each
// relevance query on the guide and then filters the (few) candidates by
// output type and by the residual conditions of the NFQ.
package fguide

import (
	"fmt"
	"sort"
	"strings"

	"github.com/activexml/axml/internal/regex"
	"github.com/activexml/axml/internal/tree"
)

// Guide is an F-guide over one document. It must be kept in sync with the
// document through ApplyExpansion as calls are invoked; Synced reports
// whether it has seen every mutation.
type Guide struct {
	doc     *tree.Document
	root    *gnode
	where   map[*tree.Node]*gnode // call → trie node holding it
	version uint64
	paths   int
}

// gnode is one trie node: a distinct label path of the document under
// which at least one function node occurs (or occurred; emptied nodes are
// pruned unless they still have children).
type gnode struct {
	label    string
	parent   *gnode
	children map[string]*gnode
	extent   []*tree.Node
}

// Build constructs the F-guide of the document in a single document-order
// traversal (linear time, as the paper notes).
func Build(doc *tree.Document) *Guide {
	return BuildFiltered(doc, nil)
}

// BuildFiltered constructs the F-guide while skipping every element
// subtree whose label the keep predicate rejects — the projection-aware
// construction: regions a type-based projection proves irrelevant for
// the query at hand are never indexed, so the guide stays proportional
// to the projected document. A nil keep indexes everything (Build).
//
// Soundness mirrors the projection's: a skipped subtree must be one no
// relevance query of the driving user query can match into, so the calls
// under it can never be retrieved as relevant. The resulting guide is a
// restriction of the full guide; every Candidates answer is a subset.
func BuildFiltered(doc *tree.Document, keep func(label string) bool) *Guide {
	g := &Guide{
		doc:     doc,
		root:    &gnode{children: map[string]*gnode{}},
		where:   map[*tree.Node]*gnode{},
		version: doc.Version(),
	}
	var walk func(n *tree.Node, at *gnode)
	walk = func(n *tree.Node, at *gnode) {
		if n.Kind == tree.Call {
			g.attach(at, n)
			return
		}
		if n.Kind != tree.Element {
			return
		}
		if keep != nil && !keep(n.Label) {
			return
		}
		next := g.child(at, n.Label)
		for _, c := range n.Children {
			walk(c, next)
		}
	}
	// The root element's own label is the first path component.
	walk(doc.Root, g.root)
	g.prune(g.root)
	return g
}

// Doc returns the document this guide indexes.
func (g *Guide) Doc() *tree.Document { return g.doc }

// child returns (creating if needed) the trie child for a label.
func (g *Guide) child(at *gnode, label string) *gnode {
	if c, ok := at.children[label]; ok {
		return c
	}
	c := &gnode{label: label, parent: at, children: map[string]*gnode{}}
	at.children[label] = c
	return c
}

func (g *Guide) attach(at *gnode, call *tree.Node) {
	if len(at.extent) == 0 {
		g.paths++
	}
	at.extent = append(at.extent, call)
	g.where[call] = at
}

// prune drops trie branches with no extent anywhere below, so the guide
// only keeps paths leading to function calls.
func (g *Guide) prune(n *gnode) bool {
	useful := len(n.extent) > 0
	for label, c := range n.children {
		if g.prune(c) {
			useful = true
		} else {
			delete(n.children, label)
		}
	}
	return useful
}

// remove unregisters a function node; a node the guide does not index is
// a no-op. Emptied trie branches are pruned.
func (g *Guide) remove(call *tree.Node) {
	at, ok := g.where[call]
	if !ok {
		return
	}
	delete(g.where, call)
	// An extent built over a freshly parsed or decoded document is in
	// ascending ID order and attach keeps it so (adopted nodes get fresh,
	// larger IDs), so the call is found by bisection; only a guide built
	// over an already expanded document needs the scan.
	i := sort.Search(len(at.extent), func(i int) bool { return at.extent[i].ID >= call.ID })
	if i == len(at.extent) || at.extent[i] != call {
		for i = 0; at.extent[i] != call; i++ {
		}
	}
	at.extent = append(at.extent[:i], at.extent[i+1:]...)
	if len(at.extent) == 0 {
		g.paths--
		for n := at; n.parent != nil && len(n.extent) == 0 && len(n.children) == 0; n = n.parent {
			delete(n.parent.children, n.label)
		}
	}
}

// add registers a function node newly inserted into the document (e.g.
// found in a call result). The node must be attached to the document.
// Adding an already-indexed call is a no-op, which is what makes
// ApplyExpansion idempotent.
func (g *Guide) add(call *tree.Node) {
	if call.Kind != tree.Call {
		panic("fguide: add of a non-call node")
	}
	if _, dup := g.where[call]; dup {
		return
	}
	at := g.root
	path := call.Path()
	for _, label := range path[:len(path)-1] {
		at = g.child(at, label)
	}
	g.attach(at, call)
}

// ApplyExpansion incorporates one call expansion, as the document recorded
// it (tree.Document.ReplaceCall), into the guide: the expanded call leaves
// the index, the calls the forest brought in outside other calls'
// parameters enter it — whatever filter the guide was built under
// (BuildFiltered restricts construction only) — and the guide is stamped as
// current with the document. It is the guide's one mutator, called once per
// splice by the engine that made it — a persistent index (the session
// layer's, a repository's) is patched by being the guide that engine
// adopted. Applying the same expansion again only restamps the version. An
// empty forest (a service that returned nothing) is an ordinary expansion
// that adds no call.
func (g *Guide) ApplyExpansion(s tree.Splice) {
	g.remove(s.Removed)
	for _, c := range s.Calls {
		g.add(c)
	}
	g.version = g.doc.Version()
}

// Synced reports whether the guide has incorporated every document
// mutation (its version matches the document's).
func Synced(g *Guide) bool { return g.version == g.doc.Version() }

// Paths returns the number of distinct call-bearing paths in the guide.
func (g *Guide) Paths() int { return g.paths }

// Calls returns the number of function nodes currently indexed.
func (g *Guide) Calls() int { return len(g.where) }

// Candidates evaluates a linear path query on the guide: lin is the label
// path the call's *parent* must match (wildcard steps use regex.Any;
// AnyDepth steps may be preceded by arbitrary labels), and descTail
// selects whether the call may also sit at any depth below a lin match
// (descendant-edge targets). The result is every function node in the
// extents of the matching trie nodes, in ascending node-ID order.
func (g *Guide) Candidates(lin []regex.PathStep, descTail bool) []*tree.Node {
	seen := map[*tree.Node]bool{}
	var out []*tree.Node
	var take func(n *gnode, deep bool)
	take = func(n *gnode, deep bool) {
		for _, c := range n.extent {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		if deep {
			for _, ch := range n.children {
				take(ch, true)
			}
		}
	}
	for n := range g.reach(lin) {
		take(n, descTail)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// HasCandidates reports whether Candidates(lin, descTail) is non-empty,
// from the trie alone: the cost is in the number of distinct paths, not of
// calls.
func (g *Guide) HasCandidates(lin []regex.PathStep, descTail bool) bool {
	var holds func(n *gnode) bool
	holds = func(n *gnode) bool {
		if len(n.extent) > 0 {
			return true
		}
		if descTail {
			for _, ch := range n.children {
				if holds(ch) {
					return true
				}
			}
		}
		return false
	}
	for n := range g.reach(lin) {
		if holds(n) {
			return true
		}
	}
	return false
}

// reach runs the linear path on the trie and returns the nodes it ends at.
func (g *Guide) reach(lin []regex.PathStep) map[*gnode]bool {
	cur := map[*gnode]bool{g.root: true}
	for _, step := range lin {
		next := map[*gnode]bool{}
		if step.AnyDepth {
			for n := range cur {
				collectDescendants(n, step.Label, next)
			}
		} else {
			for n := range cur {
				for label, c := range n.children {
					if step.Label == regex.Any || step.Label == label {
						next[c] = true
					}
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		cur = next
	}
	return cur
}

// collectDescendants adds to out every proper descendant of n whose label
// matches (regex.Any matches all).
func collectDescendants(n *gnode, label string, out map[*gnode]bool) {
	for _, c := range n.children {
		if label == regex.Any || label == c.label {
			out[c] = true
		}
		collectDescendants(c, label, out)
	}
}

// ToDocument materialises the guide as an AXML document — "since
// F-guides are trees, they can naturally be represented as XML documents,
// and therefore be serialized and queried just as the data they
// summarize" (Section 6.2). Each trie node becomes an element with its
// label; each indexed call becomes a call node to the same service at the
// corresponding path. Evaluating a linear path query over the guide
// document therefore retrieves one representative call per (path,
// service) occurrence, mirroring Candidates.
func (g *Guide) ToDocument() *tree.Document {
	var build func(n *gnode, parent *tree.Node)
	build = func(n *gnode, parent *tree.Node) {
		for _, c := range n.extent {
			parent.Append(tree.NewCall(c.Label))
		}
		labels := make([]string, 0, len(n.children))
		for l := range n.children {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			e := parent.Append(tree.NewElement(l))
			build(n.children[l], e)
		}
	}
	// The trie's single first level is the summarised document's root
	// element (the virtual trie root holds no extents: calls always have
	// a data parent). A guide with no calls at all summarises to an
	// empty placeholder root.
	if len(g.root.children) == 1 {
		for label, child := range g.root.children {
			root := tree.NewElement(label)
			build(child, root)
			return tree.NewDocument(root)
		}
	}
	return tree.NewDocument(tree.NewElement("fguide"))
}

// String renders the guide as an indented path tree with extent sizes, in
// the spirit of the paper's Figure 8. Deterministic for tests and
// debugging.
func (g *Guide) String() string {
	var sb strings.Builder
	var walk func(n *gnode, depth int)
	walk = func(n *gnode, depth int) {
		if n != g.root {
			sb.WriteString(strings.Repeat("  ", depth-1))
			sb.WriteString(n.label)
			if len(n.extent) > 0 {
				fmt.Fprintf(&sb, " (%d call", len(n.extent))
				if len(n.extent) > 1 {
					sb.WriteString("s")
				}
				sb.WriteString(")")
			}
			sb.WriteString("\n")
		}
		labels := make([]string, 0, len(n.children))
		for l := range n.children {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			walk(n.children[l], depth+1)
		}
	}
	walk(g.root, 0)
	return sb.String()
}
