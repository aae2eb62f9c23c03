package schema

import "github.com/activexml/axml/internal/pattern"

// Projection is the type-based document-projection predicate of
// Benzaken, Castagna, Colazzo & Nguyễn, specialised to the paper's
// satisfiability analysis: an element labelled L can be skipped wholesale
// while searching candidates for the query subtree rooted at v exactly
// when desc(L, v) is false — no tree derived from L contains a match of
// sub_v at its root or anywhere below, not even after expanding the
// service calls its content model allows. The pattern evaluator consults
// it during descendant enumeration (pattern.Projector), so evaluation
// cost scales with the projected document instead of the full one.
//
// Soundness is relative to the analyzer's assumptions, the same ones
// that already govern typed relevance pruning (Section 5): the document
// conforms to the schema and services conform to their signatures.
// Labels the schema does not declare as elements are never pruned — an
// unknown element may contain anything — and non-element nodes (text,
// calls, pushed tuples) are never pruned either.
//
// A Projection is immutable after construction and safe for concurrent
// readers; one instance may be shared by every evaluator shard of a
// query.
type Projection struct {
	an      *Analyzer
	nodes   int
	trivial bool
}

var _ pattern.Projector = (*Projection)(nil)

// Projection derives the projection predicate from the analyzer's desc
// table, reusing the already-computed fixpoint.
func (a *Analyzer) Projection() *Projection {
	p := &Projection{an: a, nodes: len(a.q.Nodes()), trivial: true}
	for sym, si := range a.symIndex {
		if !a.schema.IsElement(sym) {
			continue
		}
		for _, v := range a.q.Nodes() {
			if v.Kind == pattern.Root {
				continue
			}
			if !a.desc[si][v.ID] {
				p.trivial = false
				return p
			}
		}
	}
	return p
}

// NewProjection builds the satisfiability tables for (s, q) and derives
// the projection predicate. When an Analyzer for the pair already
// exists, use its Projection method instead of paying the fixpoint
// twice.
func NewProjection(s *Schema, q *pattern.Pattern, mode Mode) *Projection {
	return NewAnalyzer(s, q, mode).Projection()
}

// CanMatchBelow reports whether an element labelled label can contain a
// match of the query subtree rooted at node id, at the element itself or
// anywhere below. It is conservative: unknown labels and foreign node
// IDs answer true.
func (p *Projection) CanMatchBelow(label string, id int) bool {
	si, ok := p.an.symIndex[label]
	if !ok || !p.an.schema.IsElement(label) {
		return true
	}
	if id < 0 || id >= p.nodes {
		return true
	}
	return p.an.desc[si][id]
}

// CanMatchAnyBelow reports whether an element labelled label can
// contain a match of ANY query subtree, at the element or anywhere
// below — the disjunction of CanMatchBelow over every non-root query
// node. When it answers false the element's whole region is dead for
// this query: no query node can match inside it, so an index over call
// positions (the F-guide) may skip the region entirely without losing a
// candidate. Conservative like CanMatchBelow: unknown labels answer
// true.
func (p *Projection) CanMatchAnyBelow(label string) bool {
	si, ok := p.an.symIndex[label]
	if !ok || !p.an.schema.IsElement(label) {
		return true
	}
	for _, v := range p.an.q.Nodes() {
		if v.Kind == pattern.Root {
			continue
		}
		if p.an.desc[si][v.ID] {
			return true
		}
	}
	return false
}

// Trivial reports that no (element, query node) pair is prunable: the
// projection can never skip a subtree, so installing it buys nothing.
// Callers use it to skip the per-node predicate on schemas too loose to
// help.
func (p *Projection) Trivial() bool { return p.trivial }
