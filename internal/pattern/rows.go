package pattern

import (
	"slices"

	"github.com/activexml/axml/internal/tree"
)

// memoEntry is the memoised solution set of one (query node, document node)
// pair; its presence in the memo distinguishes "computed, no solutions"
// from "not computed".
//
// When the query node has exactly one requirement the entry is rowed: its
// solutions are kept as rows, one per candidate child of the document node
// that contributes any — the child itself for a child edge, the child and
// its descendants for a descendant edge — each row lifted to the query node,
// deduplicated within itself and in document order. A splice below the
// document node changes the subtree of one child only, so it leaves the
// entry in place and marks that child stale (Invalidate); the next read
// re-joins the stale children's rows and keeps every other row as it is —
// its solutions are not merged, keyed or copied again. The entry's
// deduplicated sequence is the rows in child order with each solution kept
// at its first occurrence, which count tells without a scan: it holds, per
// key, how many rows hold that solution. That is exactly the sequence a
// fresh join yields.
type memoEntry struct {
	// sols is the entry's solution set, deduplicated in first-occurrence
	// order. It is current while ready; a rowed entry derives it from its
	// rows when first asked after a change.
	sols  []solution
	rows  []row // a rowed entry's non-empty rows, in child order
	rowed bool
	ready bool
	ix    *rowIndex // a rowed entry's counts and stale children; nil until needed
}

// rowIndex is the bookkeeping of a rowed entry beyond its rows, kept apart
// so that the many entries that need none stay small.
type rowIndex struct {
	// count holds, per solution key, the number of rows holding it, and dups
	// the keys more than one row holds. It is nil while the entry has had at
	// most one row; once set, every row carries its keys and count covers
	// them all.
	count map[string]int
	dups  int
	// stale lists the children whose subtree a splice changed since their
	// rows were joined.
	stale []*tree.Node
}

// unmatched is the entry of every pair whose query node does not admit the
// document node (admits): no solutions, nothing below to keep. Shared and
// never modified.
var unmatched = &memoEntry{ready: true}

// row is what one candidate child contributes to a rowed entry. Its slices
// are never modified once made, so a kept row can be shared and compared by
// identity.
type row struct {
	cand *tree.Node
	sols []solution
	keys []string // the keys of sols; nil until the entry needs them
}

// size is the number of rows the entry keeps: its rows, or its one piece.
func (e *memoEntry) size() int {
	if e.rowed {
		return len(e.rows)
	}
	if len(e.sols) > 0 {
		return 1
	}
	return 0
}

// match returns the solutions for embedding the query subtree rooted at v
// with v mapped to doc node n. Results are memoised: they only depend on
// (v, n).
func (ev *IncrementalEvaluator) match(v *Node, n *tree.Node) []solution {
	return ev.entry(v, n).solutions()
}

// entry returns the up-to-date memo entry of (v, n): read off the memo,
// re-joined where splices made it stale, or computed.
func (ev *IncrementalEvaluator) entry(v *Node, n *tree.Node) *memoEntry {
	key := memoKey{v.ID, n}
	if e, ok := ev.memo[key]; ok {
		if e.ix == nil || len(e.ix.stale) == 0 {
			ev.work.MemoHits++
		} else {
			ev.refresh(e, v, n)
		}
		return e
	}
	ev.work.NodesVisited++
	if !admits(v, n) {
		ev.memo[key] = unmatched
		return unmatched
	}
	e := &memoEntry{} // inserted before computing; trees have no cycles
	ev.memo[key] = e
	switch {
	case v.Kind != Or && len(v.Children) == 1:
		e.rowed = true
		c := v.Children[0]
		for _, ch := range n.Children {
			if r := ev.rowOf(v, c, n, ch); len(r.sols) > 0 {
				e.rows = append(e.rows, r)
			}
		}
		if len(e.rows) > 1 {
			e.index()
		}
	default:
		e.sols, e.ready = ev.joinMatch(v, n), true
	}
	ev.rows += e.size()
	return e
}

// refresh re-joins the rows of a rowed entry's stale children. Their rows
// are replaced, dropped or inserted in place and the key counts follow;
// every other row stays.
func (ev *IncrementalEvaluator) refresh(e *memoEntry, v *Node, n *tree.Node) {
	ev.work.NodesVisited++
	before := len(e.rows)
	stale := e.ix.stale
	e.ix.stale = nil
	c := v.Children[0]
	j := 0 // the first row not yet passed
	for _, ch := range n.Children {
		had := j < len(e.rows) && e.rows[j].cand == ch
		if !slices.Contains(stale, ch) {
			if had {
				j++
			}
			continue
		}
		r := ev.rowOf(v, c, n, ch)
		if had && e.ix.count != nil {
			e.ix.uncount(e.rows[j].keys)
		}
		switch {
		case len(r.sols) == 0 && had:
			e.rows = slices.Delete(e.rows, j, j+1)
			continue
		case len(r.sols) == 0:
			continue
		case had:
			e.rows[j] = r
		default:
			e.rows = slices.Insert(e.rows, j, r)
		}
		if e.ix.count != nil {
			if e.rows[j].keys == nil {
				e.rows[j].keys = keysOf(r.sols)
			}
			e.ix.tally(e.rows[j].keys)
		}
		j++
	}
	if e.ix.count == nil && len(e.rows) > 1 {
		e.index()
	}
	e.sols, e.ready = nil, false
	ev.rows += len(e.rows) - before
}

// solutions returns the entry's solution set, deriving it from the rows
// when they changed since it was last asked.
func (e *memoEntry) solutions() []solution {
	if e.ready {
		return e.sols
	}
	e.ready = true
	switch len(e.rows) {
	case 0:
		e.sols = nil
	case 1:
		e.sols = e.rows[0].sols
	default:
		n := 0
		for _, r := range e.rows {
			n += len(r.sols)
		}
		e.sols = make([]solution, 0, n)
		var given map[string]bool // keys held by several rows, once given
		if e.ix.dups > 0 {
			given = map[string]bool{}
		}
		for _, r := range e.rows {
			if given == nil {
				e.sols = append(e.sols, r.sols...)
				continue
			}
			for i, s := range r.sols {
				if k := r.keys[i]; e.ix.count[k] > 1 {
					if given[k] {
						continue
					}
					given[k] = true
				}
				e.sols = append(e.sols, s)
			}
		}
	}
	return e.sols
}

// index keys every row that is not keyed yet, all in one array, and counts
// the keys.
func (e *memoEntry) index() {
	n := 0
	for _, r := range e.rows {
		if r.keys == nil {
			n += len(r.sols)
		}
	}
	keys := make([]string, 0, n)
	if e.ix == nil {
		e.ix = &rowIndex{}
	}
	e.ix.count = make(map[string]int, len(e.rows))
	for i := range e.rows {
		r := &e.rows[i]
		if r.keys == nil {
			from := len(keys)
			for _, s := range r.sols {
				keys = append(keys, s.key())
			}
			r.keys = keys[from:len(keys):len(keys)]
		}
		e.ix.tally(r.keys)
	}
}

// tally counts one more row holding keys; uncount one fewer.
func (x *rowIndex) tally(keys []string) {
	for _, k := range keys {
		c := x.count[k] + 1
		x.count[k] = c
		if c == 2 {
			x.dups++
		}
	}
}

func (x *rowIndex) uncount(keys []string) {
	for _, k := range keys {
		switch c := x.count[k] - 1; c {
		case 0:
			delete(x.count, k)
		case 1:
			x.dups--
			fallthrough
		default:
			x.count[k] = c
		}
	}
}

func keysOf(sols []solution) []string {
	keys := make([]string, len(sols))
	for i, s := range sols {
		keys[i] = s.key()
	}
	return keys
}

// gathered accumulates the solutions of one requirement over the candidates
// one child holds.
type gathered struct {
	sols   []solution
	shared bool // sols is a memo entry's own list: copy before changing it
	mixed  bool // sols joins several lists, or pushed tuples: it may repeat
}

// rowOf joins the row candidate child ch contributes to the entry of (v, n)
// whose one requirement is c: the solutions of c at the candidates ch holds,
// in document order, lifted to v and deduplicated — the stretch of v's join
// a fresh evaluation draws from ch, with the same match calls in the same
// order.
func (ev *IncrementalEvaluator) rowOf(v, c *Node, n, ch *tree.Node) row {
	if a := ev.anchor; a != nil && v == a.spine[0] && !ev.leads(ch, 1) {
		return row{cand: ch} // empty: the probe rules it out (AnchorAnswer)
	}
	var g gathered
	if c.Edge == Child {
		ev.gather(c, ch, &g)
	} else {
		ev.gatherDesc(c, ch, &g)
	}
	r := row{cand: ch, sols: g.sols}
	if len(r.sols) == 0 {
		return r
	}
	if v.Kind == Var || v.Result {
		out := r.sols[:0]
		if g.shared {
			out = make([]solution, 0, len(r.sols))
		}
		for _, s := range r.sols {
			if s, ok := lift(v, n, s); ok {
				out = append(out, s)
			}
		}
		r.sols = out
		// v's own binding, added where a solution lacks it, can make two
		// solutions equal.
		g.mixed = g.mixed || v.Kind == Var
	}
	if g.mixed && len(r.sols) > 1 {
		seen := make(map[string]bool, len(r.sols))
		out := r.sols[:0]
		for _, s := range r.sols {
			if k := s.key(); !seen[k] {
				seen[k] = true
				out = append(out, s)
				r.keys = append(r.keys, k)
			}
		}
		r.sols = out
	}
	return r
}

// gather adds the solutions of requirement c at candidate x.
func (ev *IncrementalEvaluator) gather(c *Node, x *tree.Node, g *gathered) {
	src := ev.solutionsAt(c, x)
	switch {
	case len(src) == 0:
	case g.sols == nil:
		// Pushed tuples are made afresh and may repeat; a match is the
		// memo's deduplicated list.
		tuples := x.Kind == tree.Tuples
		g.sols, g.shared, g.mixed = src, !tuples, tuples
	case g.shared:
		g.sols = append(append(make([]solution, 0, len(g.sols)+len(src)), g.sols...), src...)
		g.shared, g.mixed = false, true
	default:
		g.sols = append(g.sols, src...)
		g.mixed = true
	}
}

// gatherDesc adds the solutions of requirement c at x and, in pre-order, at
// every node below it that a descendant walk reaches (reqStream's walk).
func (ev *IncrementalEvaluator) gatherDesc(c *Node, x *tree.Node, g *gathered) {
	if ev.prunes(c, x) {
		return
	}
	ev.gather(c, x, g)
	if opens(x) {
		for _, y := range x.Children {
			ev.gatherDesc(c, y, g)
		}
	}
}
