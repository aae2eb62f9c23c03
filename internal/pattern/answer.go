package pattern

import (
	"unsafe"

	"github.com/activexml/axml/internal/tree"
)

// resultView is the answer an evaluator keeps between evaluations: the
// Results made from each row it was read from, so that a re-evaluation
// after a splice restricts and keys only the rows the splice re-joined.
//
// When the anchor is one child step into a document — every generated
// query and every user query of the serving layer — the answer is read
// from the rows of the entry that step matches at the root element: one
// row per child of the root element (a hotel, say), kept by the memo as
// described on memoEntry. A row whose solutions are the very slice the view
// made its Results from is reused; any other is restricted afresh. Any
// other anchor is read as one piece, made afresh every time. An anchored
// answer (AnchorAnswer) joins only the rows of the children the probe
// keeps; the others are empty, so the rows are the same.
//
// Deduplication across rows follows memoEntry's: count holds, per result
// key, the rows holding it, so the answer is the rows' Results in order
// with each key at its first occurrence — what a fresh evaluation returns.
// And the view knows whether the answer changed: same reports that the last
// evaluation answered, row for row and by key, what the one before did, in
// which case it returned that answer's very slice again.
type resultView struct {
	rn    restriction
	rows  []viewRow
	count map[string]int // nil while the view has had at most one row
	dups  int
	out   []Result
	keys  []string // out's keys
	ready bool     // out holds an answer
	same  bool
	one   [1]row // the source of an answer read as one piece
}

// viewRow is the part of the answer one source row gives.
type viewRow struct {
	cand *tree.Node
	src  []solution // the source row's solutions, kept to compare identity
	res  []Result   // restricted and deduplicated within the row
	keys []string
}

// sameSlice reports whether a and b are the same slice of the same array —
// for slices that are never modified, the same elements. The view holds the
// slice it compares against, so its array cannot be reused meanwhile.
func sameSlice(a, b []solution) bool {
	return len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

func (ev *IncrementalEvaluator) eval(scope rootScope) ([]Result, Stats) {
	if ev.view == nil {
		ev.view = &resultView{rn: newRestriction(ev.q)}
	}
	out := ev.view.update(ev.answerRows(scope))
	return out, ev.takeStats()
}

// answerRows returns the rows the answer is read from.
func (ev *IncrementalEvaluator) answerRows(scope rootScope) []row {
	root, vw := ev.q.Root(), ev.view
	if scope.doc != nil && len(root.Children) == 1 && root.Children[0].Edge == Child {
		top := ev.entry(root.Children[0], scope.doc.Root)
		if top.rowed {
			return top.rows
		}
		vw.one[0] = row{cand: scope.doc.Root, sols: top.solutions()}
		return vw.one[:]
	}
	var sols []solution
	ev.streamChildren(root, scope, func(s solution) bool {
		sols = append(sols, s)
		return true
	})
	vw.one[0] = row{sols: sols}
	return vw.one[:]
}

// answerAnchor is the probe AnchorAnswer puts on the answer's top entry:
// the nodes of the spine to the query's first result node — the first, a
// child of the root on a child edge, is matched at the root element only —
// the anchor's position k among them and its ground branches.
type answerAnchor struct {
	spine    []*Node
	k        int
	branches []*Node
}

// AnchorAnswer makes the evaluator join the rows of the answer's top entry
// only for the root-element children below which the anchor probe of
// Anchored keeps an anchor, on the spine to the query's first result node:
// a point query's answer then costs the hotel its constant names, not every
// hotel of the master. Stats.Probed and Stats.Kept count the anchors
// probed. Without a result node or an anchor below the root element it does
// nothing.
//
// The answer stays the same. A child the probe rules out has no call and
// no pushed result at any position the anchor's ground branches read, so
// its row is empty now and at every later version. A splice below a child
// marks its row stale, and the row is probed again when it is re-joined; a
// splice directly under the root element evicts the entry, and every row
// is probed again.
func (ev *IncrementalEvaluator) AnchorAnswer() {
	out := ev.q.ResultNodes()
	if len(out) == 0 {
		return
	}
	sp := ev.path(out[0])
	if k, branches := sp.anchor(); k > 0 {
		ev.anchor = &answerAnchor{spine: sp.nodes, k: k, branches: branches}
	}
}

// leads reports whether document node n, at position i ≤ k of the
// answer's spine, may lead to an embedding: it is an anchor the probe
// keeps, or it lies above the anchor and one of its children leads. A call
// or a pushed result may: what it becomes, or the tuples it holds, is not
// read.
func (ev *IncrementalEvaluator) leads(n *tree.Node, i int) bool {
	a := ev.anchor
	switch {
	case n.Kind == tree.Call || n.Kind == tree.Tuples:
		return true
	case !admits(a.spine[i], n):
		return false
	case i < a.k:
		for _, c := range n.Children {
			if ev.leads(c, i+1) {
				return true
			}
		}
		return false
	}
	ev.work.Probed++
	if !holds(a.branches, n) {
		return false
	}
	ev.work.Kept++
	return true
}

// Unchanged reports whether the last EvalIncremental (or
// MatchedCallsIncremental) answered, row for row and by Result.Key, what
// the evaluation before it on this evaluator answered; it then returned
// that answer's slice itself. False after a first evaluation.
func (ev *IncrementalEvaluator) Unchanged() bool { return ev.view != nil && ev.view.same }

// update brings the view to the source rows and returns the answer.
func (vw *resultView) update(srcs []row) []Result {
	aligned := vw.ready && len(srcs) == len(vw.rows)
	for i := 0; aligned && i < len(srcs); i++ {
		aligned = srcs[i].cand == vw.rows[i].cand
	}
	changed := !aligned
	if aligned {
		for i, s := range srcs {
			if r := &vw.rows[i]; !sameSlice(s.sols, r.src) {
				if vw.count != nil {
					vw.uncount(r.keys)
				}
				*r, _, _ = vw.restrict(s, make([]Result, 0, len(s.sols)), make([]string, 0, len(s.sols)))
				if vw.count != nil {
					vw.tally(r.keys)
				}
				changed = true
			}
		}
	} else {
		vw.rebuild(srcs)
	}
	if !changed || vw.matches() {
		vw.same = vw.ready
		vw.ready = true
		return vw.out
	}
	vw.same, vw.ready = false, true
	n := 0
	for _, r := range vw.rows {
		n += len(r.res)
	}
	vw.out, vw.keys = make([]Result, 0, n), make([]string, 0, n)
	vw.each(func(r *Result, k string) bool {
		vw.out = append(vw.out, *r)
		vw.keys = append(vw.keys, k)
		return true
	})
	return vw.out
}

// rebuild makes the view's rows anew for srcs, reusing the Results of every
// old row whose source is the same slice.
func (vw *resultView) rebuild(srcs []row) {
	var old map[*tree.Node]*viewRow
	if len(vw.rows) > 0 {
		old = make(map[*tree.Node]*viewRow, len(vw.rows))
		for i := range vw.rows {
			old[vw.rows[i].cand] = &vw.rows[i]
		}
	}
	n := 0
	for _, s := range srcs {
		n += len(s.sols)
	}
	res, keys := make([]Result, 0, n), make([]string, 0, n)
	rows := make([]viewRow, len(srcs))
	for i, s := range srcs {
		if o := old[s.cand]; o != nil && sameSlice(o.src, s.sols) {
			rows[i] = *o
			continue
		}
		rows[i], res, keys = vw.restrict(s, res, keys)
	}
	vw.rows, vw.count, vw.dups = rows, nil, 0
	if len(rows) > 1 {
		vw.count = make(map[string]int, n)
		for _, r := range rows {
			vw.tally(r.keys)
		}
	}
}

// restrict makes the Results of one source row, deduplicated within it,
// appending them to res and their keys to keys, and returns both grown.
func (vw *resultView) restrict(src row, res []Result, keys []string) (viewRow, []Result, []string) {
	from := len(res)
	for _, s := range src.sols {
		r := vw.rn.restrict(s)
		if k := r.Key(); !containsKey(keys[from:], k) {
			res = append(res, r)
			keys = append(keys, k)
		}
	}
	to := len(res)
	return viewRow{cand: src.cand, src: src.sols, res: res[from:to:to], keys: keys[from:to:to]}, res, keys
}

// containsKey is the within-row duplicate test: rows hold one result or a
// handful, where a scan beats a set.
func containsKey(keys []string, k string) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

func (vw *resultView) tally(keys []string) {
	for _, k := range keys {
		c := vw.count[k] + 1
		vw.count[k] = c
		if c == 2 {
			vw.dups++
		}
	}
}

func (vw *resultView) uncount(keys []string) {
	for _, k := range keys {
		switch c := vw.count[k] - 1; c {
		case 0:
			delete(vw.count, k)
		case 1:
			vw.dups--
			fallthrough
		default:
			vw.count[k] = c
		}
	}
}

// each calls fn for the answer's Results in order — every row's, each key
// at its first occurrence — until fn returns false.
func (vw *resultView) each(fn func(r *Result, k string) bool) {
	var given map[string]bool // keys held by several rows, once given
	if vw.dups > 0 {
		given = map[string]bool{}
	}
	for i := range vw.rows {
		r := &vw.rows[i]
		for j := range r.res {
			k := r.keys[j]
			if given != nil && vw.count[k] > 1 {
				if given[k] {
					continue
				}
				given[k] = true
			}
			if !fn(&r.res[j], k) {
				return
			}
		}
	}
}

// matches reports whether the rows give, key for key, the answer out holds.
func (vw *resultView) matches() bool {
	if !vw.ready {
		return false
	}
	i, same := 0, true
	vw.each(func(_ *Result, k string) bool {
		same = i < len(vw.keys) && vw.keys[i] == k
		i++
		return same
	})
	return same && i == len(vw.keys)
}
