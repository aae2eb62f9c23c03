package pattern

import (
	"sort"
	"strings"

	"github.com/activexml/axml/internal/tree"
)

// Result is one element of the snapshot result of a query (Definition 1):
// the restriction of an embedding to the result nodes.
type Result struct {
	// Values holds the labels bound to result *variable* nodes, keyed by
	// variable name. A variable matched through a pushed-call tuple
	// (Section 7) appears here even though no document node exists for it.
	Values map[string]string
	// Nodes holds the document nodes matched by non-variable result nodes
	// (and by variable result nodes matched against concrete nodes),
	// keyed by the pattern node ID.
	Nodes map[int]*tree.Node
}

// Key returns a canonical identity for the result, used for
// deduplication: document node IDs for node captures and name=value pairs
// for variable bindings.
func (r Result) Key() string {
	return canonicalKey(r.Values, func(yield func(int, uint64)) {
		for id, n := range r.Nodes {
			yield(id, n.ID)
		}
	})
}

// canonicalKey renders variable bindings and (pattern ID, doc ID) node
// captures deterministically into one presized buffer: for each variable,
// in name order, "$" then the name and the value each prefixed by its
// length ("3:foo"), then for each capture, in ID order, "#id@docID". Names
// and values are arbitrary strings, so only the length prefixes make the
// rendering injective — with separators alone, {A:"p;$B=q", B:"z"} and
// {A:"p", B:"q;$B=z"} would read alike; a capture is two decimal numbers
// behind marks no digit can be. It is the hot path of every deduplication,
// so it avoids the part-slice/sort.Strings/Join churn of the naive
// rendering.
func canonicalKey(vars map[string]string, caps func(yield func(int, uint64))) string {
	names := make([]string, 0, 8)
	size := 0
	for k, v := range vars {
		names = append(names, k)
		size += len(k) + len(v) + 2*20 + 3
	}
	sort.Strings(names)
	type cap struct {
		id  int
		doc uint64
	}
	ids := make([]cap, 0, 8)
	caps(func(id int, doc uint64) {
		ids = append(ids, cap{id, doc})
		size += 44
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i].id < ids[j].id })
	var sb strings.Builder
	sb.Grow(size)
	var buf [20]byte
	for _, k := range names {
		v := vars[k]
		sb.WriteByte('$')
		sb.Write(appendUint(buf[:0], uint64(len(k))))
		sb.WriteByte(':')
		sb.WriteString(k)
		sb.Write(appendUint(buf[:0], uint64(len(v))))
		sb.WriteByte(':')
		sb.WriteString(v)
	}
	for _, c := range ids {
		sb.WriteByte('#')
		sb.Write(appendUint(buf[:0], uint64(c.id)))
		sb.WriteByte('@')
		sb.Write(appendUint(buf[:0], c.doc))
	}
	return sb.String()
}

// appendUint appends the decimal rendering of v to dst without
// allocating.
func appendUint(dst []byte, v uint64) []byte {
	if v == 0 {
		return append(dst, '0')
	}
	var b [20]byte
	pos := len(b)
	for v > 0 {
		pos--
		b[pos] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, b[pos:]...)
}

// Stats reports the work done by an evaluation, for the experiments.
type Stats struct {
	// NodesVisited counts (query node, document node) match attempts
	// actually computed (memo misses).
	NodesVisited int
	// MemoHits counts match attempts answered from the memo table
	// without recomputation. For a one-shot evaluation these are the
	// hits within the single pass; for an IncrementalEvaluator they
	// include reuse across rounds — the work the incremental engine
	// avoided.
	MemoHits int
	// SubtreesPruned counts document subtrees skipped wholesale by the
	// type-based projection predicate during descendant enumeration.
	// Zero when no Projector is installed.
	SubtreesPruned int
	// Validated counts the candidate verdicts MatchedCandidates computed
	// rather than read off its view.
	Validated int
	// Revalidated counts the verdicts among Validated that had been
	// computed before and were checked again because a splice touched
	// their dependency root.
	Revalidated int
	// Probed counts the anchors the answer's probe read (AnchorAnswer), and
	// Kept those among them whose ground branches can still hold.
	Probed, Kept int
}

// Projector is the type-based document-projection predicate (Benzaken,
// Castagna, Colazzo & Nguyễn): CanMatchBelow(label, id) reports whether
// an element named label can possibly contain — at the element itself or
// anywhere below it — a match for the query subtree rooted at the query
// node with the given ID. Descendant enumeration skips an element's
// whole subtree when the predicate returns false.
//
// Implementations must be conservative: returning false for a subtree
// that does contain a match makes evaluation unsound (results get lost).
// The predicate must be built for the *same* Pattern the evaluator runs
// (node IDs are meaningful only within one pattern), and its soundness
// is relative to the document conforming to the schema it was derived
// from. It must be safe for concurrent readers. The canonical
// implementation is schema.Projection.
type Projector interface {
	CanMatchBelow(label string, queryNodeID int) bool
}

// Eval computes the snapshot result of q on doc: one Result per distinct
// restriction of an embedding to the result nodes. The second return value
// reports evaluation effort.
func Eval(doc *tree.Document, q *Pattern) ([]Result, Stats) {
	return EvalProjected(doc, q, nil)
}

// EvalProjected is Eval evaluating under a document projection: desc-axis
// candidate walks skip subtrees proj proves statically irrelevant. With a
// sound projector the results are identical to Eval's, computed over a
// smaller working set; proj == nil disables projection. It is one
// evaluation on a fresh evaluator (see IncrementalEvaluator).
func EvalProjected(doc *tree.Document, q *Pattern, proj Projector) ([]Result, Stats) {
	return NewIncrementalProjected(q, proj).EvalIncremental(doc)
}

// EvalForest computes the snapshot result of q over a forest of detached
// trees, as a push-capable service does over its result (Section 7): the
// pattern's anchor children match forest roots (child edge) or any forest
// node (descendant edge).
func EvalForest(forest []*tree.Node, q *Pattern) ([]Result, Stats) {
	return NewIncrementalProjected(q, nil).eval(rootScope{forest: forest})
}

// MatchedCalls evaluates an extended query whose result node out is a
// function node and returns the distinct document function nodes matched
// by it, in document-order-independent but deterministic (ID) order. This
// is how LPQs and NFQs retrieve candidate relevant calls (Section 3).
func MatchedCalls(doc *tree.Document, q *Pattern, out *Node) []*tree.Node {
	calls, _ := NewIncrementalProjected(q, nil).MatchedCallsIncremental(doc, out)
	return calls
}

func collectCalls(rs []Result, out *Node) []*tree.Node {
	seen := map[*tree.Node]bool{}
	var calls []*tree.Node
	for _, r := range rs {
		if n := r.Nodes[out.ID]; n != nil && !seen[n] {
			seen[n] = true
			calls = append(calls, n)
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].ID < calls[j].ID })
	return calls
}

// rootScope tells the evaluator what the anchor's children range over:
// either a document (child edge → the root element; descendant edge → any
// node) or a detached forest (child edge → the roots; descendant edge →
// any forest node).
type rootScope struct {
	doc    *tree.Document
	forest []*tree.Node
}

func (s rootScope) childCandidates() []*tree.Node {
	if s.doc != nil {
		return []*tree.Node{s.doc.Root}
	}
	return s.forest
}

// solution is one partial embedding: consistent variable bindings plus
// captured result nodes.
type solution struct {
	vars map[string]string
	caps map[int]*tree.Node
}

var emptySolution = solution{}

func (s solution) withVar(name, value string) (solution, bool) {
	if old, ok := s.vars[name]; ok {
		return s, old == value
	}
	nv := make(map[string]string, len(s.vars)+1)
	for k, v := range s.vars {
		nv[k] = v
	}
	nv[name] = value
	return solution{vars: nv, caps: s.caps}, true
}

func (s solution) withCap(id int, n *tree.Node) solution {
	nc := make(map[int]*tree.Node, len(s.caps)+1)
	for k, v := range s.caps {
		nc[k] = v
	}
	nc[id] = n
	return solution{vars: s.vars, caps: nc}
}

// merge combines two solutions if their variable bindings agree.
// Solutions are immutable, so the empty-side fast paths may share the
// other side's maps.
func merge(a, b solution) (solution, bool) {
	if len(a.vars) == 0 && len(a.caps) == 0 {
		return b, true
	}
	if len(b.vars) == 0 && len(b.caps) == 0 {
		return a, true
	}
	for k, v := range b.vars {
		if old, ok := a.vars[k]; ok && old != v {
			return solution{}, false
		}
	}
	out := a
	if len(b.vars) > 0 {
		out.vars = make(map[string]string, len(a.vars)+len(b.vars))
		for k, v := range a.vars {
			out.vars[k] = v
		}
		for k, v := range b.vars {
			out.vars[k] = v
		}
	}
	if len(b.caps) > 0 {
		out.caps = make(map[int]*tree.Node, len(a.caps)+len(b.caps))
		for k, v := range a.caps {
			out.caps[k] = v
		}
		for k, v := range b.caps {
			out.caps[k] = v
		}
	}
	return out, true
}

func (s solution) key() string {
	return canonicalKey(s.vars, func(yield func(int, uint64)) {
		for id, n := range s.caps {
			yield(id, n.ID)
		}
	})
}

func dedupe(sols []solution) []solution {
	if len(sols) < 2 {
		return sols
	}
	seen := make(map[string]bool, len(sols))
	out := sols[:0]
	for _, s := range sols {
		k := s.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

type memoKey struct {
	qnode int
	dnode *tree.Node
}

// restriction maps a solution to the Result it stands for (Definition 1's
// restriction of an embedding to the result nodes).
type restriction struct {
	vars  map[string]bool // result variables
	nodes map[int]bool    // result nodes, by pattern ID
}

func newRestriction(q *Pattern) restriction {
	r := restriction{vars: map[string]bool{}, nodes: map[int]bool{}}
	for _, n := range q.ResultNodes() {
		if n.Kind == Var {
			r.vars[n.Label] = true
		}
		r.nodes[n.ID] = true
	}
	return r
}

// restrict is the Result s stands for: its bindings of result variables and
// its captures of result nodes.
func (rn restriction) restrict(s solution) Result {
	r := Result{Values: map[string]string{}, Nodes: map[int]*tree.Node{}}
	for k, v := range s.vars {
		if rn.vars[k] {
			r.Values[k] = v
		}
	}
	for id, n := range s.caps {
		if rn.nodes[id] {
			r.Nodes[id] = n
		}
	}
	return r
}

// fingerprint returns (and caches) the canonical form of the subquery
// rooted at query node v, for matching pushed-result tuples.
func (ev *IncrementalEvaluator) fingerprint(v *Node) string {
	if fp, ok := ev.fps[v.ID]; ok {
		return fp
	}
	sub := ev.q.Sub(v)
	if ev.args != nil {
		sub = sub.Bind(ev.args)
	}
	fp := sub.String()
	ev.fps[v.ID] = fp
	return fp
}

// label is the label Const node v matches: the argument of a parameter,
// v's own label otherwise.
func (ev *IncrementalEvaluator) label(v *Node) string {
	if ev.args != nil {
		if i, ok := param(v.Label); ok && i < len(ev.args) {
			return ev.args[i]
		}
	}
	return v.Label
}

// admits is the test of mapping query node v to document node n by kind
// and label alone, before any requirement below v is looked at. Root never
// matches a concrete node; an OR is decided by its alternatives.
func (ev *IncrementalEvaluator) admits(v *Node, n *tree.Node) bool {
	switch v.Kind {
	case Or:
		return true
	case Const:
		return n.IsData() && n.Label == ev.label(v)
	case Star, Var:
		return n.IsData()
	case Func:
		return n.Kind == tree.Call && (v.Label == AnyFunc || v.Label == n.Label)
	default:
		return false
	}
}

// lift extends a solution of v's requirements into one of v itself, mapped
// to n: v's own variable binding (false when it conflicts) and its capture.
func lift(v *Node, n *tree.Node, s solution) (solution, bool) {
	if v.Kind == Var {
		var ok bool
		if s, ok = s.withVar(v.Label, n.Label); !ok {
			return s, false
		}
	}
	if v.Result {
		s = s.withCap(v.ID, n)
	}
	return s, true
}

// joinMatch computes the solutions of (v, n) in one piece: the OR of its
// alternatives, or the join of v's requirements lifted to v. Memo entries
// must hold the complete solution set (the evaluator replays them across
// rounds), so the stream below v is drained here; laziness pays off above,
// where whole streams are abandoned early.
func (ev *IncrementalEvaluator) joinMatch(v *Node, n *tree.Node) []solution {
	if v.Kind == Or {
		// The chosen alternative takes the OR's position.
		var sols []solution
		for _, alt := range v.Children {
			sols = append(sols, ev.match(alt, n)...)
		}
		return dedupe(sols)
	}
	var out []solution
	ev.streamChildren(v, rootScope{forest: []*tree.Node{n}}, func(s solution) bool {
		if s, ok := lift(v, n, s); ok {
			out = append(out, s)
		}
		return true
	})
	return dedupe(out)
}

// streamChildren streams the joined solutions of every child requirement
// of v, where v itself is already mapped, calling yield for each complete
// combination; yield returning false stops the stream. It returns false
// iff the stream was stopped early.
//
// The join pipelines: a partial solution flows through the remaining
// requirements depth-first and no intermediate cross-product is ever
// allocated. Each requirement's solution sequence is pulled lazily off
// the document walk — candidates are matched one at a time, on demand,
// and the deduplicated prefix is cached so re-scans for later partial
// solutions never redo match work. Requirements stream in the same
// cheapest-first order as the eager evaluator, so a fully-drained run
// performs exactly the eager evaluator's match calls in the same order
// (identical Stats), while a consumer that stops the stream abandons the
// document walk mid-subtree.
//
// For an anchor scope, candidates for a Child-edge requirement are the
// scope's roots; for a concrete node they are its children. Descendant
// requirements range over proper descendants (or all forest nodes for the
// anchor).
func (ev *IncrementalEvaluator) streamChildren(v *Node, scope rootScope, yield func(solution) bool) bool {
	return ev.streamJoin(ev.ordered(v), v.Kind == Root, scope, emptySolution, yield)
}

// streamJoin is the join pipeline behind streamChildren, over an explicit
// requirement list and extending a given partial solution: candidate
// validation joins only a spine node's off-spine branches, and threads
// the bindings collected higher up the spine through them.
func (ev *IncrementalEvaluator) streamJoin(reqs []*Node, anchor bool, scope rootScope, from solution, yield func(solution) bool) bool {
	if len(reqs) == 0 {
		return yield(from)
	}
	streams := make([]*reqStream, len(reqs))
	var emit func(i int, acc solution) bool
	emit = func(i int, acc solution) bool {
		if i == len(reqs) {
			return yield(acc)
		}
		if streams[i] == nil {
			streams[i] = ev.newReqStream(reqs[i], anchor, scope)
		}
		for j := 0; ; j++ {
			s, ok := streams[i].get(j)
			if !ok {
				return true
			}
			if m, mok := merge(acc, s); mok {
				if !emit(i+1, m) {
					return false
				}
			}
		}
	}
	return emit(0, from)
}

// ordered returns v's children cheapest-first, so a failing condition is
// found before expensive descendant scans run. Joins are commutative and
// solutions are canonically deduplicated, so the order cannot change the
// result set. The ordering is computed once per query node and cached.
func (ev *IncrementalEvaluator) ordered(v *Node) []*Node {
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

func costOrdered(v *Node) []*Node {
	out := append([]*Node(nil), v.Children...)
	cost := func(n *Node) int {
		c := subtreeSize(n)
		if n.Edge == Desc {
			c *= 8 // a descendant scan touches the whole subtree
		}
		return c
	}
	sort.SliceStable(out, func(i, j int) bool { return cost(out[i]) < cost(out[j]) })
	return out
}

func subtreeSize(n *Node) int {
	s := 1
	for _, c := range n.Children {
		s += subtreeSize(c)
	}
	return s
}

// reqStream is the lazily-pulled solution sequence of one child
// requirement within one scope. Candidates stream off the document in
// pre-order — a Child edge ranges over the scope's roots or children, a
// Desc edge drives an explicit-stack walk of the subtrees — and each
// candidate is matched at most once, with the deduplicated solution
// prefix cached for re-scans by the join. Descendant walks skip
// subtrees the projection predicate proves statically irrelevant for c,
// and never descend below call boundaries: the parameters of a call are
// the call's input, not document content — they only become
// query-visible if the call is invoked and happens to return them
// (pushed results have no element payload either).
type reqStream struct {
	ev   *IncrementalEvaluator
	c    *Node
	sols []solution      // deduplicated solutions pulled so far
	seen map[string]bool // dedup keys; nil until a second solution shows up
	done bool

	roots   []*tree.Node // pending child-edge candidates (nil once consumed)
	docRoot *tree.Node   // one-shot child-edge candidate (document anchor)
	stack   []*tree.Node // desc-edge DFS stack, top at the end
}

func (ev *IncrementalEvaluator) newReqStream(c *Node, anchor bool, scope rootScope) *reqStream {
	rs := &reqStream{ev: ev, c: c}
	if c.Edge == Child {
		if anchor {
			if scope.doc != nil {
				rs.docRoot = scope.doc.Root
			} else {
				rs.roots = scope.forest
			}
		} else {
			rs.roots = scope.forest[0].Children
		}
		return rs
	}
	// Descendant edge: the anchor ranges over the roots themselves and
	// everything below; a concrete scope node over its proper
	// descendants. Seed the stack in reverse so pops come in document
	// order.
	var roots []*tree.Node
	if anchor {
		if scope.doc != nil {
			rs.stack = []*tree.Node{scope.doc.Root}
			return rs
		}
		roots = scope.forest
	} else {
		roots = scope.forest[0].Children
	}
	rs.stack = make([]*tree.Node, 0, len(roots))
	for i := len(roots) - 1; i >= 0; i-- {
		rs.stack = append(rs.stack, roots[i])
	}
	return rs
}

// get returns the j-th deduplicated solution of the requirement, pulling
// candidates off the document walk until it exists or the walk is
// exhausted.
func (rs *reqStream) get(j int) (solution, bool) {
	for j >= len(rs.sols) && !rs.done {
		rs.pull()
	}
	if j < len(rs.sols) {
		return rs.sols[j], true
	}
	return solution{}, false
}

// pull advances the candidate walk by one node and folds its solutions
// into the cache.
func (rs *reqStream) pull() {
	n := rs.nextCandidate()
	if n == nil {
		rs.done = true
		return
	}
	for _, s := range rs.ev.solutionsAt(rs.c, n) {
		rs.add(s)
	}
}

// solutionsAt returns the solutions of requirement c at candidate n: the
// memoised match, or the tuples a pushed result holds.
func (ev *IncrementalEvaluator) solutionsAt(c *Node, n *tree.Node) []solution {
	if n.Kind == tree.Tuples {
		return tupleSolutions(c, n, ev.fingerprint)
	}
	return ev.match(c, n)
}

// prunes reports whether a descendant walk for requirement c skips n's
// subtree: the projection predicate proves no match for c below n.
func (ev *IncrementalEvaluator) prunes(c *Node, n *tree.Node) bool {
	if ev.proj != nil && n.Kind == tree.Element && !ev.proj.CanMatchBelow(n.Label, c.ID) {
		ev.work.SubtreesPruned++
		return true
	}
	return false
}

// opens reports whether a descendant walk goes below n: never below a call
// or a pushed result (see reqStream).
func opens(n *tree.Node) bool { return n.Kind != tree.Call && n.Kind != tree.Tuples }

func (rs *reqStream) nextCandidate() *tree.Node {
	if rs.docRoot != nil {
		n := rs.docRoot
		rs.docRoot = nil
		return n
	}
	if len(rs.roots) > 0 {
		n := rs.roots[0]
		rs.roots = rs.roots[1:]
		return n
	}
	ev := rs.ev
	for len(rs.stack) > 0 {
		n := rs.stack[len(rs.stack)-1]
		rs.stack = rs.stack[:len(rs.stack)-1]
		if ev.prunes(rs.c, n) {
			continue
		}
		if opens(n) {
			for i := len(n.Children) - 1; i >= 0; i-- {
				rs.stack = append(rs.stack, n.Children[i])
			}
		}
		return n
	}
	return nil
}

// add appends s unless an equal solution was already pulled, preserving
// first-occurrence order — the streaming equivalent of dedupe. Key
// rendering starts only when a second solution appears, so the common
// zero/one-solution requirement never pays for it.
func (rs *reqStream) add(s solution) {
	if rs.seen == nil {
		if len(rs.sols) == 0 {
			rs.sols = append(rs.sols, s)
			return
		}
		rs.seen = map[string]bool{rs.sols[0].key(): true}
	}
	k := s.key()
	if !rs.seen[k] {
		rs.seen[k] = true
		rs.sols = append(rs.sols, s)
	}
}

// tupleSolutions yields the virtual matches a pushed-result node provides
// for query requirement c: one solution per binding tuple, when the node's
// recorded subquery fingerprint equals c's. Both evaluators share it via
// their fingerprint caches.
func tupleSolutions(c *Node, n *tree.Node, fingerprint func(*Node) string) []solution {
	// OR requirements delegate to their alternatives: the pushed query
	// was one concrete subtree.
	if c.Kind == Or {
		var sols []solution
		for _, alt := range c.Children {
			sols = append(sols, tupleSolutions(alt, n, fingerprint)...)
		}
		return sols
	}
	if n.PushedQuery == "" || n.PushedQuery != fingerprint(c) {
		return nil
	}
	sols := make([]solution, 0, len(n.PushedBindings))
	for _, b := range n.PushedBindings {
		s := solution{vars: map[string]string{}}
		for k, val := range b {
			s.vars[k] = val
		}
		sols = append(sols, s)
	}
	return sols
}
