package pattern

import (
	"fmt"
	"slices"
	"testing"

	"github.com/activexml/axml/internal/tree"
)

// FuzzAnchorProbe checks the anchor probe behind Anchored on a random ground
// branch (constants, stars, ORs and function alternatives on child edges)
// under the root element a of a small random document with calls and pushed
// results, some of them pushed the fingerprint of a node of the branch:
//
//  1. When the probe rejects a, the evaluator's match of the branch at a is
//     empty.
//  2. After any call of the document is replaced by a random forest, the
//     probe still rejects a, and the match is still empty: a "no" is
//     permanent.
//  3. On a document whose root element r holds several such elements among
//     calls and pushed results, some pushed the fingerprint of a node of the
//     query, an evaluator whose answer is anchored (AnchorAnswer) at a in
//     /r/a[branch]/*, kept while each call of the document is replaced by a
//     random forest, answers what an evaluation from scratch does after
//     each replacement.
//  4. After each replacement, the document's node, call and service counts
//     are the ones a walk of it finds.
//  5. With the branch's leaf constants lifted into parameters (Lift) and
//     bound to random labels, an evaluator over the shape and the arguments
//     gives what one over the Bind copy gives — Anchored's offer and counts,
//     then MatchedCandidates' verdicts and Stats — on a document of such
//     elements, some holding pushed results tagged with the copy's
//     fingerprints, and again after each random replacement of a call.
func FuzzAnchorProbe(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 0, 0},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		{3, 1, 0, 2, 0, 4, 1, 1, 2, 5, 0, 0, 3, 6, 2, 1, 0},
		{2, 2, 9, 0, 1, 7, 3, 3, 0, 0, 8, 1, 4, 2, 6, 6, 6, 1, 0, 5},
		[]byte("920000000000011"), // a branch whose lifted constant is bound to another label
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		answersAlike(t, &fuzzBytes{data: data})
		boundAlike(t, &fuzzBytes{data: data})
		in := &fuzzBytes{data: data}
		root := NewNode(Root, "", Child)
		a := root.Add(NewNode(Const, "a", Child))
		a.Result = true
		a.Add(in.branch(0))
		q := NewPattern(root)
		// The probe runs on the spine of a copy with a call output below a.
		qs := q.Clone()
		out := qs.Root().Children[0].Add(NewNode(Func, AnyFunc, Child))
		qs.Reindex()
		doc := tree.NewDocument(in.tree("a", 0, q))

		ev := NewIncrementalProjected(qs, nil)
		if _, kept, probed, ok := ev.Anchored(doc, out); !ok || probed != 1 || kept == 1 {
			return // the probe keeps a: nothing is claimed
		}
		empty := func(when string) {
			if rs, _ := Eval(doc, q); len(rs) > 0 {
				t.Fatalf("%s: the probe rejects a, but the branch matches there:\n query %s\n doc %s", when, q, render(doc))
			}
		}
		empty("as built")
		for _, c := range doc.Calls() {
			if c.Parent == nil {
				continue // taken away by an earlier replacement
			}
			var forest []*tree.Node
			for n := in.next() % 3; n > 0; n-- {
				forest = append(forest, in.tree(in.label(), 1, q))
			}
			doc.ReplaceCall(c, forest)
			countsExact(t, doc)
			ev := NewIncrementalProjected(qs, nil)
			if _, kept, _, _ := ev.Anchored(doc, out); kept != 0 {
				t.Fatalf("the probe rejected a, and keeps it once a call is replaced:\n query %s\n doc %s", q, render(doc))
			}
			empty("after a replacement")
		}
	})
}

// answersAlike is property 3 of FuzzAnchorProbe.
func answersAlike(t *testing.T, in *fuzzBytes) {
	root := NewNode(Root, "", Child)
	a := root.Add(NewNode(Const, "r", Child)).Add(NewNode(Const, "a", Child))
	a.Add(in.branch(0))
	a.Add(NewNode(Star, "", Child)).Result = true
	q := NewPattern(root)
	r := tree.NewElement("r")
	for c := in.next()%6 + 1; c > 0; c-- {
		switch in.next() % 4 {
		case 0:
			r.Append(tree.NewCall([]string{"f", "g"}[in.next()%2]))
		case 1:
			r.Append(tree.NewTuples(q.Fingerprint(a), []tree.Binding{{"v": in.label()}}))
		default:
			r.Append(in.tree("a", 0, q))
		}
	}
	doc := tree.NewDocument(r)
	ev := NewIncrementalProjected(q, nil)
	ev.AnchorAnswer()
	alike := func(when string) {
		got, st := ev.EvalIncremental(doc)
		want, _ := Eval(doc, q)
		if !slices.EqualFunc(got, want, func(a, b Result) bool { return a.Key() == b.Key() }) {
			t.Fatalf("%s: the anchored answer differs from a fresh one (%d of %d anchors kept):\n query %s\n doc %s\n got %v\nwant %v",
				when, st.Kept, st.Probed, q, render(doc), got, want)
		}
	}
	alike("as built")
	for _, c := range doc.Calls() {
		if c.Parent == nil {
			continue // taken away by an earlier replacement
		}
		var forest []*tree.Node
		for n := in.next() % 3; n > 0; n-- {
			forest = append(forest, in.tree([]string{"a", "a", "b"}[in.next()%3], 1, q))
		}
		parent := c.Parent
		doc.ReplaceCall(c, forest)
		countsExact(t, doc)
		ev.Invalidate(parent, c)
		alike("after a replacement")
	}
}

// boundAlike is property 5 of FuzzAnchorProbe.
func boundAlike(t *testing.T, in *fuzzBytes) {
	root := NewNode(Root, "", Child)
	a := root.Add(NewNode(Const, "r", Child)).Add(NewNode(Const, "a", Child))
	a.Add(in.branch(0))
	o := a.Add(NewNode(Func, AnyFunc, Child))
	o.Result = true
	shape, args := NewPattern(root).Lift(func(string) bool { return true })
	for i := range args {
		args[i] = in.label()
	}
	twin := shape.Bind(args)
	outs := [2]*Node{shape.Node(o.ID), twin.Node(o.ID)}
	fresh := func() [2]*IncrementalEvaluator {
		return [2]*IncrementalEvaluator{NewIncrementalBound(shape, args, nil), NewIncrementalProjected(twin, nil)}
	}
	r := tree.NewElement("r")
	for c := in.next()%6 + 1; c > 0; c-- {
		if in.next()%3 == 0 {
			r.Append(tree.NewCall([]string{"f", "g"}[in.next()%2]))
		} else {
			r.Append(in.tree("a", 0, twin))
		}
	}
	doc := tree.NewDocument(r)
	// probe returns what the fresh evaluators' probes offer, alike.
	probe := func(when string) [2][]*tree.Node {
		var offers [2][]*tree.Node
		var seen [2]string
		for i, ev := range fresh() {
			targets, kept, probed, ok := ev.Anchored(doc, outs[i])
			seen[i] = fmt.Sprint(sortedCallIDs(targets), kept, probed, ok)
			if offers[i] = targets; !ok {
				offers[i] = doc.Calls()
			}
		}
		if seen[0] != seen[1] {
			t.Fatalf("%s: bound to %q, the shape's probe offers %s, the Bind copy's %s:\n shape %s\n doc %s",
				when, args, seen[0], seen[1], twin, render(doc))
		}
		return offers
	}
	evs := fresh()
	validate := func(when string, more [2][]*tree.Node) {
		var got [2][]*tree.Node
		var st [2]Stats
		for i, ev := range evs {
			got[i], st[i] = ev.MatchedCandidates(doc, outs[i], more[i])
		}
		if !slices.Equal(got[0], got[1]) || st[0] != st[1] {
			t.Fatalf("%s: bound to %q, the shape validates %v (%+v), the Bind copy %v (%+v):\n shape %s\n doc %s",
				when, args, sortedCallIDs(got[0]), st[0], sortedCallIDs(got[1]), st[1], twin, render(doc))
		}
	}
	validate("as built", probe("as built"))
	for _, c := range doc.Calls() {
		if c.Parent == nil {
			continue // taken away by an earlier replacement
		}
		var forest, arrived []*tree.Node
		for n := in.next() % 3; n > 0; n-- {
			forest = append(forest, in.tree([]string{"a", "a", "b"}[in.next()%3], 1, twin))
		}
		for _, n := range forest {
			n.Walk(func(x *tree.Node) bool {
				if x.Kind == tree.Call {
					arrived = append(arrived, x)
				}
				return true
			})
		}
		parent := c.Parent
		doc.ReplaceCall(c, forest)
		for _, ev := range evs {
			ev.Invalidate(parent, c)
		}
		validate("after a replacement", [2][]*tree.Node{arrived, arrived})
		probe("after a replacement")
	}
}

// countsExact is property 4 of FuzzAnchorProbe.
func countsExact(t *testing.T, doc *tree.Document) {
	t.Helper()
	var services []string
	for _, c := range doc.Calls() {
		services = append(services, c.Label)
	}
	slices.Sort(services)
	services = slices.Compact(services)
	var counted []string
	doc.EachService(func(name string) { counted = append(counted, name) })
	slices.Sort(counted)
	if doc.Size() != doc.Root.Size() || doc.Pending() != len(doc.Calls()) || !slices.Equal(counted, services) {
		t.Fatalf("the document counts %d nodes, %d calls of %v; a walk finds %d, %d of %v:\n doc %s",
			doc.Size(), doc.Pending(), counted, doc.Root.Size(), len(doc.Calls()), services, render(doc))
	}
}

// fuzzBytes reads a fuzz input as a stream of choices, 0 once it runs out.
type fuzzBytes struct {
	data []byte
	at   int
}

func (in *fuzzBytes) next() int {
	if in.at >= len(in.data) {
		return 0
	}
	in.at++
	return int(in.data[in.at-1])
}

func (in *fuzzBytes) label() string { return []string{"a", "b", "c"}[in.next()%3] }

// branch returns a random ground branch on a child edge, at most three
// levels deep.
func (in *fuzzBytes) branch(depth int) *Node {
	k := in.next() % 5
	if depth >= 3 {
		k %= 2
	}
	switch k {
	case 0:
		return NewNode(Const, in.label(), Child)
	case 1:
		return NewNode(Func, []string{"f", "g", AnyFunc}[in.next()%3], Child)
	case 2:
		or := NewNode(Or, "", Child)
		or.Add(in.branch(depth + 1))
		or.Add(in.branch(depth + 1))
		return or
	}
	n := NewNode(Const, in.label(), Child)
	if k == 3 {
		n = NewNode(Star, "", Child)
	}
	for c := in.next()%2 + 1; c > 0; c-- {
		n.Add(in.branch(depth + 1))
	}
	return n
}

// tree returns a random element labelled label with up to three children
// per level, two levels below depth 0: elements, texts, calls and pushed
// results, some pushed the fingerprint of a node of q.
func (in *fuzzBytes) tree(label string, depth int, q *Pattern) *tree.Node {
	n := tree.NewElement(label)
	if depth >= 2 {
		return n
	}
	for c := in.next() % 4; c > 0; c-- {
		switch in.next() % 5 {
		case 0, 1:
			n.Append(in.tree(in.label(), depth+1, q))
		case 2:
			n.Append(tree.NewText(in.label()))
		case 3:
			n.Append(tree.NewCall([]string{"f", "g"}[in.next()%2]))
		default:
			pushed := ""
			if i := in.next(); i%2 == 0 {
				pushed = q.Fingerprint(q.Node(i / 2 % len(q.Nodes())))
			}
			n.Append(tree.NewTuples(pushed, []tree.Binding{{}}))
		}
	}
	return n
}

// render is the document as text, for failure messages.
func render(doc *tree.Document) string {
	b, err := tree.Marshal(doc.Root)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
