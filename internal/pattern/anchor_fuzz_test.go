package pattern

import (
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
func FuzzAnchorProbe(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 0, 0},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		{3, 1, 0, 2, 0, 4, 1, 1, 2, 5, 0, 0, 3, 6, 2, 1, 0},
		{2, 2, 9, 0, 1, 7, 3, 3, 0, 0, 8, 1, 4, 2, 6, 6, 6, 1, 0, 5},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
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
			ev := NewIncrementalProjected(qs, nil)
			if _, kept, _, _ := ev.Anchored(doc, out); kept != 0 {
				t.Fatalf("the probe rejected a, and keeps it once a call is replaced:\n query %s\n doc %s", q, render(doc))
			}
			empty("after a replacement")
		}
	})
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
