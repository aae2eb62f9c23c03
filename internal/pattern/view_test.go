package pattern

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/activexml/axml/internal/tree"
)

// anchorBranchQuery is /site/category//()! with a second branch under the
// anchor (//name/"gamma"): a document-wide condition, which the textual
// syntax cannot express.
func anchorBranchQuery() *Pattern {
	q := MustParse(`/site/category//()!`)
	q.Root().Add(NewNode(Const, "name", Desc)).Add(NewNode(Const, "gamma", Child))
	q.Reindex()
	return q
}

// viewQueries are the dependency shapes of the maintained call view, by
// where a verdict's dependency root ends up.
var viewQueries = []struct {
	name string
	q    func() *Pattern
}{
	{"linear", func() *Pattern { return MustParse(`/site/category/()!`) }},
	{"linear-desc", func() *Pattern { return MustParse(`/site//item//()!`) }},
	{"branch-local", func() *Pattern { return MustParse(`/site/category[label="alpha"]//()!`) }},
	// Items nest, so an item step has several alignments per target and
	// the verdict hangs on the shallowest item a join ran at; the
	// descendant condition is one a splice into the outer item can flip
	// without touching the inner one.
	{"desc-spine", func() *Pattern { return MustParse(`/site//item[//name="beta"]//()!`) }},
	{"cross-level-join", func() *Pattern { return MustParse(`/site/category[label=$L]//item[//name=$L]/()!`) }},
	{"or-branch", func() *Pattern {
		return MustParse(`/site/category[label/("alpha"|"gamma")]//item[//(name|price)/"beta"]/()!`)
	}},
	{"anchor-branch", anchorBranchQuery},
}

// TestCallViewDifferential replays 50 random replacement sequences and
// checks after every Invalidate that the maintained view, seeded with the
// document's calls and fed only the calls each splice inserted, answers
// exactly what enumerating every call and asking MatchCall on a fresh
// evaluator answers — for each shape a verdict's dependency can take.
func TestCallViewDifferential(t *testing.T) {
	type tracked struct {
		name string
		q    *Pattern
		out  *Node
		ie   *IncrementalEvaluator
		// work sums the view's Stats over all seeds and rounds, asked counts
		// what re-validating everything would have validated.
		work  Stats
		asked int
	}
	qs := make([]*tracked, len(viewQueries))
	for i, vq := range viewQueries {
		qs[i] = &tracked{name: vq.name}
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed + 7000))
		doc := randCallDoc(rng)
		for i, vq := range viewQueries {
			q := vq.q()
			qs[i].q, qs[i].out, qs[i].ie = q, q.ResultNodes()[0], NewIncrementalProjected(q, nil)
		}
		check := func(round int, more []*tree.Node) {
			calls := doc.Calls()
			for _, tr := range qs {
				fresh := NewIncrementalProjected(tr.q, nil)
				var matched []*tree.Node
				for _, c := range calls {
					if ok, _ := fresh.MatchCall(doc, tr.out, c); ok {
						matched = append(matched, c)
					}
				}
				want := sortedCallIDs(matched)
				got, st := tr.ie.MatchedCandidates(doc, tr.out, more)
				ids := make([]uint64, len(got))
				for i, c := range got {
					ids[i] = c.ID
					if i > 0 && ids[i-1] >= ids[i] {
						t.Fatalf("seed %d round %d %s: view answer not in ascending ID order: %v", seed, round, tr.name, ids)
					}
				}
				if diffIDs(ids, want) {
					t.Fatalf("seed %d round %d %s: view %v, enumerate-and-MatchCall %v", seed, round, tr.name, ids, want)
				}
				if st.Revalidated > st.Validated {
					t.Fatalf("seed %d round %d %s: %d revalidated of %d validated", seed, round, tr.name, st.Revalidated, st.Validated)
				}
				tr.work.Add(st)
				tr.asked += len(calls)
			}
		}
		check(0, doc.Calls())
		for round := 1; round <= 12; round++ {
			calls := doc.Calls()
			if len(calls) == 0 {
				break
			}
			call := calls[rng.Intn(len(calls))]
			parent := call.Parent
			s := doc.ReplaceCall(call, randIncrForest(rng, 2))
			more := slices.Concat(s.Calls, s.Nested)
			for _, tr := range qs {
				tr.ie.Invalidate(parent, call)
			}
			check(round, more)
		}
	}
	for _, tr := range qs {
		if tr.work.Validated == 0 {
			t.Fatalf("%s: no candidate was ever validated — the shape is not exercised", tr.name)
		}
		if tr.work.Validated >= tr.asked {
			t.Fatalf("%s: the view validated %d candidates, enumeration %d — it maintained nothing", tr.name, tr.work.Validated, tr.asked)
		}
		switch tr.name {
		case "linear", "linear-desc":
			// No join ever runs: a verdict has no dependency root and is
			// never looked at again.
			if tr.work.Revalidated != 0 {
				t.Fatalf("%s: %d verdicts revalidated, want none", tr.name, tr.work.Revalidated)
			}
		case "anchor-branch":
			// The document-wide condition makes every verdict hang on the
			// root element, which every splice touches: the counted fallback.
			if tr.work.Revalidated*2 < tr.work.Validated {
				t.Fatalf("%s: %d of %d validations were revalidations, want most", tr.name, tr.work.Revalidated, tr.work.Validated)
			}
		default:
			if tr.work.Revalidated == 0 {
				t.Fatalf("%s: no verdict was ever revalidated — Invalidate dirties nothing", tr.name)
			}
		}
	}
}

// TestCallViewDependencyRoot pins the filing rule on a hand-built
// document: a branch-local condition makes a verdict hang on the ancestor
// the condition was checked at, so a splice elsewhere leaves it alone and
// a splice below that ancestor flips it.
func TestCallViewDependencyRoot(t *testing.T) {
	root := tree.NewElement("site")
	var cats, calls, fillers []*tree.Node
	for i := 0; i < 3; i++ {
		cat := root.Append(tree.NewElement("category"))
		fillers = append(fillers, cat.Append(tree.NewCall("fill")))
		calls = append(calls, cat.Append(tree.NewCall("f")))
		cats = append(cats, cat)
	}
	doc := tree.NewDocument(root)
	q := MustParse(`/site/category[label="alpha"]/f()!`)
	out := q.ResultNodes()[0]
	ie := NewIncrementalProjected(q, nil)

	got, st := ie.MatchedCandidates(doc, out, doc.Calls())
	if len(got) != 0 || st.Validated != 3 || st.Revalidated != 0 {
		t.Fatalf("seed: %d matched, stats %+v; want none matched, the three f() validated (fill() is off the path)", len(got), st)
	}
	// category 1 gets its label: only its own candidate is re-checked.
	label := tree.NewElement("label")
	label.Append(tree.NewText("alpha"))
	doc.ReplaceCall(fillers[1], []*tree.Node{label})
	ie.Invalidate(cats[1], fillers[1])
	got, st = ie.MatchedCandidates(doc, out, nil)
	if len(got) != 1 || got[0] != calls[1] || st.Validated != 1 || st.Revalidated != 1 {
		t.Fatalf("after the splice in category 1: matched %v, stats %+v; want exactly its f() re-checked and matched", sortedCallIDs(got), st)
	}
	// The matched call is expanded: it leaves the answer, nothing else moves.
	doc.ReplaceCall(calls[1], nil)
	ie.Invalidate(cats[1], calls[1])
	got, st = ie.MatchedCandidates(doc, out, nil)
	if len(got) != 0 || st.Validated != 0 {
		t.Fatalf("after expanding the matched call: matched %v, stats %+v; want an empty answer at no cost", sortedCallIDs(got), st)
	}
}
