package pattern

import (
	"sort"
	"testing"

	"github.com/activexml/axml/internal/tree"
)

// residual binds a fresh evaluator's candidate validation to one output
// node, the shape the per-candidate cases below exercise.
func residual(q *Pattern, out *Node) func(*tree.Document, *tree.Node) bool {
	ev := NewIncrementalProjected(q, nil)
	return func(d *tree.Document, target *tree.Node) bool {
		return matchOne(ev, d, out, target)
	}
}

// matchOne is MatchedCandidates offered one target: whether out matches
// it, on ev's memo.
func matchOne(ev *IncrementalEvaluator, doc *tree.Document, out *Node, target *tree.Node) bool {
	view, _ := ev.MatchedCandidates(doc, out, []*tree.Node{target})
	i := sort.Search(len(view), func(i int) bool { return view[i].ID >= target.ID })
	return i < len(view) && view[i] == target
}

func TestResidualMatcherBasics(t *testing.T) {
	d, _ := tree.Unmarshal([]byte(`
<hotels>
  <hotel><name>Best Western</name><rating><axml:call service="getRating"/></rating></hotel>
  <hotel><name>Pennsylvania</name><rating><axml:call service="getRating"/></rating></hotel>
</hotels>`))
	// NFQ-like query: calls under rating of a Best Western hotel.
	q := MustParse(`/hotels/hotel[name="Best Western"]/rating/()`)
	out := q.ResultNodes()[0]
	m := residual(q, out)
	calls := d.Calls()
	if !m(d, calls[0]) {
		t.Error("Best Western's rating call must match")
	}
	if m(d, calls[1]) {
		t.Error("Pennsylvania's rating call must not match")
	}
	// A non-call target never matches.
	if m(d, d.Root) {
		t.Error("data node matched as a call")
	}
}

func TestResidualMatcherNamedOutput(t *testing.T) {
	d, _ := tree.Unmarshal([]byte(`<r><a><axml:call service="f"/><axml:call service="g"/></a></r>`))
	q := MustParse(`/r/a/g()`)
	m := residual(q, q.ResultNodes()[0])
	calls := d.Calls()
	if m(d, calls[0]) {
		t.Error("f call matched a g() output node")
	}
	if !m(d, calls[1]) {
		t.Error("g call must match")
	}
}

func TestResidualMatcherDescendantSpine(t *testing.T) {
	d, _ := tree.Unmarshal([]byte(`
<r><zone><deep><item><x>1</x><axml:call service="f"/></item></deep></zone>
   <zone><item><y>1</y><axml:call service="f"/></item></zone></r>`))
	q := MustParse(`/r//item[x]/()`)
	m := residual(q, q.ResultNodes()[0])
	calls := d.Calls()
	if !m(d, calls[0]) {
		t.Error("deep item with x must match")
	}
	if m(d, calls[1]) {
		t.Error("item without x must not match")
	}
}

func TestResidualMatcherJoinAcrossLevels(t *testing.T) {
	// The spine variable joins with an off-spine branch variable.
	d, _ := tree.Unmarshal([]byte(`
<r><grp><tag>k1</tag><item><key>k1</key><axml:call service="f"/></item></grp>
   <grp><tag>k2</tag><item><key>other</key><axml:call service="f"/></item></grp></r>`))
	q := MustParse(`/r/grp[tag=$V]/item[key=$V]/()`)
	m := residual(q, q.ResultNodes()[0])
	calls := d.Calls()
	if !m(d, calls[0]) {
		t.Error("joined group must match")
	}
	if m(d, calls[1]) {
		t.Error("join mismatch must fail")
	}
}

func TestResidualMatcherAnchorBranches(t *testing.T) {
	// A pattern with a second top-level branch under the anchor (built
	// programmatically: the textual syntax produces single chains).
	root := NewNode(Root, "", Child)
	spineA := root.Add(NewNode(Const, "a", Child))
	out := spineA.Add(NewNode(Func, AnyFunc, Child))
	out.Result = true
	cond := root.Add(NewNode(Const, "flag", Desc))
	_ = cond
	q := NewPattern(root)

	withFlag, _ := tree.Unmarshal([]byte(`<a><axml:call service="f"/><flag/></a>`))
	withoutFlag, _ := tree.Unmarshal([]byte(`<a><axml:call service="f"/></a>`))
	m := residual(q, out)
	if !m(withFlag, withFlag.Calls()[0]) {
		t.Error("anchor branch satisfied, must match")
	}
	m2 := residual(q, out)
	if m2(withoutFlag, withoutFlag.Calls()[0]) {
		t.Error("anchor branch unsatisfied, must not match")
	}
}

func TestResidualMatcherPanicsOnBadSpine(t *testing.T) {
	q := MustParse(`/a[(b|c)]`)
	// Fabricate an output under the OR node to trigger the assertion.
	var or *Node
	for _, n := range q.Nodes() {
		if n.Kind == Or {
			or = n
		}
	}
	f := or.Children[0].Add(NewNode(Func, AnyFunc, Child))
	q.Reindex()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for an OR spine")
		}
	}()
	residual(q, f)(tree.NewDocument(tree.NewElement("a")), tree.NewCall("g"))
}

// TestResidualAgreesWithPinnedEvaluation cross-validates candidate
// validation, offered one pinned candidate call at a time, against
// membership in the evaluator's matched-call set on generated NFQs over
// generated documents.
func TestResidualAgreesWithPinnedEvaluation(t *testing.T) {
	docs := []string{
		`<hotels><hotel><name>Best Western</name><rating>x</rating>
		   <nearby><axml:call service="getNearbyRestos"/></nearby></hotel></hotels>`,
		`<hotels><hotel><name>Other</name><rating><axml:call service="getRating"/></rating>
		   <nearby><restaurant><name>Jo</name></restaurant><axml:call service="g"/></nearby></hotel>
		   <axml:call service="getHotels"/></hotels>`,
		`<hotels><hotel><name>Best Western</name>
		   <rating><axml:call service="getRating"/></rating>
		   <nearby><axml:call service="getNearbyMuseums"/></nearby></hotel>
		 <hotel><name>Best Western</name><rating>*****</rating>
		   <nearby><axml:call service="getNearbyRestos"/></nearby></hotel></hotels>`,
		// A call inside another call's parameters is that call's input,
		// not document content: no query retrieves it.
		`<hotels><hotel><name>Best Western</name><rating>*****</rating>
		   <nearby><axml:call service="getNearbyRestos"><axml:call service="getCity"/></axml:call></nearby></hotel></hotels>`,
	}
	queries := []string{
		`/hotels/hotel[name="Best Western"]/rating/()`,
		`/hotels/hotel[name="Best Western"][rating="*****"]/nearby//()`,
		`/hotels/hotel[(rating|())]/nearby/()`,
		`/hotels/*[name=$X][rating=$X]//()`,
		`//nearby/()`,
		`/()`,
	}
	for _, dx := range docs {
		d, err := tree.Unmarshal([]byte(dx))
		if err != nil {
			t.Fatal(err)
		}
		for _, qx := range queries {
			q := MustParse(qx)
			out := q.ResultNodes()[0]
			if out.Kind != Func {
				t.Fatalf("query %s: output is not a function node", qx)
			}
			m := residual(q, out)
			matched := map[*tree.Node]bool{}
			for _, c := range MatchedCalls(d, q, out) {
				matched[c] = true
			}
			for _, c := range d.Calls() {
				if got, want := m(d, c), matched[c]; got != want {
					t.Errorf("doc %.40q query %s call %s: residual=%v, in the matched set=%v",
						dx, qx, c.Label, got, want)
				}
			}
		}
	}
}
