package pattern

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/activexml/axml/internal/tree"
)

// figure4 is the paper's Figure 4 query over the hotels document.
const figure4 = `/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y`

// figure1 builds the document of Figure 1 (one hotel spelled out, plus the
// top-level getHotels call).
func figure1() *tree.Document {
	root := tree.NewElement("hotels")
	h := root.Append(tree.NewElement("hotel"))
	h.Append(tree.NewElement("name")).Append(tree.NewText("Best Western"))
	h.Append(tree.NewElement("address")).Append(tree.NewText("75, 2nd Av."))
	h.Append(tree.NewElement("rating")).Append(tree.NewText("*****"))
	nearby := h.Append(tree.NewElement("nearby"))
	nearby.Append(tree.NewCall("getNearbyRestos", tree.NewText("75, 2nd Av.")))
	nearby.Append(tree.NewCall("getNearbyMuseums", tree.NewText("75, 2nd Av.")))

	h2 := root.Append(tree.NewElement("hotel"))
	h2.Append(tree.NewElement("name")).Append(tree.NewText("Pennsylvania"))
	h2.Append(tree.NewElement("rating")).Append(tree.NewCall("getRating", tree.NewText("Pennsylvania")))
	n2 := h2.Append(tree.NewElement("nearby"))
	n2.Append(tree.NewCall("getNearbyRestos", tree.NewText("13 Penn St.")))

	root.Append(tree.NewCall("getHotels", tree.NewText("NY")))
	return tree.NewDocument(root)
}

// invokeRestos simulates the Figure 3 state: the first getNearbyRestos call
// is replaced by two restaurants, one of them five-star.
func invokeRestos(d *tree.Document) {
	var call *tree.Node
	for _, c := range d.Calls() {
		if c.Label == "getNearbyRestos" {
			call = c
			break
		}
	}
	mk := func(name, addr, rating string) *tree.Node {
		r := tree.NewElement("restaurant")
		r.Append(tree.NewElement("name")).Append(tree.NewText(name))
		r.Append(tree.NewElement("address")).Append(tree.NewText(addr))
		r.Append(tree.NewElement("rating")).Append(tree.NewText(rating))
		return r
	}
	d.ReplaceCall(call, []*tree.Node{
		mk("Jo", "75, 2nd Av.", "***"),
		mk("Mama", "77, 2nd Av.", "*****"),
	})
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		`/hotels`,
		`/hotels/hotel`,
		`//show`,
		`/a/*//b`,
		`/a[b]`,
		`/a[b[c]][d]`,
		`/a["v"]`,
		`/a/$X!`,
		`/a[()]`,
		`/a[getRating()]`,
		`/a[(b|())]`,
		`/a[(b[c]|getF()|"v")]`,
		`/goingout/movies//show[title["The Hours"]]/schedule`,
	}
	for _, in := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		out := p.String()
		p2, err := Parse(out)
		if err != nil {
			t.Errorf("reparse of %q (from %q): %v", out, in, err)
			continue
		}
		if p2.String() != out {
			t.Errorf("canonical form unstable: %q -> %q -> %q", in, out, p2.String())
		}
	}
}

func TestParseSugar(t *testing.T) {
	// name="v" is sugar for name["v"]; name=$X for name[$X].
	a := MustParse(`/h[name="v"][r=$X] -> $X`)
	b := MustParse(`/h[name["v"]][r[$X!]]`)
	if a.String() != b.String() {
		t.Fatalf("sugar mismatch: %q vs %q", a.String(), b.String())
	}
}

func TestParseDefaultResult(t *testing.T) {
	p := MustParse(`/a/b/c`)
	rs := p.ResultNodes()
	if len(rs) != 1 || rs[0].Label != "c" {
		t.Fatalf("default result should be the last spine step, got %v", rs)
	}
	// With an explicit !, the last step is not auto-marked.
	p = MustParse(`/a/b!/c`)
	rs = p.ResultNodes()
	if len(rs) != 1 || rs[0].Label != "b" {
		t.Fatalf("explicit result ignored: %v", rs)
	}
}

func TestParseArrowMarksFirstOccurrence(t *testing.T) {
	p := MustParse(`/a[x=$X][y=$X] -> $X`)
	count := 0
	for _, n := range p.Nodes() {
		if n.Kind == Var && n.Result {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("arrow should mark exactly one occurrence, got %d", count)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		``, `a`, `/`, `/a[`, `/a]`, `/a[b`, `/a ->`, `/a -> $Z`, `/a -> X`,
		`/a"`, `/"unterminated`, `/a[=x]`, `/$`, `/a(`, `/(a|`, `/a=5`,
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
	// A constant no XML text can hold — a control character, bytes that
	// are not UTF-8 — is refused where it stands.
	for in, at := range map[string]int{"/A[\"\x1a\"]": 4, "/A[\"\xff\"]": 4, "/A[\"ok\\\x1a\"]": 7, "/A[\"\uFFFE\"]": 4} {
		_, err := ParseExact(in)
		if err == nil || !strings.Contains(err.Error(), "at offset "+strconv.Itoa(at)+" ") {
			t.Errorf("ParseExact(%q) = %v; want an error at offset %d", in, err, at)
		}
	}
}

func TestEvalFigure4(t *testing.T) {
	d := figure1()
	q := MustParse(figure4)
	rs, _ := Eval(d, q)
	if len(rs) != 0 {
		t.Fatalf("snapshot result before invocation should be empty, got %v", rs)
	}
	invokeRestos(d)
	rs, _ = Eval(d, q)
	if len(rs) != 1 {
		t.Fatalf("after invocation want 1 result, got %d", len(rs))
	}
	if rs[0].Values["X"] != "Mama" || rs[0].Values["Y"] != "77, 2nd Av." {
		t.Fatalf("wrong bindings: %v", rs[0].Values)
	}
}

// hasEmbedding reports whether q has at least one embedding in doc.
func hasEmbedding(doc *tree.Document, q *Pattern) bool {
	rs, _ := Eval(doc, q)
	return len(rs) > 0
}

func TestEvalChildVsDescendant(t *testing.T) {
	d, _ := tree.Unmarshal([]byte(`<r><a><b><c>1</c></b></a></r>`))
	if !hasEmbedding(d, MustParse(`/r//c`)) {
		t.Error("// should reach depth 3")
	}
	if hasEmbedding(d, MustParse(`/r/c`)) {
		t.Error("/ should not skip levels")
	}
	if !hasEmbedding(d, MustParse(`//c`)) {
		t.Error("leading // should match anywhere")
	}
	if !hasEmbedding(d, MustParse(`/r/a/b/c`)) {
		t.Error("full child path should match")
	}
	if hasEmbedding(d, MustParse(`/x`)) {
		t.Error("/x must check the root element label")
	}
}

func TestEvalStarAndValues(t *testing.T) {
	d, _ := tree.Unmarshal([]byte(`<r><a>v</a><b>w</b></r>`))
	rs, _ := Eval(d, MustParse(`/r/*/$V -> $V`))
	if len(rs) != 2 {
		t.Fatalf("want 2 value bindings, got %v", rs)
	}
	vals := map[string]bool{}
	for _, r := range rs {
		vals[r.Values["V"]] = true
	}
	if !vals["v"] || !vals["w"] {
		t.Fatalf("bindings = %v", vals)
	}
}

func TestEvalValueJoin(t *testing.T) {
	d, _ := tree.Unmarshal([]byte(`<r><a><x>1</x><y>1</y></a><b><x>1</x><y>2</y></b></r>`))
	// Join: x and y must carry the same value.
	q := MustParse(`/r/*[x=$V][y=$V] -> $V`)
	rs, _ := Eval(d, q)
	if len(rs) != 1 || rs[0].Values["V"] != "1" {
		t.Fatalf("join result = %v", rs)
	}
}

func TestEvalResultNodesCaptureDocNodes(t *testing.T) {
	d, _ := tree.Unmarshal([]byte(`<r><a/><a/></r>`))
	q := MustParse(`/r/a`)
	rs, _ := Eval(d, q)
	if len(rs) != 2 {
		t.Fatalf("want 2 node results, got %d", len(rs))
	}
	out := q.ResultNodes()[0]
	if rs[0].Nodes[out.ID] == rs[1].Nodes[out.ID] {
		t.Fatal("distinct doc nodes expected")
	}
}

func TestEvalOrNodes(t *testing.T) {
	d, _ := tree.Unmarshal([]byte(`<r><a><b/></a></r>`))
	// (b|c) under a: satisfied via b.
	if !hasEmbedding(d, MustParse(`/r/a[(b|c)]`)) {
		t.Error("OR should be satisfied by first alternative")
	}
	if !hasEmbedding(d, MustParse(`/r/a[(c|b)]`)) {
		t.Error("OR should be satisfied by second alternative")
	}
	if hasEmbedding(d, MustParse(`/r/a[(c|d)]`)) {
		t.Error("OR with no satisfied alternative must fail")
	}
}

func TestEvalFunctionNodes(t *testing.T) {
	d, _ := tree.Unmarshal([]byte(
		`<r><a><axml:call service="f"/></a><b><axml:call service="g"/></b></r>`))
	// Star function node under a.
	q := MustParse(`/r/a/()`)
	out := q.ResultNodes()[0]
	calls := MatchedCalls(d, q, out)
	if len(calls) != 1 || calls[0].Label != "f" {
		t.Fatalf("star func match = %v", calls)
	}
	// Named function node.
	q = MustParse(`/r/*/g()`)
	out = q.ResultNodes()[0]
	calls = MatchedCalls(d, q, out)
	if len(calls) != 1 || calls[0].Label != "g" {
		t.Fatalf("named func match = %v", calls)
	}
	// Function nodes are not matched by data steps.
	if hasEmbedding(d, MustParse(`/r/a/f`)) {
		t.Error("a data step must not match a call node")
	}
	// And data nodes are not matched by function steps.
	if hasEmbedding(d, MustParse(`/r/b()`)) {
		t.Error("a function step must not match a data node")
	}
}

func TestEvalOrWithFunctionBranch(t *testing.T) {
	// The NFQ shape: rating satisfied either by data or by any call.
	dData, _ := tree.Unmarshal([]byte(`<r><h><rating>5</rating></h></r>`))
	dCall, _ := tree.Unmarshal([]byte(`<r><h><axml:call service="getRating"/></h></r>`))
	dNone, _ := tree.Unmarshal([]byte(`<r><h><other/></h></r>`))
	q := MustParse(`/r/h[(rating|())]`)
	if !hasEmbedding(dData, q) {
		t.Error("data branch should satisfy the OR")
	}
	if !hasEmbedding(dCall, q) {
		t.Error("function branch should satisfy the OR")
	}
	if hasEmbedding(dNone, q) {
		t.Error("neither branch holds, OR must fail")
	}
}

func TestEvalForest(t *testing.T) {
	forest, err := tree.UnmarshalForest([]byte(
		`<restaurant><name>Jo</name><rating>***</rating></restaurant>` +
			`<restaurant><name>Mama</name><rating>*****</rating></restaurant>`))
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse(`/restaurant[rating="*****"][name=$X] -> $X`)
	rs, _ := EvalForest(forest, q)
	if len(rs) != 1 || rs[0].Values["X"] != "Mama" {
		t.Fatalf("forest eval = %v", rs)
	}
	// Descendant-edge anchor requirement ranges over all forest nodes.
	q2 := MustParse(`//name/$X -> $X`)
	rs, _ = EvalForest(forest, q2)
	if len(rs) != 2 {
		t.Fatalf("descendant forest eval = %v", rs)
	}
}

func TestEvalTuplesVirtualMatch(t *testing.T) {
	// Build the outer query; its restaurant subtree is the pushed part.
	q := MustParse(figure4)
	var restaurant *Node
	for _, n := range q.Nodes() {
		if n.Kind == Const && n.Label == "restaurant" {
			restaurant = n
		}
	}
	if restaurant == nil {
		t.Fatal("no restaurant node in figure4 query")
	}
	fp := q.Fingerprint(restaurant)

	// Document where the nearby zone contains a pushed-result node
	// instead of materialised restaurants.
	root := tree.NewElement("hotels")
	h := root.Append(tree.NewElement("hotel"))
	h.Append(tree.NewElement("name")).Append(tree.NewText("Best Western"))
	h.Append(tree.NewElement("rating")).Append(tree.NewText("*****"))
	nearby := h.Append(tree.NewElement("nearby"))
	nearby.Append(tree.NewTuples(fp, []tree.Binding{
		{"X": "In Delis", "Y": "2nd Ave."},
		{"X": "The Capital", "Y": "2nd Ave."},
	}))
	d := tree.NewDocument(root)

	rs, _ := Eval(d, q)
	if len(rs) != 2 {
		t.Fatalf("want 2 virtual results, got %v", rs)
	}
	names := map[string]bool{}
	for _, r := range rs {
		names[r.Values["X"]] = true
	}
	if !names["In Delis"] || !names["The Capital"] {
		t.Fatalf("bindings = %v", names)
	}

	// A tuples node with a different fingerprint must not match.
	nearby.Children[0].PushedQuery = "other"
	rs, _ = Eval(d, q)
	if len(rs) != 0 {
		t.Fatalf("fingerprint mismatch must not match, got %v", rs)
	}
}

func TestTuplesJoinWithOuterBindings(t *testing.T) {
	// Variable V occurs both outside and inside the pushed subquery: the
	// tuple value must agree with the outer binding.
	q := MustParse(`/r[tag=$V]/zone/item[val=$V] -> $V`)
	var item *Node
	for _, n := range q.Nodes() {
		if n.Label == "item" {
			item = n
		}
	}
	fp := q.Fingerprint(item)
	root := tree.NewElement("r")
	root.Append(tree.NewElement("tag")).Append(tree.NewText("k1"))
	zone := root.Append(tree.NewElement("zone"))
	zone.Append(tree.NewTuples(fp, []tree.Binding{{"V": "k1"}, {"V": "k2"}}))
	d := tree.NewDocument(root)
	rs, _ := Eval(d, q)
	if len(rs) != 1 || rs[0].Values["V"] != "k1" {
		t.Fatalf("join with pushed tuples = %v", rs)
	}
}

func TestSubAndFingerprint(t *testing.T) {
	q := MustParse(figure4)
	var restaurant *Node
	for _, n := range q.Nodes() {
		if n.Label == "restaurant" {
			restaurant = n
		}
	}
	sub := q.Sub(restaurant)
	s := sub.String()
	if !strings.Contains(s, "restaurant") || !strings.Contains(s, "$X") {
		t.Fatalf("Sub serialisation = %q", s)
	}
	// Sub is independent of the original.
	sub.Root().Children[0].Label = "mutated"
	if strings.Contains(q.String(), "mutated") {
		t.Fatal("Sub must deep-copy")
	}
	// Fingerprint is Sub(v).String().
	var r2 *Node
	for _, n := range q.Nodes() {
		if n.Label == "restaurant" {
			r2 = n
		}
	}
	if q.Fingerprint(r2) != NewPattern(q.Root().clone()).Fingerprint(findByLabel(t, q, "restaurant")) {
		// Same pattern content gives same fingerprint.
		t.Fatal("fingerprint not canonical")
	}
}

func findByLabel(t *testing.T, q *Pattern, label string) *Node {
	t.Helper()
	for _, n := range q.Nodes() {
		if n.Label == label {
			return n
		}
	}
	t.Fatalf("no node labelled %q", label)
	return nil
}

func TestLinearSteps(t *testing.T) {
	q := MustParse(`/hotels/hotel/nearby//restaurant/rating`)
	rating := findByLabel(t, q, "rating")
	steps := q.LinearSteps(rating)
	if len(steps) != 5 {
		t.Fatalf("steps = %v", steps)
	}
	if !steps[3].AnyDepth || steps[3].Label != "restaurant" {
		t.Fatalf("descendant step wrong: %+v", steps[3])
	}
	if steps[4].Label != "rating" || steps[4].AnyDepth {
		t.Fatalf("last step wrong: %+v", steps[4])
	}
	// Star and Var steps become wildcards.
	q2 := MustParse(`/a/*/$V/b`)
	b := findByLabel(t, q2, "b")
	steps = q2.LinearSteps(b)
	if steps[1].Label != "*" || steps[2].Label != "*" {
		t.Fatalf("wildcard steps = %v", steps)
	}
}

func TestVariablesAndFuncNodes(t *testing.T) {
	q := MustParse(`/a[x=$X][y=$Y][()][f()] -> $X, $Y`)
	vars := q.Variables()
	if len(vars) != 2 || vars[0] != "X" || vars[1] != "Y" {
		t.Fatalf("Variables = %v", vars)
	}
	fns := q.FuncNodes()
	if len(fns) != 2 || (fns[0].Kind != Func || fns[0].Label != AnyFunc) || fns[1].Label != "f" {
		t.Fatalf("FuncNodes = %v", fns)
	}
}

func TestCloneIndependence(t *testing.T) {
	q := MustParse(`/a/b[c]`)
	c := q.Clone()
	c.Node(1).Label = "z"
	if q.Node(1).Label != "a" {
		t.Fatal("Clone shares nodes with the original")
	}
	if len(c.Nodes()) != len(q.Nodes()) {
		t.Fatal("Clone changed the node count")
	}
}

func TestNewPatternPanicsOnNonRoot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPattern(NewNode(Const, "a", Child))
}

func TestResultKeyDistinguishes(t *testing.T) {
	n1, n2 := tree.NewElement("a"), tree.NewElement("a")
	n1.ID, n2.ID = 1, 2
	r1 := Result{Values: map[string]string{"X": "v"}, Nodes: map[int]*tree.Node{3: n1}}
	r2 := Result{Values: map[string]string{"X": "v"}, Nodes: map[int]*tree.Node{3: n2}}
	if r1.Key() == r2.Key() {
		t.Fatal("keys must distinguish different node captures")
	}
	r3 := Result{Values: map[string]string{"X": "w"}, Nodes: map[int]*tree.Node{3: n1}}
	if r1.Key() == r3.Key() {
		t.Fatal("keys must distinguish different values")
	}
}

// TestCanonicalFormProperty: for random patterns, String∘Parse∘String is
// stable (the canonical form is a fixed point).
func TestCanonicalFormProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := randomPattern(seed)
		// The first Parse may add a default result marker, so canonical
		// stability is checked from the first reparse onward.
		p2, err := Parse(p.String())
		if err != nil {
			t.Logf("parse of %q failed: %v", p.String(), err)
			return false
		}
		s := p2.String()
		p3, err := Parse(s)
		if err != nil {
			t.Logf("reparse of %q failed: %v", s, err)
			return false
		}
		return p3.String() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func randomPattern(seed int64) *Pattern {
	state := uint64(seed)*0x9e3779b97f4a7c15 + 99
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	labels := []string{"a", "b", "hotel", "rating"}
	var build func(depth int, edge EdgeKind) *Node
	build = func(depth int, edge EdgeKind) *Node {
		kind := next(10)
		var n *Node
		switch {
		case kind < 4 || depth <= 0:
			n = NewNode(Const, labels[next(len(labels))], edge)
		case kind < 5:
			n = NewNode(Star, "", edge)
		case kind < 6:
			n = NewNode(Var, "V"+strconv.Itoa(next(3)), edge)
		case kind < 7:
			if next(2) == 0 {
				n = NewNode(Func, AnyFunc, edge)
			} else {
				n = NewNode(Func, "f"+strconv.Itoa(next(3)), edge)
			}
			return n // function nodes carry no children
		case kind < 8:
			n = NewNode(Const, "has space "+strconv.Itoa(next(5)), edge) // quoted form
		default:
			n = NewNode(Or, "", edge)
			for i := 0; i < 2+next(2); i++ {
				n.Add(build(depth-1, edge))
			}
			return n
		}
		if depth > 0 {
			for i := 0; i < next(3); i++ {
				childEdge := Child
				if next(3) == 0 {
					childEdge = Desc
				}
				n.Add(build(depth-1, childEdge))
			}
		}
		return n
	}
	root := NewNode(Root, "", Child)
	edge := Child
	if next(2) == 0 {
		edge = Desc
	}
	root.Add(build(2, edge))
	return NewPattern(root)
}

// TestLiftAndBind pins the shape of a query: Lift turns the leaf constants
// it is allowed to into parameters — one per distinct label, so equal
// constants share one — keeps every other label and every node ID, and Bind
// gives back the query it was lifted from. A query that keeps a label
// beginning like a parameter's, or whose parameters' own labels lift would
// keep, lifts nothing.
func TestLiftAndBind(t *testing.T) {
	elements := map[string]bool{"hotels": true, "hotel": true, "name": true, "rating": true}
	lift := func(label string) bool { return !elements[label] }
	q := MustParse(figure4)
	shape, args := q.Lift(lift)
	if want := []string{"Best Western", "*****"}; strings.Join(args, "|") != strings.Join(want, "|") {
		t.Fatalf("lifted %q, want %q", args, want)
	}
	if shape == q || len(shape.Nodes()) != len(q.Nodes()) {
		t.Fatalf("shape %s of %s", shape, q)
	}
	for i, n := range shape.Nodes() {
		if orig := q.Node(i); n.Kind != orig.Kind || n.Edge != orig.Edge || n.Result != orig.Result {
			t.Fatalf("node %d changed: %+v from %+v", i, n, orig)
		}
	}
	if got := shape.Bind(args).String(); got != q.String() {
		t.Fatalf("Bind(Lift(q)) = %s, want %s", got, q)
	}
	other := MustParse(`/hotels/hotel[name="Ibis"][rating="**"]/nearby//restaurant[rating="**"][name=$X][address=$Y] -> $X, $Y`)
	if s, a := other.Lift(lift); s.String() != shape.String() || strings.Join(a, "|") != "Ibis|**" {
		t.Fatalf("a query of the same shape lifts to %s %q", s, a)
	}
	differ := MustParse(`/hotels/hotel[name="Ibis"][rating="**"]/nearby//restaurant[rating="***"][name=$X][address=$Y] -> $X, $Y`)
	if s, _ := differ.Lift(lift); s.String() == shape.String() {
		t.Fatalf("constants that differ share the shape of equal ones: %s", s)
	}
	if s, a := MustParse(`/hotels/hotel[name="name"]/rating/$R -> $R`).Lift(lift); len(a) != 0 || !strings.Contains(s.String(), `[name/name]`) {
		t.Fatalf("an element label lifted: %s %q", s, a)
	}
	// A label that begins like a parameter's cannot be parsed (no XML text
	// holds "\x00"), only built.
	kept := MustParse(`/hotels/hotel["p"/name]/rating["x"]`)
	for _, n := range kept.Nodes() {
		if n.Label == "p" {
			n.Label = paramPrefix + "1"
		}
	}
	for _, q := range []*Pattern{kept, MustParse(`/hotels/hotel[name="x"]`)} {
		refuse := lift
		if q != kept {
			refuse = func(label string) bool { return !strings.HasPrefix(label, paramPrefix) }
		}
		if s, a := q.Lift(refuse); s != q || a != nil {
			t.Fatalf("%q lifted to %s %q, want itself", q, s, a)
		}
	}
}
