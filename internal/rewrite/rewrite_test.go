package rewrite

import (
	"sort"
	"strings"
	"testing"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/tree"
)

const figure4 = `/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y`

const figure2 = `
functions:
  getHotels        = [in: data, out: hotel*]
  getRating        = [in: data, out: data]
  getNearbyRestos  = [in: data, out: restaurant*]
  getNearbyMuseums = [in: data, out: museum*]
elements:
  hotels     = (hotel|getHotels)*
  hotel      = name.address.rating.nearby
  nearby     = (restaurant|getNearbyRestos)*.(museum|getNearbyMuseums)*
  restaurant = name.address.rating
  museum     = name.address
  name       = data
  address    = data
  rating     = data|getRating
`

// figure1 builds a document in the spirit of the paper's Figure 1, with
// named calls so tests can assert exactly which are retrieved:
//
//	hotel A "Best Western", rating *****:   a1 getNearbyRestos, a2 getNearbyMuseums
//	hotel B "Best Western", rating: b3 getRating; nearby: b4 getNearbyRestos, b5 getNearbyMuseums
//	hotel C "Pennsylvania",  rating: c8 getRating; nearby: c9 getNearbyRestos
//	hotel D "Best Western",  rating: d6 getRating; nearby: d7 getNearbyMuseums only
//	root-level: h10 getHotels
func figure1() (*tree.Document, map[string]*tree.Node) {
	calls := map[string]*tree.Node{}
	mkCall := func(key, svc, param string) *tree.Node {
		c := tree.NewCall(svc, tree.NewText(param))
		calls[key] = c
		return c
	}
	root := tree.NewElement("hotels")

	a := root.Append(tree.NewElement("hotel"))
	a.Append(tree.NewElement("name")).Append(tree.NewText("Best Western"))
	a.Append(tree.NewElement("address")).Append(tree.NewText("75, 2nd Av."))
	a.Append(tree.NewElement("rating")).Append(tree.NewText("*****"))
	an := a.Append(tree.NewElement("nearby"))
	an.Append(mkCall("a1", "getNearbyRestos", "75, 2nd Av."))
	an.Append(mkCall("a2", "getNearbyMuseums", "75, 2nd Av."))

	b := root.Append(tree.NewElement("hotel"))
	b.Append(tree.NewElement("name")).Append(tree.NewText("Best Western"))
	b.Append(tree.NewElement("address")).Append(tree.NewText("22 Madison Av."))
	b.Append(tree.NewElement("rating")).Append(mkCall("b3", "getRating", "Best Western Madison"))
	bn := b.Append(tree.NewElement("nearby"))
	bn.Append(mkCall("b4", "getNearbyRestos", "22 Madison Av."))
	bn.Append(mkCall("b5", "getNearbyMuseums", "22 Madison Av."))

	c := root.Append(tree.NewElement("hotel"))
	c.Append(tree.NewElement("name")).Append(tree.NewText("Pennsylvania"))
	c.Append(tree.NewElement("address")).Append(tree.NewText("13 Penn St."))
	c.Append(tree.NewElement("rating")).Append(mkCall("c8", "getRating", "Pennsylvania"))
	cn := c.Append(tree.NewElement("nearby"))
	cn.Append(mkCall("c9", "getNearbyRestos", "13 Penn St."))

	d := root.Append(tree.NewElement("hotel"))
	d.Append(tree.NewElement("name")).Append(tree.NewText("Best Western"))
	d.Append(tree.NewElement("address")).Append(tree.NewText("12 34th St. W"))
	d.Append(tree.NewElement("rating")).Append(mkCall("d6", "getRating", "Best Western 34th St."))
	dn := d.Append(tree.NewElement("nearby"))
	dn.Append(mkCall("d7", "getNearbyMuseums", "12 34th St. W"))

	root.Append(mkCall("h10", "getHotels", "NY"))
	return tree.NewDocument(root), calls
}

// retrieved evaluates all the given relevance queries on doc and returns
// the keys of the retrieved calls, sorted.
func retrieved(t *testing.T, doc *tree.Document, nfqs []*NFQ, calls map[string]*tree.Node, an *schema.Analyzer) []string {
	t.Helper()
	byNode := map[*tree.Node]string{}
	for k, n := range calls {
		byNode[n] = k
	}
	got := map[string]bool{}
	for _, nfq := range nfqs {
		for _, c := range pattern.MatchedCalls(doc, nfq.Query, nfq.Out) {
			if !nfq.SatisfiesOut(an, c.Label) {
				continue
			}
			key := byNode[c]
			if key == "" {
				t.Fatalf("retrieved an unknown call %s", c.Label)
			}
			got[key] = true
		}
	}
	var out []string
	for k := range got {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestNFQUntypedRelevance(t *testing.T) {
	doc, calls := figure1()
	q := pattern.MustParse(figure4)
	nfqs, err := BuildAll(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := retrieved(t, doc, nfqs, calls, nil)
	// Untyped (Proposition 1): everything that could position-wise and
	// condition-wise contribute, assuming functions return anything.
	// - a1, a2: hotel A qualifies on name+rating; its nearby calls could
	//   return 5-star restaurants (a2 only under the untyped assumption).
	// - b3, b4, b5: hotel B's rating may come from b3, restaurants from
	//   b4/b5 (untyped).
	// - d6, d7: hotel D's rating may come from d6, restaurants from d7
	//   (untyped: the museums call may return anything).
	// - h10: may return fresh qualifying hotels.
	// - c8, c9 are irrelevant even untyped: hotel C's name is data and
	//   cannot become "Best Western".
	want := []string{"a1", "a2", "b3", "b4", "b5", "d6", "d7", "h10"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("untyped relevant calls = %v, want %v", got, want)
	}
}

func TestNFQRefinedRelevance(t *testing.T) {
	doc, calls := figure1()
	q := pattern.MustParse(figure4)
	sch := schema.MustParse(figure2)
	an := schema.NewAnalyzer(sch, q, schema.Exact)
	names := sch.FunctionNames()
	nfqs, err := BuildAll(q, Options{Analyzer: an, Names: names})
	if err != nil {
		t.Fatal(err)
	}
	got := retrieved(t, doc, nfqs, calls, an)
	// Section 5 refinement: museums calls cannot return restaurants
	// (a2, b5, d7 out); d6 goes too, because hotel D's nearby zone holds
	// only a museums call, so no 5-star restaurant can ever appear there.
	// This mirrors the paper's Section 2 discussion where the relevant
	// set is {1, 3, 4, 10}.
	want := []string{"a1", "b3", "b4", "h10"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("refined relevant calls = %v, want %v", got, want)
	}
}

func TestLPQRelevanceIsCoarser(t *testing.T) {
	doc, calls := figure1()
	q := pattern.MustParse(figure4)
	lpqs := lpqSet(t, q)
	got := retrieved(t, doc, lpqs, calls, nil)
	// Section 3.1: LPQs only check positions, so even hotel C's calls
	// come back (the paper's "Pennsylvania" observation).
	want := []string{"a1", "a2", "b3", "b4", "b5", "c8", "c9", "d6", "d7", "h10"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("LPQ calls = %v, want %v", got, want)
	}
}

func TestLPQShapes(t *testing.T) {
	q := pattern.MustParse(figure4)
	lpqs := lpqSet(t, q)
	forms := map[string]bool{}
	for _, l := range lpqs {
		forms[l.Query.String()] = true
	}
	// A few expected members of the family (Section 3.1's list).
	// Note: a call that is a direct child of nearby is retrieved by the
	// //() form, so no separate /hotels/hotel/nearby/()! query is needed
	// for completeness.
	for _, want := range []string{
		"/()!",
		"/hotels/()!",
		"/hotels/hotel/()!",
		"/hotels/hotel/rating/()!",
		"/hotels/hotel/nearby//()!",
		"/hotels/hotel/nearby//restaurant/()!",
		"/hotels/hotel/nearby//restaurant/rating/()!",
	} {
		if !forms[want] {
			t.Errorf("missing LPQ %s (have %v)", want, keys(forms))
		}
	}
	// Duplicates are merged: name and address children of restaurant
	// yield the same /…/restaurant/()! query.
	count := 0
	for f := range forms {
		if f == "/hotels/hotel/nearby//restaurant/()!" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("LPQ dedup failed")
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestNFQShapeForRatingLeaf(t *testing.T) {
	// The NFQ for the hotel-rating value leaf (Figure 6(c)): the path
	// root→rating is plain, the output is a function child of rating,
	// and the sibling branches are OR'ed with ().
	q := pattern.MustParse(figure4)
	var leaf *pattern.Node
	for _, n := range q.Nodes() {
		if n.Kind == pattern.Const && n.Label == "*****" && n.Parent.Label == "rating" && n.Parent.Parent.Label == "hotel" {
			leaf = n
			break
		}
	}
	if leaf == nil {
		t.Fatal("rating leaf not found")
	}
	nfq, err := Build(q, leaf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := nfq.Query.String()
	if !strings.Contains(s, "/hotels/hotel") || !strings.Contains(s, "rating/()!") {
		t.Errorf("unexpected NFQ shape: %s", s)
	}
	// The name branch must be OR'ed with a star function, and its value
	// leaf too.
	if !strings.Contains(s, `(name[("Best Western"|())]|())`) {
		t.Errorf("name branch not OR'ed: %s", s)
	}
	// Linear part is /hotels/hotel/rating.
	if len(nfq.Lin) != 3 || nfq.Lin[2].Label != "rating" {
		t.Errorf("Lin = %v", nfq.Lin)
	}
}

func TestNFQOnPathNodesAreNotOred(t *testing.T) {
	q := pattern.MustParse(`/a/b/c`)
	var c *pattern.Node
	for _, n := range q.Nodes() {
		if n.Label == "c" {
			c = n
		}
	}
	nfq, err := Build(q, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := nfq.Query.String(), "/a/b/()!"; got != want {
		t.Fatalf("NFQ = %q, want %q", got, want)
	}
}

func TestNFQDoneSimplification(t *testing.T) {
	q := pattern.MustParse(`/a[b]/c`)
	var b, c *pattern.Node
	for _, n := range q.Nodes() {
		switch n.Label {
		case "b":
			b = n
		case "c":
			c = n
		}
	}
	// Once b's layer is done, its OR/() branch disappears from c's NFQ.
	nfq, err := Build(q, c, Options{Done: map[int]bool{b.ID: true}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := nfq.Query.String(), "/a[b]/()!"; got != want {
		t.Fatalf("simplified NFQ = %q, want %q", got, want)
	}
	// And BuildAll skips done nodes entirely.
	nfqs, err := BuildAll(q, Options{Done: map[int]bool{b.ID: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nfqs {
		if n.For == b {
			t.Fatal("BuildAll generated an NFQ for a done node")
		}
	}
}

func TestNFQRelaxJoins(t *testing.T) {
	// The joined values sit below b and c so that the output call (a
	// child of d) cannot optimistically stand in for them: embeddings
	// are homomorphisms, and a sibling call would otherwise satisfy any
	// OR/() branch at the same position.
	q := pattern.MustParse(`/a[b/x=$V][c/y=$V]/d/z`)
	var z *pattern.Node
	for _, n := range q.Nodes() {
		if n.Label == "z" {
			z = n
		}
	}
	nfq, err := Build(q, z, Options{RelaxJoins: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(nfq.Query.String(), "$V") {
		t.Fatalf("relaxed NFQ still contains variables: %s", nfq.Query)
	}
	// x and y carry different values: the join fails on data, and no
	// call exists at the b, c, x or y positions to repair it.
	doc, _ := tree.Unmarshal([]byte(
		`<a><b><x>1</x></b><c><y>2</y></c><d><axml:call service="f"/></d></a>`))
	if len(pattern.MatchedCalls(doc, nfq.Query, nfq.Out)) != 1 {
		t.Fatal("relaxed NFQ should ignore the value join")
	}
	strict, err := Build(q, z, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pattern.MatchedCalls(doc, strict.Query, strict.Out)) != 0 {
		t.Fatal("strict NFQ must enforce the value join")
	}
}

func TestRefinedBranchesListConcreteNames(t *testing.T) {
	q := pattern.MustParse(figure4)
	sch := schema.MustParse(figure2)
	an := schema.NewAnalyzer(sch, q, schema.Exact)
	var leaf *pattern.Node
	for _, n := range q.Nodes() {
		if n.Label == "*****" && n.Parent.Label == "rating" && n.Parent.Parent.Label == "hotel" {
			leaf = n
		}
	}
	nfq, err := Build(q, leaf, Options{Analyzer: an, Names: sch.FunctionNames()})
	if err != nil {
		t.Fatal(err)
	}
	s := nfq.Query.String()
	if strings.Contains(s, "[()") || strings.Contains(s, "|())") {
		t.Errorf("refined NFQ still has star branches: %s", s)
	}
	if !strings.Contains(s, "getNearbyRestos()") {
		t.Errorf("restaurant branch should list getNearbyRestos: %s", s)
	}
	if strings.Contains(s, "getNearbyMuseums()") && strings.Contains(s, "restaurant") {
		// Museums may legitimately appear for other branches; make sure
		// it is not an alternative of the restaurant branch.
		idx := strings.Index(s, "restaurant")
		seg := s[idx:]
		if end := strings.Index(seg, "]"); end > 0 && strings.Contains(seg[:end], "getNearbyMuseums") {
			t.Errorf("museums listed as restaurant provider: %s", s)
		}
	}
}

func TestValidateRejectsExtendedQueries(t *testing.T) {
	for _, in := range []string{`/a[(b|c)]`, `/a[f()]`} {
		q := pattern.MustParse(in)
		if _, err := BuildAll(q, Options{}); err == nil {
			t.Errorf("BuildAll(%s): expected validation error", in)
		}
		if _, err := LPQ(q, q.Nodes()[1]); err == nil {
			t.Errorf("LPQ(%s): expected validation error", in)
		}
	}
	q := pattern.MustParse(`/a/b`)
	if _, err := Build(q, q.Root(), Options{}); err == nil {
		t.Error("Build on the anchor should fail")
	}
}

func TestNFQStringSmoke(t *testing.T) {
	q := pattern.MustParse(`/a/b`)
	nfqs, err := BuildAll(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nfqs {
		if !strings.Contains(n.String(), "NFQ(for=") {
			t.Fatalf("String = %q", n.String())
		}
	}
}

func TestBuildAllCount(t *testing.T) {
	q := pattern.MustParse(figure4)
	nfqs, err := BuildAll(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One NFQ per non-anchor node.
	if want := len(q.Nodes()) - 1; len(nfqs) != want {
		t.Fatalf("got %d NFQs, want %d", len(nfqs), want)
	}
}

func TestMinimize(t *testing.T) {
	q := pattern.MustParse(figure4)
	lpqs := lpqSet(t, q)
	minimized := Minimize(lpqs)
	if len(minimized) >= len(lpqs) {
		t.Fatalf("nothing minimized: %d vs %d", len(minimized), len(lpqs))
	}
	// The queries below nearby are all subsumed by nearby//(), whose
	// position language is hotels·hotel·nearby·σ*.
	for _, l := range minimized {
		s := l.Query.String()
		if strings.Contains(s, "restaurant") {
			t.Errorf("restaurant LPQ %s should be subsumed by the nearby//() query", s)
		}
	}
	// Minimization must not change the retrieved set.
	doc, calls := figure1()
	full := retrieved(t, doc, lpqs, calls, nil)
	min := retrieved(t, doc, minimized, calls, nil)
	if strings.Join(full, ",") != strings.Join(min, ",") {
		t.Fatalf("minimization changed retrieval: %v vs %v", min, full)
	}
}

func TestMinimizeKeepsIncomparable(t *testing.T) {
	q := pattern.MustParse(`/a[b/x]/c/y`)
	lpqs := lpqSet(t, q)
	minimized := Minimize(lpqs)
	// /a/b/() and /a/c/() are incomparable; both must survive.
	forms := map[string]bool{}
	for _, l := range minimized {
		forms[l.Query.String()] = true
	}
	if !forms["/a/b/()!"] || !forms["/a/c/()!"] {
		t.Fatalf("incomparable LPQs dropped: %v", forms)
	}
}

// lpqSet builds the LPQ of every non-anchor node, as the engine's LPQ
// strategy does (core's Prepared.lpqSet).
func lpqSet(t *testing.T, q *pattern.Pattern) []*NFQ {
	t.Helper()
	var out []*NFQ
	for _, v := range q.Nodes()[1:] {
		l, err := LPQ(q, v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}
