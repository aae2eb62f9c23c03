package schema

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/activexml/axml/internal/pattern"
)

// figure2 is the schema τ of the paper's Figure 2.
const figure2 = `
# The running example's service signatures and content models.
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

func fig2(t *testing.T) *Schema {
	t.Helper()
	s, err := Parse(figure2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseFigure2(t *testing.T) {
	s := fig2(t)
	if len(s.Functions) != 4 || len(s.Elements) != 8 {
		t.Fatalf("got %d functions, %d elements", len(s.Functions), len(s.Elements))
	}
	sig := s.Functions["getNearbyRestos"]
	if sig.In.String() != "data" || sig.Out.String() != "restaurant*" {
		t.Fatalf("getNearbyRestos signature = in:%s out:%s", sig.In, sig.Out)
	}
	if !s.IsFunction("getRating") || s.IsFunction("rating") {
		t.Fatal("IsFunction misclassifies")
	}
	if !s.IsElement("rating") || s.IsElement("getRating") {
		t.Fatal("IsElement misclassifies")
	}
	names := s.FunctionNames()
	if len(names) != 4 || names[0] != "getHotels" {
		t.Fatalf("FunctionNames = %v", names)
	}
}

func TestSchemaStringRoundTrip(t *testing.T) {
	s := fig2(t)
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s.String())
	}
	if s.String() != s2.String() {
		t.Fatalf("round trip unstable:\n%s\nvs\n%s", s.String(), s2.String())
	}
}

func TestParseErrors(t *testing.T) {
	for name, in := range map[string]string{
		"no section":    "a = b",
		"no equals":     "functions:\n  junk line",
		"bad signature": "functions:\n  f = data",
		"no out":        "functions:\n  f = [in: data]",
		"bad labels":    "functions:\n  f = [input: data, output: data]",
		"bad in regex":  "functions:\n  f = [in: ((, out: data]",
		"bad out regex": "functions:\n  f = [in: data, out: ))]",
		"bad content":   "elements:\n  e = a..b",
		"dup function":  "functions:\n  f = [in: data, out: data]\n  f = [in: data, out: data]",
		"dup element":   "elements:\n  e = data\n  e = data",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestValidate(t *testing.T) {
	s := MustParse("elements:\n  a = b.data\nfunctions:\n  f = [in: data, out: ghost]")
	err := s.Validate()
	if err == nil {
		t.Fatal("expected undefined-symbol error")
	}
	for _, missing := range []string{"b", "ghost"} {
		if !strings.Contains(err.Error(), missing) {
			t.Errorf("error %q does not mention %s", err, missing)
		}
	}
}

// nodeByLabel fetches a query node for satisfiability probing.
func nodeByLabel(t *testing.T, q *pattern.Pattern, label string) *pattern.Node {
	t.Helper()
	for _, n := range q.Nodes() {
		if n.Label == label {
			return n
		}
	}
	t.Fatalf("no node %q in %s", label, q)
	return nil
}

// figure4 is the paper's example query.
const figure4 = `/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y`

func TestSatisfiabilityRunningExample(t *testing.T) {
	s := fig2(t)
	q := pattern.MustParse(figure4)
	a := NewAnalyzer(s, q, Exact)

	restaurant := nodeByLabel(t, q, "restaurant")
	// Section 5: "we can discard all the getNearbyMuseums [...] since they
	// return museum elements, and hence cannot satisfy the subquery
	// //restaurant[...]".
	if a.FunctionSatisfies("getNearbyMuseums", restaurant) {
		t.Error("getNearbyMuseums must not satisfy the restaurant subquery")
	}
	if !a.FunctionSatisfies("getNearbyRestos", restaurant) {
		t.Error("getNearbyRestos must satisfy the restaurant subquery")
	}
	// getHotels can produce whole qualifying hotels (through derived
	// instances: rating may come from a nested getRating call).
	hotel := nodeByLabel(t, q, "hotel")
	if !a.FunctionSatisfies("getHotels", hotel) {
		t.Error("getHotels must satisfy the hotel subquery")
	}
	// In the schema, getRating calls sit inside rating elements in place
	// of the value, so the query node they are probed against is the
	// value leaf "*****" — which getRating's data output satisfies.
	rating := nodeByLabel(t, q, "rating")
	leaf := rating.Children[0]
	if !a.FunctionSatisfies("getRating", leaf) {
		t.Error("getRating must satisfy the rating value leaf")
	}
	// And a whole rating element cannot be provided by getRating (data
	// output) nor by getNearbyRestos (restaurant output) at that child
	// position.
	if a.FunctionSatisfies("getNearbyRestos", rating) {
		t.Error("getNearbyRestos must not satisfy the rating subquery")
	}
	if a.FunctionSatisfies("getRating", rating) {
		t.Error("getRating outputs a bare value, not a rating element")
	}
}

func TestSatisfiabilityDerivedInstances(t *testing.T) {
	// f returns g-calls only; g returns the wanted element. f satisfies
	// the query only through the derived (doubly expanded) instance.
	s := MustParse(`
functions:
  f = [in: data, out: g]
  g = [in: data, out: wanted]
elements:
  wanted = data
`)
	q := pattern.MustParse(`/r/wanted`)
	a := NewAnalyzer(s, q, Exact)
	w := nodeByLabel(t, q, "wanted")
	if !a.FunctionSatisfies("f", w) {
		t.Error("f must satisfy wanted through g's expansion")
	}
	if !a.FunctionSatisfies("g", w) {
		t.Error("g must satisfy wanted directly")
	}
}

func TestSatisfiabilityRecursiveSchema(t *testing.T) {
	// A function whose output may embed calls to itself: the fixpoint
	// must terminate and the reachable symbols must be found.
	s := MustParse(`
functions:
  crawl = [in: data, out: page*]
elements:
  page = title.(link|crawl)*
  title = data
  link = data
`)
	q := pattern.MustParse(`/r//page[title]//link`)
	a := NewAnalyzer(s, q, Exact)
	link := nodeByLabel(t, q, "link")
	if !a.FunctionSatisfies("crawl", link) {
		t.Error("crawl reaches link through recursive expansion")
	}
}

func TestEdgeKindMatters(t *testing.T) {
	s := fig2(t)
	// Child edge: getHotels plugs hotel trees at the call position, so a
	// child-edge rating node cannot be satisfied (hotel ≠ rating)...
	qChild := pattern.MustParse(`/hotels/rating`)
	a := NewAnalyzer(s, qChild, Exact)
	rating := nodeByLabel(t, qChild, "rating")
	if a.FunctionSatisfies("getHotels", rating) {
		t.Error("child-edge rating must not be satisfied by getHotels")
	}
	// ...but a descendant-edge rating is: hotels contain ratings below.
	qDesc := pattern.MustParse(`/hotels//rating`)
	a = NewAnalyzer(s, qDesc, Exact)
	rating = nodeByLabel(t, qDesc, "rating")
	if !a.FunctionSatisfies("getHotels", rating) {
		t.Error("descendant-edge rating must be satisfied by getHotels")
	}
}

func TestFuncQueryNodes(t *testing.T) {
	s := fig2(t)
	// A query function node getRating() is satisfied by getRating itself
	// (unexpanded) and by getHotels (whose derived instances contain
	// getRating calls inside rating elements — wait, rating = data |
	// getRating, and hotel contains rating, so a getRating *call node*
	// appears in derived instances of getHotels at depth ≥ 1).
	q := pattern.MustParse(`/hotels//getRating()`)
	a := NewAnalyzer(s, q, Exact)
	var fnode *pattern.Node
	for _, n := range q.Nodes() {
		if n.Kind == pattern.Func {
			fnode = n
		}
	}
	if !a.FunctionSatisfies("getRating", fnode) {
		t.Error("getRating() satisfied by getRating directly")
	}
	if !a.FunctionSatisfies("getHotels", fnode) {
		t.Error("getRating() reachable in getHotels derived instances")
	}
	if a.FunctionSatisfies("getNearbyMuseums", fnode) {
		t.Error("museums never contain getRating calls")
	}
}

func TestExactVsLenient(t *testing.T) {
	// Content model (a|b): a word contains a or b, never both. A query
	// requiring both children is exactly unsatisfiable but leniently
	// satisfiable (the graph schema ignores the exclusive choice).
	s := MustParse(`
functions:
  f = [in: data, out: e]
elements:
  e = a|b
  a = data
  b = data
`)
	q := pattern.MustParse(`/r/e[a][b]`)
	e := nodeByLabel(t, q, "e")
	if NewAnalyzer(s, q, Exact).FunctionSatisfies("f", e) {
		t.Error("exact: e cannot have both a and b children")
	}
	if !NewAnalyzer(s, q, Lenient).FunctionSatisfies("f", e) {
		t.Error("lenient: graph schema must admit both children")
	}
	// Cardinality: e2 = a (exactly one a); two a-children are fine for an
	// embedding (homomorphism, both map to the same child).
	s2 := MustParse(`
functions:
  f = [in: data, out: e2]
elements:
  e2 = a
  a = data
`)
	q2 := pattern.MustParse(`/r/e2[a][a/"x"]`)
	e2 := nodeByLabel(t, q2, "e2")
	if !NewAnalyzer(s2, q2, Exact).FunctionSatisfies("f", e2) {
		t.Error("two query children may share one document child")
	}
}

func TestLenientIsSuperset(t *testing.T) {
	s := fig2(t)
	q := pattern.MustParse(figure4)
	exact := NewAnalyzer(s, q, Exact)
	lenient := NewAnalyzer(s, q, Lenient)
	for _, v := range q.Nodes() {
		if v.Kind == pattern.Root {
			continue
		}
		for _, fn := range s.FunctionNames() {
			if exact.FunctionSatisfies(fn, v) && !lenient.FunctionSatisfies(fn, v) {
				t.Errorf("lenient rejected (%s, %s) accepted by exact", fn, q.Sub(v))
			}
		}
	}
}

func TestUnknownFunctionIsOptimistic(t *testing.T) {
	s := fig2(t)
	q := pattern.MustParse(figure4)
	a := NewAnalyzer(s, q, Exact)
	if !a.FunctionSatisfies("mystery", nodeByLabel(t, q, "restaurant")) {
		t.Error("functions without a signature must satisfy everything")
	}
}

func TestUnknownElementIsOptimistic(t *testing.T) {
	// f returns blob elements whose type is not declared: anything could
	// be below them.
	s := MustParse(`
functions:
  f = [in: data, out: blob]
elements:
`)
	q := pattern.MustParse(`/r/x[y]`)
	a := NewAnalyzer(s, q, Exact)
	if !a.FunctionSatisfies("f", nodeByLabel(t, q, "x")) {
		t.Error("undeclared output element must be treated optimistically")
	}
}

func TestOrQueryNodes(t *testing.T) {
	s := fig2(t)
	q := pattern.MustParse(`/hotels/hotel[(rating|museum)]`)
	a := NewAnalyzer(s, q, Exact)
	hotel := nodeByLabel(t, q, "hotel")
	// hotel content has rating (first OR branch), so satisfiable.
	if !a.FunctionSatisfies("getHotels", hotel) {
		t.Error("OR should be satisfied through the rating branch")
	}
}

func TestFunctionsSatisfying(t *testing.T) {
	s := fig2(t)
	q := pattern.MustParse(figure4)
	a := NewAnalyzer(s, q, Exact)
	var got []string
	for _, fn := range s.FunctionNames() {
		if a.FunctionSatisfies(fn, nodeByLabel(t, q, "restaurant")) {
			got = append(got, fn)
		}
	}
	// restaurant is reached through a descendant edge, so getHotels also
	// qualifies: a getHotels call below nearby would return hotels whose
	// own nearby zones contain restaurants — descendants of the outer
	// nearby. getNearbyRestos provides restaurants directly.
	if len(got) != 2 || got[0] != "getHotels" || got[1] != "getNearbyRestos" {
		t.Fatalf("functions satisfying restaurant = %v, want [getHotels getNearbyRestos]", got)
	}
}

func TestElementSatisfies(t *testing.T) {
	s := fig2(t)
	q := pattern.MustParse(figure4)
	a := NewAnalyzer(s, q, Exact)
	if !a.satOf("restaurant", nodeByLabel(t, q, "restaurant")) {
		t.Error("restaurant element satisfies the restaurant subquery")
	}
	if a.satOf("museum", nodeByLabel(t, q, "restaurant")) {
		t.Error("museum element must not satisfy the restaurant subquery")
	}
}

func TestDataLeafRules(t *testing.T) {
	s := fig2(t)
	q := pattern.MustParse(`/hotels/hotel/name/"Best Western"`)
	a := NewAnalyzer(s, q, Exact)
	// getRating outputs bare data; it satisfies the value leaf.
	leaf := nodeByLabel(t, q, "Best Western")
	if !a.FunctionSatisfies("getRating", leaf) {
		t.Error("data output satisfies a value leaf")
	}
	// But data cannot satisfy a node that requires children.
	name := nodeByLabel(t, q, "name")
	if a.satOf("address", name) {
		t.Error("address ≠ name")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("garbage without sections")
}

// TestParsersNeverPanic feeds the schema and regex syntax random input.
func TestParsersNeverPanic(t *testing.T) {
	f := func(input string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("Parse(%q) panicked: %v", input, r)
				ok = false
			}
		}()
		_, _ = Parse(input)
		_, _ = Parse("functions:\n  f = [in: " + input + ", out: data]")
		_, _ = Parse("elements:\n  e = " + input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
