package fguide

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/regex"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/tree"
)

func doc(t *testing.T, xml string) *tree.Document {
	t.Helper()
	d, err := tree.Unmarshal([]byte(xml))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

const sample = `<hotels>
  <hotel>
    <name>Best Western</name>
    <rating><axml:call service="getRating"/></rating>
    <nearby>
      <axml:call service="getNearbyRestos"/>
      <axml:call service="getNearbyMuseums"/>
    </nearby>
  </hotel>
  <hotel>
    <name>Pennsylvania</name>
    <rating><axml:call service="getRating"/></rating>
  </hotel>
  <axml:call service="getHotels"/>
</hotels>`

func TestBuildCountsPathsAndCalls(t *testing.T) {
	g := Build(doc(t, sample))
	if g.Calls() != 5 {
		t.Fatalf("Calls = %d, want 5", g.Calls())
	}
	// Distinct call-bearing paths: /hotels, /hotels/hotel/rating,
	// /hotels/hotel/nearby.
	if g.Paths() != 3 {
		t.Fatalf("Paths = %d, want 3\n%s", g.Paths(), g)
	}
}

func TestCandidatesChildEdge(t *testing.T) {
	g := Build(doc(t, sample))
	// Calls whose parent path is /hotels/hotel/rating.
	lin := []regex.PathStep{{Label: "hotels"}, {Label: "hotel"}, {Label: "rating"}}
	got := g.Candidates(lin, false)
	if len(got) != 2 {
		t.Fatalf("rating candidates = %d, want 2", len(got))
	}
	for _, c := range got {
		if c.Label != "getRating" {
			t.Fatalf("unexpected candidate %s", c.Label)
		}
	}
	// Calls directly under the root element.
	got = g.Candidates([]regex.PathStep{{Label: "hotels"}}, false)
	if len(got) != 1 || got[0].Label != "getHotels" {
		t.Fatalf("root candidates = %v", got)
	}
}

func TestCandidatesDescTailAndWildcards(t *testing.T) {
	g := Build(doc(t, sample))
	// Any call at any depth below a hotel.
	lin := []regex.PathStep{{Label: "hotels"}, {Label: "hotel"}}
	got := g.Candidates(lin, true)
	if len(got) != 4 {
		t.Fatalf("descTail candidates = %d, want 4", len(got))
	}
	// Wildcard step.
	lin = []regex.PathStep{{Label: "hotels"}, {Label: regex.Any}, {Label: "nearby"}}
	got = g.Candidates(lin, false)
	if len(got) != 2 {
		t.Fatalf("wildcard candidates = %d, want 2", len(got))
	}
	// AnyDepth step: //rating.
	lin = []regex.PathStep{{Label: "rating", AnyDepth: true}}
	got = g.Candidates(lin, false)
	if len(got) != 2 {
		t.Fatalf("anydepth candidates = %d, want 2", len(got))
	}
	// No match.
	if g.Candidates([]regex.PathStep{{Label: "museums"}}, true) != nil {
		t.Fatal("expected no candidates")
	}
}

func TestGuideAgreesWithLPQsOnDocument(t *testing.T) {
	// Section 6.2: "the linear path queries of Section 3 yield the same
	// result on a document and on its F-guide".
	d := doc(t, sample)
	g := Build(d)
	q := pattern.MustParse(`/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y`)
	for _, l := range lpqSet(t, q) {
		onDoc := pattern.MatchedCalls(d, l.Query, l.Out)
		onGuide := g.Candidates(l.Lin, l.DescTail)
		if len(onDoc) != len(onGuide) {
			t.Errorf("%s: doc=%d guide=%d", l.Query, len(onDoc), len(onGuide))
			continue
		}
		for i := range onDoc {
			if onDoc[i] != onGuide[i] {
				t.Errorf("%s: candidate %d differs", l.Query, i)
			}
		}
	}
}

func TestRemoveAndPrune(t *testing.T) {
	d := doc(t, sample)
	g := Build(d)
	var hotelsCall *tree.Node
	for _, c := range d.Calls() {
		if c.Label == "getHotels" {
			hotelsCall = c
		}
	}
	g.remove(hotelsCall)
	if g.Calls() != 4 {
		t.Fatalf("Calls after remove = %d", g.Calls())
	}
	if got := g.Candidates([]regex.PathStep{{Label: "hotels"}}, false); got != nil {
		t.Fatalf("removed call still a candidate: %v", got)
	}
	// Removing again is a no-op.
	g.remove(hotelsCall)
	if g.Calls() != 4 {
		t.Fatal("double remove changed the count")
	}
}

func TestPruneKeepsSharedBranches(t *testing.T) {
	d := doc(t, sample)
	g := Build(d)
	// Remove one of the two getRating calls: the rating path must stay.
	var ratings []*tree.Node
	for _, c := range d.Calls() {
		if c.Label == "getRating" {
			ratings = append(ratings, c)
		}
	}
	g.remove(ratings[0])
	lin := []regex.PathStep{{Label: "hotels"}, {Label: "hotel"}, {Label: "rating"}}
	if got := g.Candidates(lin, false); len(got) != 1 {
		t.Fatalf("rating extent after partial removal = %d, want 1", len(got))
	}
	if g.Paths() != 3 {
		t.Fatalf("Paths = %d, want 3 (path still occupied)", g.Paths())
	}
}

func TestMaintenanceAcrossReplaceCall(t *testing.T) {
	d := doc(t, sample)
	g := Build(d)
	var restos *tree.Node
	for _, c := range d.Calls() {
		if c.Label == "getNearbyRestos" {
			restos = c
		}
	}
	// Result: a restaurant with a nested rating call.
	result, err := tree.UnmarshalForest([]byte(
		`<restaurant><name>Jo</name><rating><axml:call service="getRating"/></rating></restaurant>`))
	if err != nil {
		t.Fatal(err)
	}
	calls := g.Calls()
	s := d.ReplaceCall(restos, result)
	g.ApplyExpansion(s)
	if !Synced(g) {
		t.Fatal("guide out of sync after maintenance")
	}
	// The expansion swaps the expanded call for the one the document
	// recorded the forest bringing in, once: a second application adds none.
	if len(s.Calls) != 1 || s.Calls[0].Label != "getRating" || g.Calls() != calls {
		t.Fatalf("recorded calls %v, %d indexed calls after the expansion; want the nested getRating, %d", s.Calls, g.Calls(), calls)
	}
	before := g.String()
	if g.ApplyExpansion(s); g.String() != before || g.Calls() != calls {
		t.Fatalf("replayed expansion changed the guide:\n%s\nvs\n%s", g, before)
	}
	// The nested call is now reachable under the new path.
	lin := []regex.PathStep{
		{Label: "hotels"}, {Label: "hotel"}, {Label: "nearby"},
		{Label: "restaurant"}, {Label: "rating"},
	}
	got := g.Candidates(lin, false)
	if len(got) != 1 || got[0].Label != "getRating" {
		t.Fatalf("nested call not indexed: %v\n%s", got, g)
	}
}

// TestApplyExpansionEmptyForest: a service that legitimately returns
// nothing is an ordinary expansion. The guide must end up synced and equal
// to a cold build, and must get there from the removed call alone — the
// parent's other extents keep their node identities and order (no rescan
// of the parent's subtree). Replaying the applied expansion changes
// nothing.
func TestApplyExpansionEmptyForest(t *testing.T) {
	root := tree.NewElement("list")
	var calls []*tree.Node
	for i := 0; i < 200; i++ {
		calls = append(calls, root.Append(tree.NewCall("f")))
	}
	d := tree.NewDocument(root)
	g := Build(d)
	lin := []regex.PathStep{{Label: "list"}}

	gone := calls[100]
	want := append(append([]*tree.Node(nil), calls[:100]...), calls[101:]...)
	s := d.ReplaceCall(gone, []*tree.Node{})
	for range 2 {
		g.ApplyExpansion(s)
		if !Synced(g) {
			t.Fatal("guide not synced after an empty expansion")
		}
		if got, cold := g.String(), Build(d).String(); got != cold {
			t.Fatalf("patched guide differs from cold rebuild:\n%s\nvs\n%s", got, cold)
		}
		got := g.Candidates(lin, false)
		if len(got) != len(want) {
			t.Fatalf("extent has %d calls, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("extent entry %d changed identity", i)
			}
		}
	}
}

// TestRemoveFromExtentOutOfIDOrder: a guide built over an already expanded
// document holds its extents in document order, which is not ID order once
// an adopted call sits in the middle; removal must find its call there too.
func TestRemoveFromExtentOutOfIDOrder(t *testing.T) {
	root := tree.NewElement("list")
	for i := 0; i < 20; i++ {
		root.Append(tree.NewCall("f"))
	}
	d := tree.NewDocument(root)
	d.ReplaceCall(root.Children[5], []*tree.Node{tree.NewCall("f")})
	g := Build(d)
	for _, i := range []int{12, 5, 0} {
		gone := root.Children[i]
		g.ApplyExpansion(d.ReplaceCall(gone, nil))
		if got, cold := g.String(), Build(d).String(); got != cold {
			t.Fatalf("after removing child %d the guide differs from a cold rebuild:\n%s\nvs\n%s", i, got, cold)
		}
		for _, c := range g.Candidates([]regex.PathStep{{Label: "list"}}, false) {
			if c == gone {
				t.Fatalf("child %d still indexed after its expansion", i)
			}
		}
	}
}

func TestAddPanicsOnNonCall(t *testing.T) {
	d := doc(t, sample)
	g := Build(d)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.add(d.Root)
}

func TestStringShape(t *testing.T) {
	g := Build(doc(t, sample))
	s := g.String()
	if !strings.Contains(s, "hotels") || !strings.Contains(s, "rating (2 calls)") {
		t.Fatalf("String = %q", s)
	}
	// Pruned: no name branch (no calls below name).
	if strings.Contains(s, "name") {
		t.Fatalf("pruned branch rendered: %q", s)
	}
}

// TestGuideEquivalenceProperty: on random documents, guide candidates for
// random linear paths equal a direct document scan.
func TestGuideEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDoc(seed)
		g := Build(d)
		lin, descTail := randomLin(seed * 31)
		fromGuide := g.Candidates(lin, descTail)
		want := scanCalls(d, lin, descTail)
		if len(fromGuide) != len(want) || g.HasCandidates(lin, descTail) != (len(want) > 0) {
			return false
		}
		for i := range want {
			if fromGuide[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// scanCalls is the reference implementation: walk the document and test
// each call's parent path against the lin steps (NFA-style).
func scanCalls(d *tree.Document, lin []regex.PathStep, descTail bool) []*tree.Node {
	nfa := (&rewrite.NFQ{Lin: lin}).PositionNFA()
	var out []*tree.Node
	d.Root.Walk(func(n *tree.Node) bool {
		if n.Kind != tree.Call {
			return true
		}
		path := n.Path()
		parent := path[:len(path)-1]
		if nfa.Matches(parent) {
			out = append(out, n)
			return true
		}
		if descTail {
			for i := 0; i < len(parent); i++ {
				if nfa.Matches(parent[:i]) {
					out = append(out, n)
					return true
				}
			}
		}
		return true
	})
	return out
}

func randomDoc(seed int64) *tree.Document {
	state := uint64(seed)*0x9e3779b97f4a7c15 + 7
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	labels := []string{"a", "b", "c"}
	var build func(depth int) *tree.Node
	build = func(depth int) *tree.Node {
		if depth <= 0 || next(5) == 0 {
			if next(2) == 0 {
				return tree.NewCall("f")
			}
			return tree.NewText("v")
		}
		n := tree.NewElement(labels[next(len(labels))])
		for i := 0; i < next(4); i++ {
			n.Append(build(depth - 1))
		}
		return n
	}
	root := tree.NewElement("r")
	for i := 0; i < 1+next(4); i++ {
		root.Append(build(4))
	}
	return tree.NewDocument(root)
}

func randomLin(seed int64) ([]regex.PathStep, bool) {
	state := uint64(seed)*0x9e3779b97f4a7c15 + 13
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	labels := []string{"r", "a", "b", "c", regex.Any}
	steps := []regex.PathStep{{Label: "r"}}
	for i := 0; i < next(4); i++ {
		steps = append(steps, regex.PathStep{
			Label:    labels[next(len(labels))],
			AnyDepth: next(3) == 0,
		})
	}
	return steps, next(2) == 0
}

func TestToDocumentIsQueryable(t *testing.T) {
	// Section 6.2: the F-guide serialises as an XML document that the
	// same linear path queries can be run on. Each (path, call) of the
	// guide appears in the guide document, so an LPQ retrieves calls on
	// the guide document exactly when it retrieves calls on the original.
	d := doc(t, sample)
	g := Build(d)
	gd := g.ToDocument()
	if gd.Root.Label != "hotels" {
		t.Fatalf("guide document root = %s", gd.Root.Label)
	}
	// The guide document serialises like any AXML document.
	if _, err := tree.Marshal(gd.Root); err != nil {
		t.Fatal(err)
	}
	q := pattern.MustParse(`/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y`)
	for _, l := range lpqSet(t, q) {
		onOriginal := pattern.MatchedCalls(d, l.Query, l.Out)
		onGuideDoc := pattern.MatchedCalls(gd, l.Query, l.Out)
		if (len(onOriginal) > 0) != (len(onGuideDoc) > 0) {
			t.Errorf("%s: original %d calls, guide document %d", l.Query, len(onOriginal), len(onGuideDoc))
		}
		// Service-name multisets agree up to per-path dedup: every
		// service retrieved on the original appears on the guide doc.
		names := map[string]bool{}
		for _, c := range onGuideDoc {
			names[c.Label] = true
		}
		for _, c := range onOriginal {
			if !names[c.Label] {
				t.Errorf("%s: service %s missing from guide document", l.Query, c.Label)
			}
		}
	}
}

func TestToDocumentEmptyGuide(t *testing.T) {
	d := doc(t, `<r><a>no calls here</a></r>`)
	g := Build(d)
	gd := g.ToDocument()
	if gd.Root.Label != "fguide" || len(gd.Root.Children) != 0 {
		t.Fatalf("empty guide document = %s", gd.Root)
	}
}

// lpqSet builds the LPQ of every non-anchor node, as the engine's LPQ
// strategy does.
func lpqSet(t *testing.T, q *pattern.Pattern) []*rewrite.NFQ {
	t.Helper()
	var out []*rewrite.NFQ
	for _, v := range q.Nodes()[1:] {
		l, err := rewrite.LPQ(q, v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}
