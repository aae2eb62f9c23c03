package influence

import (
	"testing"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
)

const figure4 = `/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y`

func analysisFor(t *testing.T, query string) (*Analysis, map[string]int) {
	t.Helper()
	q := pattern.MustParse(query)
	nfqs, err := rewrite.BuildAll(q, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := New(nfqs)
	// Index NFQs by a readable key for assertions: the label of the node
	// they target plus the parent label, which is unique enough here.
	byKey := map[string]int{}
	for i, nfq := range nfqs {
		key := nodeKey(nfq.For)
		if _, dup := byKey[key]; dup {
			key = key + "#2"
		}
		byKey[key] = i
	}
	return a, byKey
}

func nodeKey(n *pattern.Node) string {
	label := n.Label
	if n.Kind == pattern.Var {
		label = "$" + label
	}
	if n.Parent != nil && n.Parent.Kind != pattern.Root {
		return nodeKey(n.Parent) + "/" + label
	}
	return label
}

func TestMayInfluenceRunningExample(t *testing.T) {
	a, ix := analysisFor(t, figure4)
	hotel := ix["hotels/hotel"]
	restaurant := ix["hotels/hotel/nearby/restaurant"]
	ratingLeaf := ix["hotels/hotel/rating/*****"]

	// Figure 6(a) may influence 6(b) and 6(c): a getHotels result can
	// contain calls at the restaurant or rating positions.
	if !a.may[hotel][restaurant] {
		t.Error("hotel NFQ must influence restaurant NFQ")
	}
	if !a.may[hotel][ratingLeaf] {
		t.Error("hotel NFQ must influence rating NFQ")
	}
	// The reverse is false: a call below rating cannot create calls at
	// the hotel position (results only go downwards).
	if a.may[ratingLeaf][hotel] {
		t.Error("rating NFQ must not influence hotel NFQ")
	}
	if a.may[restaurant][hotel] {
		t.Error("restaurant NFQ must not influence hotel NFQ")
	}
	// The hotel-level rating NFQ and the restaurant NFQ are incomparable.
	if a.may[ratingLeaf][restaurant] {
		t.Error("hotel-rating NFQ must not influence restaurant NFQ")
	}
	if a.may[restaurant][ratingLeaf] {
		t.Error("restaurant NFQ must not influence hotel-rating NFQ")
	}
	// Self-influence holds (a retrieved call may return new calls at a
	// position the same NFQ retrieves) whenever the position language is
	// non-trivial; for descendant targets in particular.
	if !a.may[restaurant][restaurant] {
		t.Error("descendant-edge NFQ must self-influence")
	}
}

func TestDescendantTailInfluence(t *testing.T) {
	// A call retrieved deep below nearby (for the restaurant target) can
	// return a nested restaurant containing a rating call: the
	// restaurant-rating NFQ must see the influence both ways with the
	// restaurant-name NFQ, merging them into one layer.
	a, ix := analysisFor(t, figure4)
	rRating := ix["hotels/hotel/nearby/restaurant/rating/*****"]
	rName := ix["hotels/hotel/nearby/restaurant/name/$X"]
	if !a.may[rRating][rName] || !a.may[rName][rRating] {
		t.Error("descendant-subtree leaf NFQs must mutually influence")
	}
	if a.comp[rRating] != a.comp[rName] {
		t.Error("mutually influencing NFQs must share a layer")
	}
}

func TestLayerOrderRespectsInfluence(t *testing.T) {
	a, ix := analysisFor(t, figure4)
	hotel := ix["hotels/hotel"]
	restaurant := ix["hotels/hotel/nearby/restaurant"]
	ratingLeaf := ix["hotels/hotel/rating/*****"]
	if a.comp[hotel] >= a.comp[restaurant] {
		t.Error("hotel layer must precede restaurant layer")
	}
	if a.comp[hotel] >= a.comp[ratingLeaf] {
		t.Error("hotel layer must precede rating layer")
	}
	// Layers partition the NFQ set.
	seen := map[int]bool{}
	total := 0
	for _, l := range a.Layers() {
		for _, m := range l.Members {
			if seen[m] {
				t.Fatalf("NFQ %d in two layers", m)
			}
			seen[m] = true
			total++
		}
	}
	if total != len(a.may) {
		t.Fatalf("layers cover %d of %d NFQs", total, len(a.may))
	}
	// And the order is consistent with transitive influence.
	for i := range a.may {
		for j := range a.may {
			if a.may[i][j] && a.comp[i] > a.comp[j] {
				t.Errorf("influence %d→%d but layer order %d>%d", i, j, a.comp[i], a.comp[j])
			}
		}
	}
}

func TestSameLayerSiblingsWithEqualLin(t *testing.T) {
	// name, rating and nearby all hang under hotel with child edges:
	// their NFQs share lin = /hotels/hotel, hence one layer.
	a, ix := analysisFor(t, figure4)
	name := ix["hotels/hotel/name"]
	rating := ix["hotels/hotel/rating"]
	nearby := ix["hotels/hotel/nearby"]
	if a.comp[name] != a.comp[rating] || a.comp[rating] != a.comp[nearby] {
		t.Error("sibling NFQs with equal lin must share a layer")
	}
}

func TestIndependence(t *testing.T) {
	// The paper's §4.3/4.4 example: two NFQs with linear parts //a and
	// //b mutually influence (same layer) but their position languages
	// are disjoint, so both are independent: all their retrieved calls
	// can fire in parallel. The example considers a layer with exactly
	// those two NFQs, so the analysis runs over that subset.
	q := pattern.MustParse(`/r[//a/x]//b/y`)
	all, err := rewrite.BuildAll(q, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var pair []*rewrite.NFQ
	for _, nfq := range all {
		if nfq.For.Label == "x" || nfq.For.Label == "y" {
			pair = append(pair, nfq)
		}
	}
	if len(pair) != 2 {
		t.Fatalf("want 2 NFQs, got %d", len(pair))
	}
	a := New(pair)
	if a.comp[0] != a.comp[1] {
		t.Fatal("//a and //b NFQs must share a layer")
	}
	if !a.Independent(0) || !a.Independent(1) {
		t.Error("disjoint same-layer NFQs must be independent")
	}
}

func TestFullSetIndependenceBlockedByZoneNFQs(t *testing.T) {
	// In the full NFQ set of the same query, the //a and //b target NFQs
	// themselves have position language r·σ*, overlapping everything
	// below r — so the leaf NFQs are no longer independent.
	a, ix := analysisFor(t, `/r[//a/x]//b/y`)
	if a.Independent(ix["r/a/x"]) {
		t.Error("x NFQ cannot be independent next to the //a NFQ")
	}
}

func TestNotIndependentWhenPositionsOverlap(t *testing.T) {
	// Two descendant targets below the same zone: //item/x and //item/y
	// have overlapping position languages (both retrieve calls below
	// item elements), so neither is independent.
	a, ix := analysisFor(t, `/r[//item/x]//item/y`)
	xNFQ := ix["r/item/x"]
	yNFQ := ix["r/item/y"]
	if a.comp[xNFQ] != a.comp[yNFQ] {
		t.Fatal("expected same layer")
	}
	if a.Independent(xNFQ) || a.Independent(yNFQ) {
		t.Error("overlapping same-layer NFQs must not be independent")
	}
}

func TestSingletonLayerIsIndependent(t *testing.T) {
	// Each layer of the chain query has one NFQ: trivially independent
	// (the paper's running-example observation).
	a, _ := analysisFor(t, `/a/b/c`)
	for i := range a.may {
		if len(a.Layers()[a.comp[i]].Members) == 1 && !a.Independent(i) {
			t.Errorf("singleton layer NFQ %d must be independent", i)
		}
	}
}

func TestRootNFQInfluencesEverything(t *testing.T) {
	// The NFQ of the root element has lin = ε, and ε is a prefix of
	// every word: it precedes everything else.
	a, ix := analysisFor(t, figure4)
	root := ix["hotels"]
	for i := range a.may {
		if i == root {
			continue
		}
		if !a.may[root][i] {
			t.Errorf("root NFQ must influence NFQ %d", i)
		}
		if a.may[i][root] {
			t.Errorf("NFQ %d must not influence the root NFQ", i)
		}
	}
	if a.comp[root] != 0 {
		t.Error("root NFQ must be in the first layer")
	}
}

func TestSortedMembersIsACopy(t *testing.T) {
	a, _ := analysisFor(t, figure4)
	l := a.Layers()[0]
	s := l.SortedMembers()
	if len(s) == 0 {
		t.Fatal("empty layer")
	}
	s[0] = -99
	if l.Members[0] == -99 {
		t.Fatal("SortedMembers must return a copy")
	}
}

func TestLayersWithLPQs(t *testing.T) {
	// The sequencing machinery also runs over LPQs (Section 6.1).
	q := pattern.MustParse(figure4)
	var lpqs []*rewrite.NFQ
	for _, v := range q.Nodes()[1:] {
		l, err := rewrite.LPQ(q, v)
		if err != nil {
			t.Fatal(err)
		}
		lpqs = append(lpqs, l)
	}
	a := New(lpqs)
	if len(a.Layers()) < 3 {
		t.Fatalf("expected several LPQ layers, got %d", len(a.Layers()))
	}
}
