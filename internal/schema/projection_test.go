package schema

import (
	"math/rand"
	"testing"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/tree"
)

// projSchema declares a document family with a large statically
// irrelevant region (archive) next to the region the hotel queries care
// about — the shape projection exists for.
func projSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := Parse(`
functions:
  getInfo = [in: data, out: info*]
elements:
  site = section*
  section = hotels|archive
  hotels = hotel*
  archive = entry*
  entry = (info|getInfo)*
  info = data
  hotel = name.rating.nearby?
  name = data
  rating = data
  nearby = restaurant*
  restaurant = name.rating
`)
	if err != nil {
		t.Fatalf("parse schema: %v", err)
	}
	return s
}

// projValues deliberately collide with element names: a text node
// labelled "archive" must never be confused with the archive element by
// the pruning predicate.
var projValues = []string{"good", "bad", "archive", "hotel", "info"}

func projValue(rng *rand.Rand) string { return projValues[rng.Intn(len(projValues))] }

// randConformingDoc grows a random document conforming to projSchema:
// sections holding either hotels or archives of entries, with optional
// unexpanded getInfo calls where the content model allows them.
func randConformingDoc(rng *rand.Rand) *tree.Document {
	site := tree.NewElement("site")
	for i, sections := 0, 1+rng.Intn(4); i < sections; i++ {
		section := site.Append(tree.NewElement("section"))
		if rng.Intn(2) == 0 {
			hotels := section.Append(tree.NewElement("hotels"))
			for h, n := 0, rng.Intn(4); h < n; h++ {
				hotel := hotels.Append(tree.NewElement("hotel"))
				hotel.Append(tree.NewElement("name")).Append(tree.NewText(projValue(rng)))
				hotel.Append(tree.NewElement("rating")).Append(tree.NewText(projValue(rng)))
				if rng.Intn(2) == 0 {
					nearby := hotel.Append(tree.NewElement("nearby"))
					for r, m := 0, rng.Intn(3); r < m; r++ {
						resto := nearby.Append(tree.NewElement("restaurant"))
						resto.Append(tree.NewElement("name")).Append(tree.NewText(projValue(rng)))
						resto.Append(tree.NewElement("rating")).Append(tree.NewText(projValue(rng)))
					}
				}
			}
		} else {
			archive := section.Append(tree.NewElement("archive"))
			for e, n := 0, rng.Intn(4); e < n; e++ {
				entry := archive.Append(tree.NewElement("entry"))
				for j, m := 0, rng.Intn(3); j < m; j++ {
					if rng.Intn(4) == 0 {
						entry.Append(tree.NewCall("getInfo", tree.NewText("q")))
					} else {
						entry.Append(tree.NewElement("info")).Append(tree.NewText(projValue(rng)))
					}
				}
			}
		}
	}
	return tree.NewDocument(site)
}

var projQueries = []string{
	`//hotel[rating=$R] -> $R`,
	`//restaurant[name=$N] -> $N`,
	`//info[$V] -> $V`,
	`/site//hotels/hotel[name=$N][rating="good"] -> $N`,
	`//entry//getInfo()!`,
	`//archive//info[$V] -> $V`,
	`//nearby/restaurant[rating=$R][name=$N] -> $N, $R`,
	`//hotel[name=$V][rating=$V] -> $V`,
}

// assertProjectedEqual checks that projected evaluation returns exactly
// the oracle's results, in the oracle's order, and returns the projected
// stats. The oracle is unprojected pattern.Eval, which pattern's own
// differential pins to the retained seed evaluator.
func assertProjectedEqual(t testing.TB, doc *tree.Document, q *pattern.Pattern, proj *Projection, label string) pattern.Stats {
	t.Helper()
	got, st := pattern.EvalProjected(doc, q, proj)
	want, _ := pattern.Eval(doc, q)
	if len(got) != len(want) {
		t.Fatalf("%s: projected returned %d results, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: result %d differs: projected %q oracle %q", label, i, got[i].Key(), want[i].Key())
		}
	}
	return st
}

func TestProjectionPredicate(t *testing.T) {
	s := projSchema(t)
	q := pattern.MustParse(`//hotel[rating=$R] -> $R`)
	var hotel *pattern.Node
	for _, n := range q.Nodes() {
		if n.Label == "hotel" {
			hotel = n
		}
	}
	if hotel == nil {
		t.Fatal("no hotel node")
	}
	for _, mode := range []Mode{Exact, Lenient} {
		proj := NewProjection(s, q, mode)
		if proj.CanMatchBelow("archive", hotel.ID) {
			t.Errorf("mode %d: archive cannot contain hotels, must be prunable", mode)
		}
		if !proj.CanMatchBelow("hotels", hotel.ID) || !proj.CanMatchBelow("section", hotel.ID) {
			t.Errorf("mode %d: hotels/section must stay", mode)
		}
		if !proj.CanMatchBelow("unknownElement", hotel.ID) {
			t.Errorf("mode %d: undeclared labels must never be pruned", mode)
		}
		if proj.Trivial() {
			t.Errorf("mode %d: projection with prunable pairs reported trivial", mode)
		}
		if len(proj.PrunedPairs()) == 0 {
			t.Errorf("mode %d: expected non-empty pruned pairs", mode)
		}
	}
}

func TestProjectionTrivialWhenNothingPrunable(t *testing.T) {
	s := projSchema(t)
	// Every element of the schema contains data somewhere below, so a
	// bare-variable query can never skip anything.
	q := pattern.MustParse(`//$V -> $V`)
	if proj := NewProjection(s, q, Exact); !proj.Trivial() {
		t.Fatalf("expected trivial projection, pruned pairs: %v", proj.PrunedPairs())
	}
}

func TestProjectionEvalEquivalenceRandom(t *testing.T) {
	s := projSchema(t)
	prunedTotal := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randConformingDoc(rng)
		if err := s.ValidateDocument(doc); err != nil {
			t.Fatalf("seed %d: generator broke conformance: %v", seed, err)
		}
		for _, qs := range projQueries {
			q := pattern.MustParse(qs)
			for _, mode := range []Mode{Exact, Lenient} {
				st := assertProjectedEqual(t, doc, q, NewProjection(s, q, mode), qs)
				prunedTotal += st.SubtreesPruned
			}
		}
	}
	if prunedTotal == 0 {
		t.Fatal("projection never pruned a subtree across the whole sweep")
	}
}

// TestProjectionIncrementalUnderMutations drives a projected
// IncrementalEvaluator through conforming call replacements (getInfo
// returns info*, per its signature) and compares every round against
// unprojected evaluation.
func TestProjectionIncrementalUnderMutations(t *testing.T) {
	s := projSchema(t)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randConformingDoc(rng)
		var ievs []*pattern.IncrementalEvaluator
		var qs []*pattern.Pattern
		for _, src := range projQueries {
			q := pattern.MustParse(src)
			qs = append(qs, q)
			ievs = append(ievs, pattern.NewIncrementalProjected(q, NewProjection(s, q, Exact)))
		}
		for round := 0; ; round++ {
			for i, iev := range ievs {
				got, _ := iev.EvalIncremental(doc)
				want, _ := pattern.Eval(doc, qs[i])
				if len(got) != len(want) {
					t.Fatalf("seed %d round %d %s: incremental %d results, oracle %d", seed, round, projQueries[i], len(got), len(want))
				}
				for j := range got {
					if got[j].Key() != want[j].Key() {
						t.Fatalf("seed %d round %d %s: result %d differs", seed, round, projQueries[i], j)
					}
				}
			}
			calls := doc.Calls()
			if len(calls) == 0 || round >= 3 {
				break
			}
			call := calls[rng.Intn(len(calls))]
			parent := call.Parent
			var forest []*tree.Node
			for k, n := 0, rng.Intn(3); k < n; k++ {
				info := tree.NewElement("info")
				info.Append(tree.NewText(projValue(rng)))
				forest = append(forest, info)
			}
			doc.ReplaceCall(call, forest)
			for _, iev := range ievs {
				iev.Invalidate(parent, call)
			}
		}
	}
}

// FuzzProject checks the projection predicate never prunes a matching
// subtree: on schema-conforming documents, projected evaluation must
// return exactly what unprojected evaluation returns, for every query shape
// and both analyzer modes.
func FuzzProject(f *testing.F) {
	f.Add(int64(1), uint8(0), false)
	f.Add(int64(7), uint8(3), true)
	f.Add(int64(42), uint8(5), false)
	f.Fuzz(func(t *testing.T, seed int64, qpick uint8, lenient bool) {
		s := projSchema(t)
		rng := rand.New(rand.NewSource(seed))
		doc := randConformingDoc(rng)
		qs := projQueries[int(qpick)%len(projQueries)]
		q := pattern.MustParse(qs)
		mode := Exact
		if lenient {
			mode = Lenient
		}
		assertProjectedEqual(t, doc, q, NewProjection(s, q, mode), qs)
	})
}
