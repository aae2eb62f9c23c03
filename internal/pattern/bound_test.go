package pattern_test

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// boundPointQuery is the serving layer's point query: its hotel name is the
// constant a shape lifts.
const boundPointQuery = `/hotels/hotel[name="Hotel-3"]/nearby//restaurant[name=$X][rating=$R] -> $X, $R`

// TestBoundMatchesBindCopy is the replacement differential with (shape,
// args) as its input: for every workload.Suite query and the travel point
// query, an evaluator over the text's shape bound to its arguments
// (NewIncrementalBound) and one over the Bind copy are kept while the
// scenario's calls are invoked in random order, and after every
// replacement they agree on the user query's EvalIncremental results, keys
// and Stats — AnchorAnswer's Probed and Kept among them — and on every
// relevance query's MatchedCallsIncremental, untyped and typed. A pushed
// result tagged with the bound text's fingerprint matches on both.
func TestBoundMatchesBindCopy(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 12, 4
	reg, scenarios := workload.Suite(spec)
	rng := rand.New(rand.NewSource(1))
	lifted, probed := 0, 0
	for _, sc := range scenarios {
		queries := sc.Queries
		if sc.Name == "travel" {
			queries = append(queries[:len(queries):len(queries)], boundPointQuery)
		}
		for _, src := range queries {
			q := pattern.MustParse(src)
			shape, args := q.Lift(func(label string) bool { return sc.Schema == nil || !sc.Schema.IsElement(label) })
			if len(args) > 0 {
				lifted++
			}
			bound := shape.Bind(args)
			if bound.String() != q.String() {
				t.Fatalf("%s: the Bind copy reads %s", src, bound)
			}
			type relevance struct {
				shape, twin *pattern.IncrementalEvaluator
				out         *pattern.Node
			}
			var rel []relevance
			opts := []rewrite.Options{{}}
			if sc.Schema != nil {
				opts = append(opts, rewrite.Options{Analyzer: schema.NewAnalyzer(sc.Schema, shape, schema.Exact), Names: sc.Schema.FunctionNames()})
			}
			for _, opt := range opts {
				nfqs, err := rewrite.BuildAll(shape, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, nfq := range nfqs {
					rel = append(rel, relevance{pattern.NewIncrementalBound(nfq.Query, args, nil), pattern.NewIncrementalProjected(nfq.Query.Bind(args), nil), nfq.Out})
				}
			}
			user, twin := pattern.NewIncrementalBound(shape, args, nil), pattern.NewIncrementalProjected(bound, nil)
			user.AnchorAnswer()
			twin.AnchorAnswer()
			doc := sc.Doc.Clone()
			check := func(round int) {
				t.Helper()
				got, gst := user.EvalIncremental(doc)
				want, wst := twin.EvalIncremental(doc)
				if !slices.Equal(resultKeys(got), resultKeys(want)) || gst != wst {
					t.Fatalf("%s round %d: the bound shape answers %v (%+v), the Bind copy %v (%+v)", src, round, resultKeys(got), gst, resultKeys(want), wst)
				}
				probed += gst.Probed
				for i, r := range rel {
					got, gst := r.shape.MatchedCallsIncremental(doc, r.out)
					want, wst := r.twin.MatchedCallsIncremental(doc, r.out)
					if !slices.Equal(got, want) || gst != wst {
						t.Fatalf("%s round %d relevance query %d: the bound shape retrieves %d calls (%+v), the Bind copy %d (%+v)", src, round, i, len(got), gst, len(want), wst)
					}
				}
			}
			check(0)
			for round := 1; round <= 12; round++ {
				calls := doc.Calls()
				if len(calls) == 0 {
					break
				}
				c := calls[rng.Intn(len(calls))]
				resp, err := reg.Invoke(c.Label, tree.CloneForest(c.Children), nil)
				if err != nil {
					t.Fatal(err)
				}
				parent := c.Parent
				doc.ReplaceCall(c, resp.Forest)
				user.Invalidate(parent, c)
				twin.Invalidate(parent, c)
				for _, r := range rel {
					r.shape.Invalidate(parent, c)
					r.twin.Invalidate(parent, c)
				}
				check(round)
			}
		}
	}
	if lifted == 0 || probed == 0 {
		t.Fatalf("%d queries lifted a constant and %d anchors were probed: the differential compared nothing bound", lifted, probed)
	}

	// A hotel whose name is a pushed result of the point query's name
	// condition, tagged with the bound text's fingerprint of it.
	q := pattern.MustParse(boundPointQuery)
	shape, args := q.Lift(func(string) bool { return true })
	var name *pattern.Node
	for _, n := range q.Nodes() {
		if n.Kind == pattern.Const && n.Label == "name" && n.Parent.Label == "hotel" {
			name = n
		}
	}
	hotel := tree.NewElement("hotel")
	hotel.Append(tree.NewTuples(q.Fingerprint(name), []tree.Binding{{}}))
	r := hotel.Append(tree.NewElement("nearby")).Append(tree.NewElement("restaurant"))
	r.Append(tree.NewElement("name")).Append(tree.NewText("Chez Pushed"))
	r.Append(tree.NewElement("rating")).Append(tree.NewText("*****"))
	root := tree.NewElement("hotels")
	root.Append(hotel)
	doc := tree.NewDocument(root)
	got, _ := pattern.NewIncrementalBound(shape, args, nil).EvalIncremental(doc)
	want, _ := pattern.Eval(doc, q)
	if len(want) != 1 || !slices.Equal(resultKeys(got), resultKeys(want)) {
		t.Fatalf("over a pushed name the bound shape answers %v, the text %v; want one result", resultKeys(got), resultKeys(want))
	}
}

func resultKeys(rs []pattern.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Key()
	}
	return out
}
