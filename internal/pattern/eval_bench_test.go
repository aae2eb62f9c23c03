package pattern

import (
	"fmt"
	"testing"

	"github.com/activexml/axml/internal/tree"
)

// benchSizes are the document scales the micro-benchmarks sweep: small is
// a unit-test document, large approaches the biggest E1 sweep point.
var benchSizes = []int{10, 100, 1000}

// benchDoc builds a hotels-shaped document with size hotels, each carrying
// one embedded call, and returns it with the Figure-4-style query and a
// call-retrieving relevance query.
func benchDoc(size int) *tree.Document {
	root := tree.NewElement("hotels")
	for i := 0; i < size; i++ {
		h := root.Append(tree.NewElement("hotel"))
		h.Append(tree.NewElement("name")).Append(tree.NewText(fmt.Sprintf("Hotel %d", i)))
		rating := "***"
		if i%5 == 0 {
			rating = "*****"
		}
		h.Append(tree.NewElement("rating")).Append(tree.NewText(rating))
		nb := h.Append(tree.NewElement("nearby"))
		r := nb.Append(tree.NewElement("restaurant"))
		r.Append(tree.NewElement("name")).Append(tree.NewText(fmt.Sprintf("Chez %d", i)))
		r.Append(tree.NewElement("rating")).Append(tree.NewText("*****"))
		nb.Append(tree.NewCall("GetRestaurants", tree.NewElement("p")))
	}
	return tree.NewDocument(root)
}

const benchQuery = `/hotels/hotel[rating="*****"]/nearby//restaurant[name=$X] -> $X`
const benchCallQuery = `/hotels/hotel[rating="*****"]/nearby/()!`

func BenchmarkEval(b *testing.B) {
	for _, size := range benchSizes {
		doc := benchDoc(size)
		q := MustParse(benchQuery)
		b.Run(fmt.Sprintf("hotels=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Eval(doc, q)
			}
		})
	}
}

func BenchmarkMatchedCalls(b *testing.B) {
	for _, size := range benchSizes {
		doc := benchDoc(size)
		q := MustParse(benchCallQuery)
		out := q.ResultNodes()[0]
		b.Run(fmt.Sprintf("hotels=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatchedCalls(doc, q, out)
			}
		})
	}
}

// BenchmarkIncrementalRound measures one engine-shaped round: replace a
// call, invalidate, re-evaluate. Each replacement splices in a fresh call
// so the document never runs dry; compare against
// BenchmarkMatchedCalls at the same size for the from-scratch cost.
func BenchmarkIncrementalRound(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("hotels=%d", size), func(b *testing.B) {
			doc := benchDoc(size)
			q := MustParse(benchCallQuery)
			out := q.ResultNodes()[0]
			ie := NewIncrementalProjected(q, nil)
			ie.MatchedCallsIncremental(doc, out) // warm the memo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				calls := doc.Calls()
				call := calls[i%len(calls)]
				parent := call.Parent
				doc.ReplaceCall(call, []*tree.Node{
					tree.NewElement("restaurant"),
					tree.NewCall("GetRestaurants", tree.NewElement("p")),
				})
				ie.Invalidate(parent, call)
				ie.MatchedCallsIncremental(doc, out)
			}
		})
	}
}

// BenchmarkViewRound measures one guided detection round: replace a call,
// Invalidate, answer. "view" asks the maintained view, offering it only
// the call the splice inserted; "enumerate" asks MatchCall about every
// call on the same kept evaluator, as guided detection did before the
// view; "fresh" does that on a new evaluator per round — the lifetime
// core.Options.Incremental=false chooses. The F-guide's extent for this
// query is every call of the document; they are tracked outside the loop
// so no mode pays a document walk. Compare with BenchmarkIncrementalRound
// / BenchmarkMatchedCalls for the guideless arm.
func BenchmarkViewRound(b *testing.B) {
	for _, size := range benchSizes {
		for _, mode := range []string{"view", "enumerate", "fresh"} {
			b.Run(fmt.Sprintf("hotels=%d/%s", size, mode), func(b *testing.B) {
				doc := benchDoc(size)
				q := MustParse(benchCallQuery)
				out := q.ResultNodes()[0]
				ie := NewIncrementalProjected(q, nil)
				calls := doc.Calls()
				ie.MatchedCandidates(doc, out, calls)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					call := calls[i%len(calls)]
					parent := call.Parent
					arrived := tree.NewCall("GetRestaurants", tree.NewElement("p"))
					doc.ReplaceCall(call, []*tree.Node{tree.NewElement("restaurant"), arrived})
					calls[i%len(calls)] = arrived
					if mode == "fresh" {
						ie = NewIncrementalProjected(q, nil)
					} else {
						ie.Invalidate(parent, call)
					}
					if mode == "view" {
						ie.MatchedCandidates(doc, out, []*tree.Node{arrived})
						continue
					}
					for _, c := range calls {
						ie.MatchCall(doc, out, c)
					}
				}
			})
		}
	}
}

// BenchmarkResultKey exercises the canonical key builder shared by
// Result.Key and solution dedup — the inner-loop allocation hot spot.
func BenchmarkResultKey(b *testing.B) {
	doc := benchDoc(10)
	q := MustParse(benchQuery)
	rs, _ := Eval(doc, q)
	if len(rs) == 0 {
		b.Fatal("no results to key")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rs {
			r.Key()
		}
	}
}
