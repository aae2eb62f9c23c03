package pattern

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/activexml/axml/internal/tree"
)

// The differential harness below grows random call-bearing documents,
// replays randomised call-replacement sequences (the shape of the engine's
// NFQA rounds), and checks after every mutation that the persistent
// IncrementalEvaluator and a fresh one agree on the matched calls — by
// whole-query evaluation and by per-call validation alike — while the
// incremental side never computes more matches than a fresh evaluation
// would.

var (
	incrValues   = []string{"alpha", "beta", "gamma"}
	incrServices = []string{"f", "g", "h"}
)

func incrValue(rng *rand.Rand) string { return incrValues[rng.Intn(len(incrValues))] }

// randIncrForest builds a small random forest mixing elements, text and
// embedded calls — the shape of a service result spliced in by ReplaceCall.
func randIncrForest(rng *rand.Rand, depth int) []*tree.Node {
	n := 1 + rng.Intn(3)
	out := make([]*tree.Node, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case depth > 0 && rng.Intn(4) == 0:
			svc := incrServices[rng.Intn(len(incrServices))]
			out = append(out, tree.NewCall(svc, tree.NewElement("p")))
		case depth > 0 && rng.Intn(2) == 0:
			e := tree.NewElement("item")
			e.Append(tree.NewElement("name")).Append(tree.NewText(incrValue(rng)))
			e.Append(tree.NewElement("price")).Append(tree.NewText(incrValue(rng)))
			for _, c := range randIncrForest(rng, depth-1) {
				e.Append(c)
			}
			out = append(out, e)
		default:
			out = append(out, tree.NewText(incrValue(rng)))
		}
	}
	return out
}

// randCallDoc builds a random document guaranteed to embed at least one
// call so the replacement loop has work.
func randCallDoc(rng *rand.Rand) *tree.Document {
	root := tree.NewElement("site")
	for c := 0; c < 2+rng.Intn(3); c++ {
		cat := root.Append(tree.NewElement("category"))
		cat.Append(tree.NewElement("label")).Append(tree.NewText(incrValue(rng)))
		for _, n := range randIncrForest(rng, 3) {
			cat.Append(n)
		}
		if rng.Intn(2) == 0 {
			cat.Append(tree.NewCall(incrServices[rng.Intn(len(incrServices))]))
		}
	}
	root.Append(tree.NewCall("f"))
	return tree.NewDocument(root)
}

// incrQueries covers the relevance-query shapes the engine asks: bare
// call positions, named services, descendant edges and a value join.
var incrQueries = []string{
	`/site//()!`,
	`/site/category//f()!`,
	`/site//item[name=$N]//()!`,
	`/site/category[label=$L][//name=$L]//()!`,
}

func sortedCallIDs(calls []*tree.Node) []uint64 {
	ids := make([]uint64, len(calls))
	for i, c := range calls {
		ids[i] = c.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func diffIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

// TestIncrementalDifferential replays 50 random replacement sequences and
// checks, after every single mutation, that incremental and from-scratch
// evaluation retrieve the same calls, with the incremental side doing no
// more match work than a fresh evaluator, and that per-call validation on
// the persistent evaluator decides every call of the document the same way.
func TestIncrementalDifferential(t *testing.T) {
	var totalHits, totalVisitedIncr, totalVisitedScratch int
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randCallDoc(rng)

		type tracked struct {
			q   *Pattern
			out *Node
			ie  *IncrementalEvaluator
		}
		qs := make([]tracked, len(incrQueries))
		for i, src := range incrQueries {
			q := MustParse(src)
			qs[i] = tracked{q: q, out: q.ResultNodes()[0], ie: NewIncrementalProjected(q, nil)}
		}

		check := func(round int) {
			for i, tr := range qs {
				want, wantSt := NewIncrementalProjected(tr.q, nil).MatchedCallsIncremental(doc, tr.out)
				got, gotSt := tr.ie.MatchedCallsIncremental(doc, tr.out)
				if diffIDs(sortedCallIDs(want), sortedCallIDs(got)) {
					t.Fatalf("seed %d round %d query %q: incremental calls %v, from-scratch %v",
						seed, round, incrQueries[i], sortedCallIDs(got), sortedCallIDs(want))
				}
				// Every match the incremental evaluator recomputes, a fresh
				// evaluator computes too — the memo can only save work.
				if gotSt.NodesVisited > wantSt.NodesVisited {
					t.Fatalf("seed %d round %d query %q: incremental visited %d > scratch %d",
						seed, round, incrQueries[i], gotSt.NodesVisited, wantSt.NodesVisited)
				}
				totalHits += gotSt.MemoHits
				totalVisitedIncr += gotSt.NodesVisited
				totalVisitedScratch += wantSt.NodesVisited
				// The guide arm's question, asked of the same persistent
				// memo: each call individually, against set membership.
				matched := map[*tree.Node]bool{}
				for _, c := range want {
					matched[c] = true
				}
				for _, c := range doc.Calls() {
					if ok := matchOne(tr.ie, doc, tr.out, c); ok != matched[c] {
						t.Fatalf("seed %d round %d query %q call %d: validated %v, in the from-scratch matched set=%v",
							seed, round, incrQueries[i], c.ID, ok, matched[c])
					}
				}
			}
		}

		check(0)
		for round := 1; round <= 12; round++ {
			calls := doc.Calls()
			if len(calls) == 0 {
				break
			}
			call := calls[rng.Intn(len(calls))]
			parent := call.Parent
			doc.ReplaceCall(call, randIncrForest(rng, 2))
			for _, tr := range qs {
				tr.ie.Invalidate(parent, call)
			}
			check(round)
		}
	}
	if totalHits == 0 {
		t.Fatal("incremental evaluation never hit the memo across 50 seeds — invalidation is evicting everything")
	}
	if totalVisitedIncr >= totalVisitedScratch {
		t.Fatalf("incremental visited %d ≥ from-scratch %d in aggregate — the memo saved nothing",
			totalVisitedIncr, totalVisitedScratch)
	}
}

// TestEvalIncrementalDifferential replays random replacement sequences
// and checks after every mutation that EvalIncremental returns the same
// result multiset as a from-scratch Eval — the contract the session
// layer's shared per-query evaluators rely on for their memo fast path.
func TestEvalIncrementalDifferential(t *testing.T) {
	var totalHits int
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		doc := randCallDoc(rng)

		queries := []string{
			`/site/category/label!`,
			`/site//item[price=$P]/name!`,
			`/site/category[label=$L]//name!`,
		}
		type tracked struct {
			q  *Pattern
			ie *IncrementalEvaluator
		}
		qs := make([]tracked, len(queries))
		for i, src := range queries {
			q := MustParse(src)
			qs[i] = tracked{q: q, ie: NewIncrementalProjected(q, nil)}
		}

		check := func(round int) {
			for i, tr := range qs {
				want, _ := Eval(doc, tr.q)
				got, gotSt := tr.ie.EvalIncremental(doc)
				wk := make([]string, len(want))
				for j, r := range want {
					wk[j] = r.Key()
				}
				gk := make([]string, len(got))
				for j, r := range got {
					gk[j] = r.Key()
				}
				sort.Strings(wk)
				sort.Strings(gk)
				if len(wk) != len(gk) {
					t.Fatalf("seed %d round %d query %q: incremental %d results, from-scratch %d",
						seed, round, queries[i], len(gk), len(wk))
				}
				for j := range wk {
					if wk[j] != gk[j] {
						t.Fatalf("seed %d round %d query %q: result %d differs:\nincremental %s\nscratch     %s",
							seed, round, queries[i], j, gk[j], wk[j])
					}
				}
				totalHits += gotSt.MemoHits
			}
		}

		check(0)
		for round := 1; round <= 8; round++ {
			calls := doc.Calls()
			if len(calls) == 0 {
				break
			}
			call := calls[rng.Intn(len(calls))]
			parent := call.Parent
			doc.ReplaceCall(call, randIncrForest(rng, 2))
			for _, tr := range qs {
				tr.ie.Invalidate(parent, call)
			}
			check(round)
		}
	}
	if totalHits == 0 {
		t.Fatal("EvalIncremental never hit the memo across 20 seeds")
	}
}

// TestIncrementalStaleWithoutInvalidate documents the contract: skipping
// Invalidate after a mutation may serve stale matches. This is why the
// engine threads every ReplaceCall through Invalidate.
func TestIncrementalStaleWithoutInvalidate(t *testing.T) {
	root := tree.NewElement("site")
	cat := root.Append(tree.NewElement("category"))
	call := cat.Append(tree.NewCall("f"))
	doc := tree.NewDocument(root)

	q := MustParse(`/site/category/()!`)
	ie := NewIncrementalProjected(q, nil)
	got, _ := ie.MatchedCallsIncremental(doc, q.ResultNodes()[0])
	if len(got) != 1 {
		t.Fatalf("initial eval: got %d calls, want 1", len(got))
	}

	parent := call.Parent
	doc.ReplaceCall(call, []*tree.Node{tree.NewText("done")})
	// No Invalidate: the memo still answers from the old subtree.
	stale, _ := ie.MatchedCallsIncremental(doc, q.ResultNodes()[0])
	if len(stale) == 0 {
		t.Skip("memo happened not to cover the mutated region")
	}
	held := len(ie.memo)
	ie.Invalidate(parent, call)
	if len(ie.memo) >= held {
		t.Fatal("Invalidate evicted nothing")
	}
	fresh, _ := ie.MatchedCallsIncremental(doc, q.ResultNodes()[0])
	if len(fresh) != 0 {
		t.Fatalf("after Invalidate: got %d calls, want 0", len(fresh))
	}
}

// TestIncrementalEvictionsBounded checks the eviction rule touches only
// the removed subtree plus the root spine, not the whole document.
func TestIncrementalEvictionsBounded(t *testing.T) {
	root := tree.NewElement("site")
	var call *tree.Node
	for c := 0; c < 20; c++ {
		cat := root.Append(tree.NewElement("category"))
		cat.Append(tree.NewElement("label")).Append(tree.NewText(fmt.Sprintf("v%d", c)))
		if c == 7 {
			call = cat.Append(tree.NewCall("f"))
		}
	}
	doc := tree.NewDocument(root)
	q := MustParse(`/site//()!`)
	ie := NewIncrementalProjected(q, nil)
	ie.MatchedCallsIncremental(doc, q.ResultNodes()[0])

	// The spine is category+root plus the removed call: every memo entry
	// of the document's other ~60 nodes must survive.
	parent := call.Parent
	spine := map[*tree.Node]bool{root: true, parent: true, call: true}
	var off []memoKey
	for k := range ie.memo {
		if !spine[k.dnode] {
			off = append(off, k)
		}
	}
	if len(off) == 0 {
		t.Fatal("the memo holds nothing off the spine")
	}
	doc.ReplaceCall(call, []*tree.Node{tree.NewText("done")})
	ie.Invalidate(parent, call)
	for _, k := range off {
		if _, ok := ie.memo[k]; !ok {
			t.Fatalf("Invalidate evicted node %d off the spine", k.dnode.ID)
		}
	}
}
