package core

import (
	"strconv"
	"testing"

	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

func TestSortByDocOrder(t *testing.T) {
	w := workload.Hotels(workload.HotelSpec{
		Hotels: 4, TargetEvery: 1, FiveStarEvery: 1,
		RestosPerCall: 1, MuseumsPerCall: 1, TeaserKinds: 2,
	})
	doc := w.Doc.Clone()
	calls := doc.Calls()
	if len(calls) < 3 {
		t.Fatalf("world too small: %d calls", len(calls))
	}
	scrambled := make([]*tree.Node, len(calls))
	nfqs := make([]*rewrite.NFQ, len(calls))
	for i := range calls {
		scrambled[i] = calls[len(calls)-1-i]
	}
	sortByDocOrder(scrambled, nfqs, doc)
	for i := range calls {
		if scrambled[i] != calls[i] {
			t.Fatalf("position %d not in document order after sort", i)
		}
	}
}

// TestSpeculativeBudgetCutsInDocOrder pins the MaxCalls cut of a
// speculative batch: the invoked prefix must be the batch's
// document-order head — not whatever NFQ-retrieval order the batch was
// assembled in — and the dropped calls must leave the evaluation
// reporting Complete=false with the budget fully spent, exactly like
// the sequential MaxCalls path.
func TestSpeculativeBudgetCutsInDocOrder(t *testing.T) {
	spec := workload.HotelSpec{
		Hotels: 6, TargetEvery: 1, FiveStarEvery: 1,
		RestosPerCall: 2, MuseumsPerCall: 2, TeaserKinds: 2, ExtrasPerCall: 1,
	}
	base := Options{Strategy: LazyNFQ, Layering: true, Speculative: true}

	// Reference run: learn the first speculative batch's membership and
	// its NFQ-retrieval order.
	w := workload.Hotels(spec)
	_, refSpans, err := tracedEvaluate(t, w.Doc.Clone(), w.Query, w.Registry, base)
	if err != nil {
		t.Fatal(err)
	}
	firstBatch := 0
	if invokes := spansNamed(refSpans, "invoke"); len(invokes) > 0 {
		firstBatch, _ = strconv.Atoi(invokes[0].Attr("batch"))
	}
	if firstBatch < 2 {
		t.Fatalf("first speculative batch too small to cut: %d", firstBatch)
	}
	budget := firstBatch - 1

	// Capped run: the budget is exhausted inside the first batch, so
	// every invoked call must come from that batch — and in document
	// order, which the document's splice records show by node identity
	// (paths are not positionally unique).
	w2 := workload.Hotels(spec)
	doc := w2.Doc.Clone()
	pos := map[*tree.Node]int{}
	for i, c := range doc.Calls() {
		pos[c] = i
	}
	before := doc.Version()
	capped := base
	capped.MaxCalls = budget
	out, err := Evaluate(doc, w2.Query, w2.Registry, capped)
	if err != nil {
		t.Fatal(err)
	}
	splices, _ := doc.SplicesSince(before)
	var invokedPos []int
	for _, s := range splices {
		p, ok := pos[s.Removed]
		if !ok {
			p = -1 // a later-round call, impossible under this budget
		}
		invokedPos = append(invokedPos, p)
	}
	if len(invokedPos) != budget {
		t.Fatalf("invoked %d calls, want the cut batch of %d", len(invokedPos), budget)
	}
	for i, p := range invokedPos {
		if p < 0 {
			t.Fatalf("invocation %d is not a first-batch call", i)
		}
		if i > 0 && p <= invokedPos[i-1] {
			t.Fatalf("cut batch not in document order: positions %v", invokedPos)
		}
	}
	if out.Stats.CallsInvoked != budget {
		t.Fatalf("CallsInvoked %d, want %d", out.Stats.CallsInvoked, budget)
	}
	if out.Complete {
		t.Fatal("budget-cut evaluation claimed completeness")
	}
}
