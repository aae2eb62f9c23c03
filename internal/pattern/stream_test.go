package pattern

import (
	"math/rand"
	"testing"

	"github.com/activexml/axml/internal/tree"
)

// The streaming evaluator must be bit-identical to the retained eager
// evaluator (naive_test.go): same Result slices in the same order, same
// NodesVisited/MemoHits accounting. These tests replay the incremental
// harness's random documents and mutation sequences through both.

// streamQueries adds result-bearing and joining shapes to the call
// queries of the incremental harness.
var streamQueries = append([]string{
	`/site//item[name=$N] -> $N`,
	`/site/category[label=$L]//item[price=$P] -> $L, $P`,
	`/site//item[(name|price)=$V] -> $V`,
	`/site//item[name=$V][price=$V] -> $V`,
	`//category[//name=$N]//item[//price="alpha"] -> $N`,
}, incrQueries...)

func assertSameEval(t *testing.T, doc *tree.Document, q *Pattern, label string) {
	t.Helper()
	got, gotSt := Eval(doc, q)
	want, wantSt := EvalNaive(doc, q)
	if len(got) != len(want) {
		t.Fatalf("%s: streaming returned %d results, naive %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: result %d differs: streaming %q naive %q", label, i, got[i].Key(), want[i].Key())
		}
	}
	if gotSt.NodesVisited != wantSt.NodesVisited || gotSt.MemoHits != wantSt.MemoHits {
		t.Fatalf("%s: stats diverge: streaming %+v naive %+v", label, gotSt, wantSt)
	}
	if gotSt.SubtreesPruned != 0 {
		t.Fatalf("%s: pruning fired without a projector: %+v", label, gotSt)
	}
}

// TestStreamingMatchesNaiveDifferential runs 50 random documents through
// randomised replacement sequences, comparing the streaming evaluator
// against the retained eager oracle after every mutation.
func TestStreamingMatchesNaiveDifferential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randCallDoc(rng)
		var queries []*Pattern
		for _, s := range streamQueries {
			q, err := Parse(s)
			if err != nil {
				t.Fatalf("parse %q: %v", s, err)
			}
			queries = append(queries, q)
		}
		for step := 0; ; step++ {
			for qi, q := range queries {
				assertSameEval(t, doc, q, streamQueries[qi])
			}
			calls := doc.Calls()
			if len(calls) == 0 || step >= 4 {
				break
			}
			call := calls[rng.Intn(len(calls))]
			doc.ReplaceCall(call, randIncrForest(rng, 2))
		}
	}
}

// TestStreamingForestMatchesNaive compares the forest entry points, the
// shape service-side push evaluation uses.
func TestStreamingForestMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		forest := randIncrForest(rng, 3)
		for _, s := range []string{`/item/name[$N] -> $N`, `//name[$N] -> $N`, `//item[name=$V][price=$V] -> $V`} {
			q := MustParse(s)
			got, _ := EvalForest(forest, q)
			want, _ := EvalForestNaive(forest, q)
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: streaming %d results, naive %d", seed, s, len(got), len(want))
			}
			for i := range got {
				if got[i].Key() != want[i].Key() {
					t.Fatalf("seed %d %s: result %d differs", seed, s, i)
				}
			}
		}
	}
}
