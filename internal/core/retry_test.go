package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// retryPolicy is the policy the retry tests share: enough attempts to
// outlast warm-up failures, a backoff the virtual clock can observe.
func retryPolicy(seed int64) RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond, Seed: seed}
}

// oneCallWorld is a minimal document with a single relevant call, for
// tests that need exact clock arithmetic.
func oneCallWorld(latency time.Duration, handler service.Handler) (*tree.Document, *pattern.Pattern, *service.Registry) {
	root := tree.NewElement("shop")
	item := root.Append(tree.NewElement("items"))
	item.Append(tree.NewCall("getItems"))
	doc := tree.NewDocument(root)
	q := pattern.MustParse(`/shop/items/item[name=$X] -> $X`)
	reg := service.NewRegistry()
	reg.Register(&service.Service{Name: "getItems", Latency: latency, Handler: handler})
	return doc, q, reg
}

func itemForest() []*tree.Node {
	it := tree.NewElement("item")
	it.Append(tree.NewElement("name")).Append(tree.NewText("lamp"))
	return []*tree.Node{it}
}

func TestRetryRecoversFromWarmupFailures(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	want := run(t, w, Options{Strategy: LazyNFQ})

	for _, strategy := range []Strategy{NaiveFixpoint, LazyLPQ, LazyNFQ} {
		flaky := service.NewFaults(service.FaultSpec{Seed: 11, FailFirst: 2}).Wrap(w.Registry)
		out, err := Evaluate(w.Doc.Clone(), w.Query, flaky, Options{
			Strategy: strategy, Retry: retryPolicy(11),
		})
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		if !out.Complete || len(out.Failures) != 0 {
			t.Fatalf("%v: complete=%v failures=%d", strategy, out.Complete, len(out.Failures))
		}
		if resultKeys(out) != resultKeys(want) {
			t.Fatalf("%v: flaky run disagrees with fault-free run", strategy)
		}
		// Every service fails twice before its first success, so at
		// least two retries must have happened overall.
		if out.Stats.Retries < 2 {
			t.Fatalf("%v: retries = %d, want ≥ 2", strategy, out.Stats.Retries)
		}
	}
}

func TestFailFastWithoutRetriesErrors(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	flaky := service.NewFaults(service.FaultSpec{Seed: 11, FailFirst: 1}).Wrap(w.Registry)
	_, err := Evaluate(w.Doc.Clone(), w.Query, flaky, Options{Strategy: LazyNFQ})
	if err == nil {
		t.Fatal("fail-fast evaluation without retries should surface the injected fault")
	}
	if !service.Retryable(err) {
		t.Fatalf("injected fault lost its class through the engine: %v", err)
	}
	var fault *service.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("fault not in error chain: %v", err)
	}
}

func TestBackoffChargedToVirtualClock(t *testing.T) {
	const latency = 10 * time.Millisecond
	doc, q, reg := oneCallWorld(latency, func([]*tree.Node) ([]*tree.Node, error) {
		return itemForest(), nil
	})
	flaky := service.NewFaults(service.FaultSpec{Seed: 1, FailFirst: 2}).Wrap(reg)
	out, err := Evaluate(doc, q, flaky, Options{
		Strategy: LazyNFQ,
		Retry:    RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two failed attempts at the service latency, a 100ms backoff, a
	// 200ms (doubled) backoff, then the successful attempt.
	want := 3*latency + 300*time.Millisecond
	if out.Stats.VirtualTime != want {
		t.Fatalf("virtual time = %v, want %v", out.Stats.VirtualTime, want)
	}
	if out.Stats.Retries != 2 || len(out.Results) != 1 {
		t.Fatalf("retries = %d, results = %d", out.Stats.Retries, len(out.Results))
	}
}

func TestBackoffJitterIsDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, Backoff: 100 * time.Millisecond,
		MaxBackoff: 250 * time.Millisecond, Jitter: 0.5, Seed: 42}
	for attempt := 2; attempt <= 5; attempt++ {
		a := p.backoffBefore(attempt, 7)
		b := p.backoffBefore(attempt, 7)
		if a != b {
			t.Fatalf("attempt %d: jittered backoff not deterministic (%v vs %v)", attempt, a, b)
		}
		full := 100 * time.Millisecond << uint(attempt-2)
		if full > 250*time.Millisecond {
			full = 250 * time.Millisecond
		}
		if a > full || a < full/2 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, a, full/2, full)
		}
	}
	if p.backoffBefore(3, 7) == p.backoffBefore(3, 8) &&
		p.backoffBefore(4, 7) == p.backoffBefore(4, 8) {
		t.Fatal("jitter does not vary across calls")
	}
}

func TestDeadlineCutsSlowCalls(t *testing.T) {
	doc, q, reg := oneCallWorld(500*time.Millisecond, func([]*tree.Node) ([]*tree.Node, error) {
		return itemForest(), nil
	})
	out, err := Evaluate(doc, q, reg, Options{
		Strategy: LazyNFQ,
		Retry:    RetryPolicy{MaxAttempts: 2, Deadline: 100 * time.Millisecond},
		Failure:  BestEffort,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both attempts stall past the deadline; each is charged exactly
	// the deadline and the call is abandoned.
	if out.Stats.VirtualTime != 200*time.Millisecond {
		t.Fatalf("virtual time = %v, want 200ms", out.Stats.VirtualTime)
	}
	if out.Stats.DeadlineCuts != 2 || out.Stats.FailedCalls != 1 {
		t.Fatalf("cuts = %d, failed = %d", out.Stats.DeadlineCuts, out.Stats.FailedCalls)
	}
	if out.Complete {
		t.Fatal("a failed relevant call must downgrade completeness")
	}
	if len(out.Failures) != 1 || service.ClassOf(out.Failures[0].Err) != service.Timeout {
		t.Fatalf("failures = %+v", out.Failures)
	}
}

func TestBestEffortKeepsEvaluatingAroundPermanentFailures(t *testing.T) {
	// Restaurant lookups fail permanently; hotel ratings still resolve.
	// Best effort must deliver the partial result (hotels whose
	// restaurants were extensional) instead of erroring.
	spec := workload.DefaultSpec()
	w := workload.Hotels(spec)
	flaky := service.NewFaults(service.FaultSpec{
		Seed: 3, PermanentRate: 1, Services: []string{"getNearbyRestos"},
	}).Wrap(w.Registry)
	out, err := Evaluate(w.Doc.Clone(), w.Query, flaky, Options{
		Strategy: LazyNFQ, Retry: retryPolicy(3), Failure: BestEffort,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failures) == 0 || out.Stats.FailedCalls != len(out.Failures) {
		t.Fatalf("expected recorded failures, got %+v", out.Failures)
	}
	if out.Complete {
		t.Fatal("relevant failed calls must leave the outcome incomplete")
	}
	for _, f := range out.Failures {
		if f.Service != "getNearbyRestos" || f.Attempts != 1 {
			t.Fatalf("unexpected failure record: %+v", f)
		}
		if !strings.Contains(f.Path, "nearby") {
			t.Fatalf("failure path not recorded: %+v", f)
		}
	}
}

func TestBestEffortIrrelevantFailureStaysComplete(t *testing.T) {
	// Museums never contribute to the default query — but only the
	// schema can prove it (positionally a museum call could return a
	// restaurant). Failing every museum call under the *naive* strategy
	// (which does try to invoke them) must still yield the complete,
	// correct result: the typed completeness recheck proves the failed
	// calls irrelevant.
	w := workload.Hotels(workload.DefaultSpec())
	flaky := service.NewFaults(service.FaultSpec{
		Seed: 5, PermanentRate: 1, Services: []string{"getNearbyMuseums"},
	}).Wrap(w.Registry)
	out, err := Evaluate(w.Doc.Clone(), w.Query, flaky, Options{
		Strategy: NaiveFixpoint, Failure: BestEffort, Schema: w.Schema,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failures) == 0 {
		t.Fatal("museum calls should have failed")
	}
	if !out.Complete {
		t.Fatal("irrelevant failures must not downgrade completeness")
	}
	if len(out.Results) != w.ExpectedResults {
		t.Fatalf("got %d results, want %d", len(out.Results), w.ExpectedResults)
	}
}

func TestRetryAndGiveUpTraces(t *testing.T) {
	doc, q, reg := oneCallWorld(time.Millisecond, func([]*tree.Node) ([]*tree.Node, error) {
		return itemForest(), nil
	})
	flaky := service.NewFaults(service.FaultSpec{Seed: 1, FailFirst: 1}).Wrap(reg)
	out, spans, err := tracedEvaluate(t, doc, q, flaky, Options{
		Strategy: LazyNFQ, Retry: RetryPolicy{MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A call that needed a retry: one invoke span carrying the attempt
	// count and no error, with one child span per attempt.
	invokes := spansNamed(spans, "invoke")
	if len(invokes) != 1 || len(out.Results) != 1 {
		t.Fatalf("invoke spans=%d results=%d", len(invokes), len(out.Results))
	}
	if inv := invokes[0]; inv.Attr("attempts") != "2" || inv.Attr("service") != "getItems" || inv.Attr("error") != "" {
		t.Errorf("retried invoke span = %+v", inv)
	}
	attempts := spansNamed(spans, "attempt")
	if len(attempts) != 2 || attempts[0].Attr("status") == "ok" || attempts[1].Attr("status") != "ok" {
		t.Errorf("attempt spans = %+v", attempts)
	}
	for _, a := range attempts {
		if a.Parent != invokes[0].ID {
			t.Errorf("attempt span not under its invoke span: %+v", a)
		}
	}

	// Exhausting attempts under best effort leaves an invoke span carrying
	// the attempt count and the final error.
	doc2, q2, reg2 := oneCallWorld(time.Millisecond, func([]*tree.Node) ([]*tree.Node, error) {
		return itemForest(), nil
	})
	flaky2 := service.NewFaults(service.FaultSpec{Seed: 1, FailFirst: 5}).Wrap(reg2)
	out2, spans2, err := tracedEvaluate(t, doc2, q2, flaky2, Options{
		Strategy: LazyNFQ, Retry: RetryPolicy{MaxAttempts: 2}, Failure: BestEffort,
	})
	if err != nil {
		t.Fatal(err)
	}
	giveups := 0
	for _, inv := range spansNamed(spans2, "invoke") {
		if inv.Attr("error") != "" {
			giveups++
			if inv.Attr("attempts") != "2" {
				t.Errorf("give-up invoke span = %+v", inv)
			}
		}
	}
	if giveups != 1 || len(out2.Failures) != 1 {
		t.Fatalf("giveups = %d, failures = %d, want 1 and 1", giveups, len(out2.Failures))
	}
}

// TestBatchFailureKeepsCompletedResponses is the regression test for the
// invokeMixedBatch early-return leak: a mid-batch failure used to drop
// the already-completed members' responses without applying or charging
// them. Under best effort every successful member must land in the
// document; under fail-fast they must land before the error returns.
func TestBatchFailureKeepsCompletedResponses(t *testing.T) {
	build := func() (*tree.Document, *pattern.Pattern, *service.Registry) {
		root := tree.NewElement("shop")
		items := root.Append(tree.NewElement("items"))
		items.Append(tree.NewCall("good1"))
		items.Append(tree.NewCall("bad"))
		items.Append(tree.NewCall("good2"))
		doc := tree.NewDocument(root)
		q := pattern.MustParse(`/shop/items/item[name=$X] -> $X`)
		reg := service.NewRegistry()
		mk := func(name, item string) {
			reg.Register(&service.Service{
				Name: name, Latency: 5 * time.Millisecond,
				Handler: func([]*tree.Node) ([]*tree.Node, error) {
					it := tree.NewElement("item")
					it.Append(tree.NewElement("name")).Append(tree.NewText(item))
					return []*tree.Node{it}, nil
				},
			})
		}
		mk("good1", "lamp")
		mk("good2", "rug")
		reg.Register(&service.Service{
			Name: "bad", Latency: 5 * time.Millisecond,
			Handler: func([]*tree.Node) ([]*tree.Node, error) {
				return nil, &service.Fault{Service: "bad", Class: service.Permanent,
					Latency: 5 * time.Millisecond, Msg: "broken"}
			},
		})
		return doc, q, reg
	}

	// Fail-fast: the error surfaces, but the two successes were applied
	// and the batch round was charged.
	doc, q, reg := build()
	_, err := Evaluate(doc, q, reg, Options{Strategy: NaiveFixpoint, Parallel: true})
	if err == nil {
		t.Fatal("fail-fast batch with a failing member should error")
	}
	if got := len(doc.Calls()); got != 1 {
		t.Fatalf("after the failed batch %d calls remain, want only the failed one", got)
	}
	if names := childNames(doc); names != "lamp,rug" {
		t.Fatalf("successful batch members not applied: %q", names)
	}

	// Best effort: same batch, no error, failure recorded, full partial
	// result.
	doc, q, reg = build()
	out, err := Evaluate(doc, q, reg, Options{
		Strategy: NaiveFixpoint, Parallel: true, Failure: BestEffort,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || len(out.Failures) != 1 || out.Failures[0].Service != "bad" {
		t.Fatalf("results=%d failures=%+v", len(out.Results), out.Failures)
	}
	if out.Complete {
		t.Fatal("the failed call could still have produced matching items; expected incomplete")
	}
}

// childNames renders the item names present in the document, sorted by
// document order.
func childNames(doc *tree.Document) string {
	var names []string
	doc.Root.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.Element && n.Label == "name" && len(n.Children) == 1 {
			names = append(names, n.Children[0].Label)
		}
		return true
	})
	return strings.Join(names, ",")
}
