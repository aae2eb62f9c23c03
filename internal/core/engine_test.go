package core

import (
	"testing"
	"time"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// run evaluates the world's default query under the options and checks
// completeness and the ground-truth result count.
func run(t *testing.T, w *workload.World, opt Options) *Outcome {
	t.Helper()
	doc := w.Doc.Clone()
	if opt.Strategy == LazyNFQTyped && opt.Schema == nil {
		opt.Schema = w.Schema
	}
	out, err := Evaluate(doc, w.Query, w.Registry, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatalf("%v: evaluation incomplete (budget too small?)", opt.Strategy)
	}
	if len(out.Results) != w.ExpectedResults {
		t.Fatalf("%v: got %d results, want %d", opt.Strategy, len(out.Results), w.ExpectedResults)
	}
	return out
}

func TestAllStrategiesAgreeOnResults(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	strategies := []Options{
		{Strategy: NaiveFixpoint},
		{Strategy: TopDownEager},
		{Strategy: LazyLPQ},
		{Strategy: LazyNFQ},
		{Strategy: LazyNFQTyped},
		{Strategy: LazyNFQ, Layering: true},
		{Strategy: LazyNFQ, Layering: true, Parallel: true},
		{Strategy: LazyNFQTyped, Layering: true, Parallel: true},
		{Strategy: LazyNFQTyped, SchemaMode: schema.Lenient},
		{Strategy: LazyNFQ, UseGuide: true},
		{Strategy: LazyNFQTyped, UseGuide: true, Layering: true, Parallel: true},
		{Strategy: LazyNFQ, RelaxJoins: true},
	}
	for _, opt := range strategies {
		run(t, w, opt)
	}
}

func TestLazyInvokesFewerCallsThanNaive(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	naive := run(t, w, Options{Strategy: NaiveFixpoint})
	lpq := run(t, w, Options{Strategy: LazyLPQ})
	nfq := run(t, w, Options{Strategy: LazyNFQ})
	typed := run(t, w, Options{Strategy: LazyNFQTyped})

	if naive.Stats.CallsInvoked != workload.TotalCalls(w.Spec) {
		t.Errorf("naive calls = %d, want %d", naive.Stats.CallsInvoked, workload.TotalCalls(w.Spec))
	}
	// The pruning hierarchy of the paper: position-only pruning (LPQ) ≥
	// condition pruning (NFQ) ≥ type pruning (NFQ+types); naive invokes
	// everything.
	if !(naive.Stats.CallsInvoked > lpq.Stats.CallsInvoked) {
		t.Errorf("LPQ (%d calls) should beat naive (%d)", lpq.Stats.CallsInvoked, naive.Stats.CallsInvoked)
	}
	if !(lpq.Stats.CallsInvoked >= nfq.Stats.CallsInvoked) {
		t.Errorf("NFQ (%d calls) should not exceed LPQ (%d)", nfq.Stats.CallsInvoked, lpq.Stats.CallsInvoked)
	}
	if !(nfq.Stats.CallsInvoked > typed.Stats.CallsInvoked) {
		t.Errorf("types (%d calls) should beat untyped NFQ (%d)", typed.Stats.CallsInvoked, nfq.Stats.CallsInvoked)
	}
}

func TestTypedPruningSkipsMuseums(t *testing.T) {
	// With signatures, no museums call is ever invoked.
	w := workload.Hotels(workload.DefaultSpec())
	doc := w.Doc.Clone()
	w.Registry.ResetStats()
	out, err := Evaluate(doc, w.Query, w.Registry, Options{Strategy: LazyNFQTyped, Schema: w.Schema})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatal("incomplete")
	}
	for _, c := range doc.Calls() {
		if c.Label == "getRating" || c.Label == "getNearbyRestos" {
			continue
		}
	}
	// Museums calls of qualifying hotels remain unexpanded in the doc.
	museums := 0
	for _, c := range doc.Calls() {
		if c.Label == "getNearbyMuseums" {
			museums++
		}
	}
	if museums == 0 {
		t.Fatal("typed evaluation should leave museum calls unexpanded")
	}
}

func TestParallelReducesVirtualTime(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Latency = 20 * time.Millisecond
	w := workload.Hotels(spec)
	seq := run(t, w, Options{Strategy: LazyNFQTyped, Layering: true})
	par := run(t, w, Options{Strategy: LazyNFQTyped, Layering: true, Parallel: true})
	if par.Stats.CallsInvoked != seq.Stats.CallsInvoked {
		t.Fatalf("parallelism changed the relevant set: %d vs %d",
			par.Stats.CallsInvoked, seq.Stats.CallsInvoked)
	}
	if par.Stats.VirtualTime >= seq.Stats.VirtualTime {
		t.Errorf("parallel virtual time %v should beat sequential %v",
			par.Stats.VirtualTime, seq.Stats.VirtualTime)
	}
	if par.Stats.Rounds >= seq.Stats.Rounds {
		t.Errorf("parallel rounds %d should beat sequential %d",
			par.Stats.Rounds, seq.Stats.Rounds)
	}
}

func TestLayeringReducesRelevanceQueries(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.RatingChainDepth = 3
	w := workload.Hotels(spec)
	flat := run(t, w, Options{Strategy: LazyNFQ})
	layered := run(t, w, Options{Strategy: LazyNFQ, Layering: true})
	if flat.Stats.CallsInvoked != layered.Stats.CallsInvoked {
		t.Fatalf("layering changed the relevant set: %d vs %d",
			flat.Stats.CallsInvoked, layered.Stats.CallsInvoked)
	}
	if layered.Stats.RelevanceQueries >= flat.Stats.RelevanceQueries {
		t.Errorf("layered NFQ evaluations %d should beat flat %d",
			layered.Stats.RelevanceQueries, flat.Stats.RelevanceQueries)
	}
}

func TestPushReducesBytes(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.PushCapable = true
	spec.RestosPerCall = 50
	spec.FiveStarRestos = 2
	w := workload.Hotels(spec)
	plain := run(t, w, Options{Strategy: LazyNFQTyped})
	pushed := run(t, w, Options{Strategy: LazyNFQTyped, Push: true})
	if pushed.Stats.PushedCalls == 0 {
		t.Fatal("no calls were pushed")
	}
	if pushed.Stats.BytesFetched >= plain.Stats.BytesFetched {
		t.Errorf("push bytes %d should beat plain %d",
			pushed.Stats.BytesFetched, plain.Stats.BytesFetched)
	}
}

func TestPushWithJoinQueryIsNotPushedUnsafely(t *testing.T) {
	// The join query shares $N between the hotel and... actually its
	// restaurant subquery only uses $X, which is a result var, so the
	// restaurant subtree is pushable; but the tag subtree ($N, not a
	// result of sub_tag) must not be pushed. Correctness is the check:
	// results must match the non-push run.
	spec := workload.DefaultSpec()
	spec.PushCapable = true
	spec.TagJoinEvery = 2
	w := workload.Hotels(spec)
	docA, docB := w.Doc.Clone(), w.Doc.Clone()
	a, err := Evaluate(docA, w.JoinQuery, w.Registry, Options{Strategy: LazyNFQ})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(docB, w.JoinQuery, w.Registry, Options{Strategy: LazyNFQ, Push: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("push changed join results: %d vs %d", len(a.Results), len(b.Results))
	}
	if len(a.Results) == 0 {
		t.Fatal("join query should have results")
	}
}

func TestGuideAgreesWithDirectDetection(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.MaterializedRestos = 5
	w := workload.Hotels(spec)
	direct := run(t, w, Options{Strategy: LazyNFQ})
	guided := run(t, w, Options{Strategy: LazyNFQ, UseGuide: true})
	if direct.Stats.CallsInvoked != guided.Stats.CallsInvoked {
		t.Fatalf("guide changed the relevant set: %d vs %d",
			direct.Stats.CallsInvoked, guided.Stats.CallsInvoked)
	}
	if guided.Stats.GuideCandidates == 0 {
		t.Fatal("guide produced no candidates")
	}
}

func TestRelaxedJoinsInvokeMoreButAgree(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.TagJoinEvery = 2
	w := workload.Hotels(spec)
	docA, docB := w.Doc.Clone(), w.Doc.Clone()
	strict, err := Evaluate(docA, w.JoinQuery, w.Registry, Options{Strategy: LazyNFQ})
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := Evaluate(docB, w.JoinQuery, w.Registry, Options{Strategy: LazyNFQ, RelaxJoins: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Results) != len(relaxed.Results) {
		t.Fatalf("relaxation changed results: %d vs %d", len(strict.Results), len(relaxed.Results))
	}
	if relaxed.Stats.CallsInvoked <= strict.Stats.CallsInvoked {
		t.Errorf("relaxed joins should invoke more calls: %d vs %d",
			relaxed.Stats.CallsInvoked, strict.Stats.CallsInvoked)
	}
}

func TestExactVsLenientTypesOnTeasers(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.TeaserKinds = 4
	w := workload.Hotels(spec)
	// The star query accepts any venue kind, so only type analysis can
	// rule teasers out; exact analysis proves (name|rating) cannot hold
	// both, lenient cannot.
	docA, docB := w.Doc.Clone(), w.Doc.Clone()
	exact, err := Evaluate(docA, w.StarQuery, w.Registry,
		Options{Strategy: LazyNFQTyped, Schema: w.Schema, SchemaMode: schema.Exact})
	if err != nil {
		t.Fatal(err)
	}
	lenient, err := Evaluate(docB, w.StarQuery, w.Registry,
		Options{Strategy: LazyNFQTyped, Schema: w.Schema, SchemaMode: schema.Lenient})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Results) != len(lenient.Results) {
		t.Fatalf("modes disagree on results: %d vs %d", len(exact.Results), len(lenient.Results))
	}
	if lenient.Stats.CallsInvoked <= exact.Stats.CallsInvoked {
		t.Errorf("lenient should invoke more calls (teasers): %d vs %d",
			lenient.Stats.CallsInvoked, exact.Stats.CallsInvoked)
	}
}

func TestBudgetStopsEvaluation(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	doc := w.Doc.Clone()
	out, err := Evaluate(doc, w.Query, w.Registry, Options{Strategy: NaiveFixpoint, MaxCalls: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Complete {
		t.Fatal("tiny budget should not complete")
	}
	if out.Stats.CallsInvoked > 3 {
		t.Fatalf("budget exceeded: %d", out.Stats.CallsInvoked)
	}
}

// TestExactBudgetCompletes: a run allowed exactly the calls the free run
// makes reaches the fixpoint with its last allowed call and says so —
// Complete=true and the free run's results — under every selection rule;
// one call less leaves a relevant call pending and says Complete=false.
func TestExactBudgetCompletes(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	for _, v := range []struct {
		name string
		opt  Options
	}{
		{"naive", Options{Strategy: NaiveFixpoint}},
		{"eager", Options{Strategy: TopDownEager}},
		{"lazy-lpq", Options{Strategy: LazyLPQ}},
		{"lazy-nfq", Options{Strategy: LazyNFQ}},
		{"layered-parallel", Options{Strategy: LazyNFQ, Layering: true, Parallel: true}},
		{"speculative", Options{Strategy: LazyNFQ, Layering: true, Speculative: true}},
		{"typed-layered-parallel", Options{Strategy: LazyNFQTyped, Schema: w.Schema, Layering: true, Parallel: true}},
	} {
		free := run(t, w, v.opt)
		n := free.Stats.CallsInvoked
		for _, budget := range []int{n, n - 1} {
			opt := v.opt
			opt.MaxCalls = budget
			out, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, opt)
			if err != nil {
				t.Fatalf("%s, budget %d: %v", v.name, budget, err)
			}
			if want := budget == n; out.Complete != want || out.Stats.CallsInvoked != budget {
				t.Errorf("%s, budget %d of %d: complete=%v after %d calls, want complete=%v",
					v.name, budget, n, out.Complete, out.Stats.CallsInvoked, want)
			} else if want && resultKeys(out) != resultKeys(free) {
				t.Errorf("%s, budget %d: results differ from the free run", v.name, budget)
			}
		}
	}
}

func TestTypedWithoutSchemaFails(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	_, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: LazyNFQTyped})
	if err == nil {
		t.Fatal("LazyNFQTyped without schema must fail")
	}
}

func TestExtendedQueryRejected(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	q := pattern.MustParse(`/hotels[(a|b)]`)
	if _, err := Evaluate(w.Doc.Clone(), q, w.Registry, Options{Strategy: LazyNFQ}); err == nil {
		t.Fatal("extended query must be rejected")
	}
}

func TestUnknownStrategy(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	if _, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: Strategy(99)}); err == nil {
		t.Fatal("unknown strategy must fail")
	}
}

func TestServiceErrorPropagates(t *testing.T) {
	reg := service.NewRegistry()
	reg.Register(&service.Service{Name: "f", Handler: func([]*tree.Node) ([]*tree.Node, error) {
		return nil, errTest
	}})
	root := tree.NewElement("r")
	root.Append(tree.NewElement("a")).Append(tree.NewCall("f"))
	doc := tree.NewDocument(root)
	q := pattern.MustParse(`/r/a/"v"`)
	if _, err := Evaluate(doc, q, reg, Options{Strategy: LazyNFQ}); err == nil {
		t.Fatal("service error must propagate")
	}
	// Also through the parallel path.
	root2 := tree.NewElement("r")
	root2.Append(tree.NewElement("a")).Append(tree.NewCall("f"))
	doc2 := tree.NewDocument(root2)
	if _, err := Evaluate(doc2, q, reg, Options{Strategy: NaiveFixpoint, Parallel: true}); err == nil {
		t.Fatal("service error must propagate from batches")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }

func TestUnknownServiceInDocument(t *testing.T) {
	// A relevant call to an unregistered service is an error.
	reg := service.NewRegistry()
	root := tree.NewElement("r")
	root.Append(tree.NewElement("a")).Append(tree.NewCall("ghost"))
	doc := tree.NewDocument(root)
	q := pattern.MustParse(`/r/a/"v"`)
	if _, err := Evaluate(doc, q, reg, Options{Strategy: LazyNFQ}); err == nil {
		t.Fatal("unknown service must fail")
	}
	// But an *irrelevant* call to an unregistered service is never
	// touched by the lazy strategies.
	root2 := tree.NewElement("r")
	root2.Append(tree.NewElement("a")).Append(tree.NewText("v"))
	root2.Append(tree.NewElement("zzz")).Append(tree.NewCall("ghost"))
	doc2 := tree.NewDocument(root2)
	out, err := Evaluate(doc2, q, reg, Options{Strategy: LazyNFQ})
	if err != nil {
		t.Fatalf("irrelevant unknown service should be skipped: %v", err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("results = %v", out.Results)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		NaiveFixpoint: "naive", TopDownEager: "eager", LazyLPQ: "lazy-lpq",
		LazyNFQ: "lazy-nfq", LazyNFQTyped: "lazy-nfq-typed", Strategy(7): "strategy(7)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	out := run(t, w, Options{Strategy: LazyNFQTyped, Layering: true})
	st := out.Stats
	if st.CallsInvoked == 0 || st.RelevanceQueries == 0 || st.Rounds == 0 ||
		st.NodesVisited == 0 || st.BytesFetched == 0 || st.VirtualTime == 0 ||
		st.FinalSize == 0 {
		t.Fatalf("stats incomplete: %+v", st)
	}
	if st.AnalysisTime <= 0 || st.DetectTime <= 0 {
		t.Fatalf("timers not populated: %+v", st)
	}
}

func TestSpeculativeMinimisesRounds(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.RatingChainDepth = 2
	w := workload.Hotels(spec)
	safe := run(t, w, Options{Strategy: LazyNFQ, Layering: true, Parallel: true})
	speculative := run(t, w, Options{Strategy: LazyNFQ, Layering: true, Speculative: true})
	// Speculation can only shrink rounds (and hence virtual time); it
	// may invoke extra calls that strict relevance would have skipped.
	if speculative.Stats.Rounds > safe.Stats.Rounds {
		t.Errorf("speculative rounds %d should not exceed safe %d",
			speculative.Stats.Rounds, safe.Stats.Rounds)
	}
	if speculative.Stats.CallsInvoked < safe.Stats.CallsInvoked {
		t.Errorf("speculation cannot invoke fewer calls than the relevant set: %d vs %d",
			speculative.Stats.CallsInvoked, safe.Stats.CallsInvoked)
	}
	if speculative.Stats.VirtualTime > safe.Stats.VirtualTime {
		t.Errorf("speculative virtual time %v should not exceed safe %v",
			speculative.Stats.VirtualTime, safe.Stats.VirtualTime)
	}
}

func TestSpeculativeWithPushAndGuide(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.PushCapable = true
	w := workload.Hotels(spec)
	out := run(t, w, Options{
		Strategy: LazyNFQTyped, Layering: true, Speculative: true,
		Push: true, UseGuide: true,
	})
	if out.Stats.PushedCalls == 0 {
		t.Fatal("speculative batches should still push subqueries")
	}
}

func TestCompleteAndRelevant(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	doc := w.Doc.Clone()
	ok, err := Complete(doc, w.Query, nil, schema.Exact)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("fresh document cannot be complete")
	}
	// Typed relevance is a subset of untyped relevance.
	untyped, err := Relevant(doc, w.Query, nil, schema.Exact)
	if err != nil {
		t.Fatal(err)
	}
	typed, err := Relevant(doc, w.Query, w.Schema, schema.Exact)
	if err != nil {
		t.Fatal(err)
	}
	if len(typed) >= len(untyped) {
		t.Fatalf("typed relevance %d should be smaller than untyped %d", len(typed), len(untyped))
	}
	inUntyped := map[*tree.Node]bool{}
	for _, c := range untyped {
		inUntyped[c] = true
	}
	for _, c := range typed {
		if !inUntyped[c] {
			t.Fatalf("typed-relevant call %s missing from untyped set", c.Label)
		}
	}
	// After a lazy evaluation, the document is complete for the query.
	out, err := Evaluate(doc, w.Query, w.Registry, Options{Strategy: LazyNFQ})
	if err != nil || !out.Complete {
		t.Fatalf("evaluation failed: %v", err)
	}
	ok, err = Complete(doc, w.Query, nil, schema.Exact)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		left, _ := Relevant(doc, w.Query, nil, schema.Exact)
		t.Fatalf("document not complete after lazy evaluation; %d calls left", len(left))
	}
}

// TestCompletenessInvariant is the core semantic check of Definition 3:
// after any lazy evaluation completes, continuing with the naive fixpoint
// cannot change the query result.
func TestCompletenessInvariant(t *testing.T) {
	specs := []workload.HotelSpec{
		workload.DefaultSpec(),
		func() workload.HotelSpec {
			s := workload.DefaultSpec()
			s.RatingChainDepth = 2
			s.TeaserKinds = 2
			return s
		}(),
		func() workload.HotelSpec {
			s := workload.DefaultSpec()
			s.TargetEvery = 1 // every hotel matches the name
			s.FiveStarEvery = 3
			return s
		}(),
	}
	for _, spec := range specs {
		w := workload.Hotels(spec)
		for _, opt := range []Options{
			{Strategy: LazyLPQ},
			{Strategy: LazyNFQ, Layering: true, Parallel: true},
			{Strategy: LazyNFQTyped, Schema: w.Schema, UseGuide: true},
		} {
			doc := w.Doc.Clone()
			lazy, err := Evaluate(doc, w.Query, w.Registry, opt)
			if err != nil || !lazy.Complete {
				t.Fatalf("%v: %v", opt.Strategy, err)
			}
			// Materialise everything that remains and re-evaluate.
			rest, err := Evaluate(doc, w.Query, w.Registry, Options{Strategy: NaiveFixpoint})
			if err != nil || !rest.Complete {
				t.Fatalf("fixpoint: %v", err)
			}
			if len(rest.Results) != len(lazy.Results) {
				t.Fatalf("%v: lazy result %d != post-fixpoint result %d — lazy stopped too early",
					opt.Strategy, len(lazy.Results), len(rest.Results))
			}
		}
	}
}

// TestSpliceRecordsObserveEveryReplacement checks the document's splice
// records: one per successful invocation, in order, with the removed call
// node, its pre-splice parent and the calls the forest brought in under it —
// enough for an external IncrementalEvaluator to Invalidate in lockstep with
// the engine's own shards.
func TestSpliceRecordsObserveEveryReplacement(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	doc := w.Doc.Clone()
	before := doc.Version()
	out, err := Evaluate(doc, w.Query, w.Registry, Options{Strategy: LazyNFQ})
	if err != nil {
		t.Fatal(err)
	}
	muts, ok := doc.SplicesSince(before)
	if !ok || len(muts) != out.Stats.CallsInvoked {
		t.Fatalf("%d splice records (ok=%v), want one per invocation (%d)", len(muts), ok, out.Stats.CallsInvoked)
	}
	expanded := map[*tree.Node]bool{}
	for i, m := range muts {
		if m.Removed == nil || m.Removed.Kind != tree.Call || m.Removed.Parent != nil {
			t.Fatalf("mutation %d: removed node is not a detached call", i)
		}
		if m.Parent == nil {
			t.Fatalf("mutation %d: nil parent", i)
		}
		expanded[m.Removed] = true
	}
	for i, m := range muts {
		for _, c := range m.Calls {
			x := c.Parent
			for x != nil && x != m.Parent {
				x = x.Parent
			}
			if x == nil && !expanded[c] {
				t.Fatalf("mutation %d: inserted call neither under parent nor expanded since", i)
			}
		}
	}
	// The records describe the document being evaluated: keeping an
	// external incremental evaluator in sync from them must reproduce Eval
	// exactly.
	ie := pattern.NewIncrementalProjected(w.Query, nil)
	doc2 := w.Doc.Clone()
	ie.EvalIncremental(doc2)
	before = doc2.Version()
	out2, err := Evaluate(doc2, w.Query, w.Registry, Options{Strategy: LazyNFQ})
	if err != nil {
		t.Fatal(err)
	}
	muts, _ = doc2.SplicesSince(before)
	for _, m := range muts {
		ie.Invalidate(m.Parent, m.Removed)
	}
	got, _ := ie.EvalIncremental(doc2)
	if len(got) != len(out2.Results) {
		t.Fatalf("external incremental evaluator: %d results, engine %d", len(got), len(out2.Results))
	}
}

// TestAdoptedGuidePatchesCounted: the engine counts a patch of the caller's
// guide (Options.Guide) once per splice, and none when the guide it
// maintains is its own.
func TestAdoptedGuidePatchesCounted(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	for _, adopt := range []bool{true, false} {
		doc := w.Doc.Clone()
		met := telemetry.NewRegistry()
		opt := Options{Strategy: LazyNFQ, Incremental: true, UseGuide: true, Metrics: met}
		if adopt {
			opt.Guide = fguide.Build(doc)
		}
		out, err := Evaluate(doc, w.Query, w.Registry, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if adopt {
			want = int64(out.Stats.CallsInvoked)
		}
		if got := met.Counter(telemetry.MetricGuidePatches).Value(); got != want || out.Stats.CallsInvoked == 0 {
			t.Fatalf("adopted=%v: %s = %d after %d splices, want %d", adopt, telemetry.MetricGuidePatches, got, out.Stats.CallsInvoked, want)
		}
	}
}
