package core

import (
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/telemetry/spantest"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// TestParallelTraceDeterminism: every span is emitted by the engine
// goroutine, so two identical runs — batches fanned out over the
// invocation pool included — record identical streams, and within each
// layer the detect spans come ordered by (round, shard).
func TestParallelTraceDeterminism(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 8
	spec.HiddenHotels = 2
	stream := func() []telemetry.Span {
		w := workload.Hotels(spec)
		_, spans, err := tracedEvaluate(t, w.Doc.Clone(), w.Query, w.Registry, Options{
			Strategy: LazyNFQ, Layering: true, Parallel: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return spantest.Normalize(spans, false)
	}
	a := stream()
	for run := 0; run < 3; run++ {
		if b := stream(); !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d: span stream differs (%d spans vs %d)", run, len(b), len(a))
		}
	}
	var last struct {
		layer        telemetry.SpanID
		round, shard int
	}
	sharded := false
	for _, s := range spansNamed(a, "detect") {
		round, _ := strconv.Atoi(s.Attr("round"))
		if s.Parent == last.layer && (round < last.round ||
			(round == last.round && s.Shard <= last.shard && s.Shard != 0)) {
			t.Errorf("detect order violated: layer span %d round %d shard %d after round %d shard %d",
				s.Parent, round, s.Shard, last.round, last.shard)
		}
		last.layer, last.round, last.shard = s.Parent, round, s.Shard
		sharded = sharded || s.Shard != 0
	}
	if !sharded {
		t.Error("no detect span carried a non-zero shard")
	}
}

// TestEngineSpansBatched: everything an explain reader needs about a layered,
// parallel, pushing run is on the span stream — one layer span per
// layer, one detect span per relevance query, one invoke span per call
// with its service, path and pushed flag, and the batch size on every
// member of a multi-call batch.
func TestEngineSpansBatched(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 6
	spec.HiddenHotels = 2
	spec.PushCapable = true
	// Every hotel's rating is a call: the rating layer is one wide batch.
	spec.IntensionalRatingEvery = 1
	w := workload.Hotels(spec)
	out, spans, err := tracedEvaluate(t, w.Doc.Clone(), w.Query, w.Registry, Options{
		Strategy: LazyNFQTyped, Schema: w.Schema,
		Layering: true, Parallel: true, Push: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if layers := len(spansNamed(spans, "layer")); layers < 2 {
		t.Errorf("layers traced = %d", layers)
	}
	if detects := len(spansNamed(spans, "detect")); detects == 0 || detects != out.Stats.RelevanceQueries {
		t.Errorf("detect spans %d vs relevance queries %d", detects, out.Stats.RelevanceQueries)
	}
	invokes := spansNamed(spans, "invoke")
	if len(invokes) != out.Stats.CallsInvoked {
		t.Errorf("invoke spans %d vs calls %d", len(invokes), out.Stats.CallsInvoked)
	}
	var pushed int
	batchOf := map[string]int{} // round → members seen
	for _, s := range invokes {
		if s.Attr("service") == "" || s.Attr("path") == "" {
			t.Errorf("invoke span incomplete: %+v", s)
		}
		if s.Attr("pushed") == "true" {
			pushed++
		}
		batchOf[s.Attr("round")]++
	}
	if pushed != out.Stats.PushedCalls {
		t.Errorf("pushed spans %d vs stat %d", pushed, out.Stats.PushedCalls)
	}
	// One round is one invocation, so the members sharing a round are
	// exactly one batch: the attr must state that size, and be absent on
	// single calls.
	batched := false
	for _, s := range invokes {
		want := ""
		if n := batchOf[s.Attr("round")]; n > 1 {
			want = strconv.Itoa(n)
			batched = true
		}
		if got := s.Attr("batch"); got != want {
			t.Errorf("round %s: batch attr %q, want %q", s.Attr("round"), got, want)
		}
	}
	if !batched {
		t.Error("no multi-call batch traced")
	}
}

// TestTraceSequentialAndNaive: naive invocations serve no relevance
// query and run one at a time — their invoke spans carry no target, no
// batch size and worker 0.
func TestTraceSequentialAndNaive(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	out, spans, err := tracedEvaluate(t, w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: NaiveFixpoint})
	if err != nil {
		t.Fatal(err)
	}
	invokes := spansNamed(spans, "invoke")
	if len(invokes) != out.Stats.CallsInvoked {
		t.Fatalf("traced %d of %d invocations", len(invokes), out.Stats.CallsInvoked)
	}
	for _, s := range invokes {
		if s.Attr("target") != "" || s.Attr("batch") != "" || s.Worker != 0 {
			t.Errorf("sequential naive invocation traced as %+v", s)
		}
	}
}

// refusingPlanner fails the test if the engine shows it a batch.
type refusingPlanner struct{ t *testing.T }

func (p refusingPlanner) PlanBatch(calls []PlanCall, width int) BatchPlan {
	p.t.Errorf("planner consulted for a batch of %d", len(calls))
	return BatchPlan{}
}
func (refusingPlanner) AllowPush(string) bool             { return true }
func (refusingPlanner) AdmitSpeculative([]PlanCall) []int { return nil }

// TestSingleCallRoundRunsInline: a round with a single relevant call
// takes the same path whether or not batching, a pool and a planner are
// configured — one invoke span on worker 0 with no batch size, no plan
// span beside it, and the accounting of the non-parallel run.
func TestSingleCallRoundRunsInline(t *testing.T) {
	world := func() (*tree.Document, *pattern.Pattern, *service.Registry) {
		return oneCallWorld(time.Millisecond, func([]*tree.Node) ([]*tree.Node, error) {
			return itemForest(), nil
		})
	}
	doc, q, reg := world()
	seq, err := Evaluate(doc, q, reg, Options{Strategy: LazyNFQ})
	if err != nil {
		t.Fatal(err)
	}
	doc, q, reg = world()
	par, spans, err := tracedEvaluate(t, doc, q, reg, Options{
		Strategy: LazyNFQ, Parallel: true, InvokeWorkers: 4, Planner: refusingPlanner{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	invokes := spansNamed(spans, "invoke")
	if len(invokes) != 1 || invokes[0].Worker != 0 || invokes[0].Attr("batch") != "" {
		t.Errorf("invoke spans = %+v", invokes)
	}
	if plans := spansNamed(spans, "plan"); len(plans) != 0 {
		t.Errorf("single-call round emitted plan spans: %+v", plans)
	}
	if got, want := normalizedStats(par), normalizedStats(seq); got != want {
		t.Errorf("stats diverge from the non-parallel run\n got %+v\nwant %+v", got, want)
	}
}

// TestEngineSpans: an instrumented evaluation emits a span tree whose
// root accounts for the invoked-vs-pruned split and whose per-phase self
// times sum to the evaluation's total (the -explain acceptance identity).
func TestEngineSpans(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 6
	spec.HiddenHotels = 2
	w := workload.Hotels(spec)
	tr := telemetry.NewTracer(0)
	reg := telemetry.NewRegistry()
	out, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{
		Strategy: LazyNFQ, Layering: true, Tracer: tr, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	roots := telemetry.BuildTree(tr.Spans(0))
	if len(roots) != 1 || roots[0].Name != "evaluate" {
		t.Fatalf("want a single evaluate root, got %+v", roots)
	}
	eval := roots[0]
	if got := eval.Span.Attr("calls_invoked"); got != strconv.Itoa(out.Stats.CallsInvoked) {
		t.Errorf("calls_invoked attr = %q, stats say %d", got, out.Stats.CallsInvoked)
	}
	pruned, _ := strconv.Atoi(eval.Span.Attr("calls_pruned"))
	if pruned <= 0 {
		t.Errorf("lazy evaluation pruned nothing? attr=%q", eval.Span.Attr("calls_pruned"))
	}

	var names = map[string]int{}
	var detects, invokes int
	var selfSum time.Duration
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		names[n.Name]++
		selfSum += n.Self()
		switch n.Name {
		case "detect":
			detects++
		case "invoke":
			invokes++
			if n.Span.Attr("service") == "" {
				t.Errorf("invoke span misses service: %+v", n.Span)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(eval)
	for _, want := range []string{"analysis", "layer", "detect", "invoke", "result-eval"} {
		if names[want] == 0 {
			t.Errorf("span tree misses %q spans: %v", want, names)
		}
	}
	if detects != out.Stats.RelevanceQueries {
		t.Errorf("detect spans %d vs relevance queries %d", detects, out.Stats.RelevanceQueries)
	}
	if invokes != out.Stats.CallsInvoked {
		t.Errorf("invoke spans %d vs calls %d", invokes, out.Stats.CallsInvoked)
	}
	if selfSum != eval.Wall {
		t.Errorf("phase self times sum to %v, root wall is %v", selfSum, eval.Wall)
	}

	// Metrics agree with the outcome's stats.
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricCallsInvoked]; got != int64(out.Stats.CallsInvoked) {
		t.Errorf("metric calls = %d, stats %d", got, out.Stats.CallsInvoked)
	}
	if got := snap.Counters[telemetry.MetricCallsPruned]; got != int64(pruned) {
		t.Errorf("metric pruned = %d, attr %d", got, pruned)
	}
	if snap.Counters[telemetry.MetricEvaluations] != 1 {
		t.Errorf("evaluations counter = %d", snap.Counters[telemetry.MetricEvaluations])
	}
	if snap.Histograms[telemetry.MetricDetectSeconds].Count == 0 {
		t.Error("detect histogram empty")
	}
	if int(snap.Histograms[telemetry.MetricInvokeWallSeconds].Count) != out.Stats.CallsInvoked {
		t.Errorf("invoke histogram count = %d, calls %d",
			snap.Histograms[telemetry.MetricInvokeWallSeconds].Count, out.Stats.CallsInvoked)
	}
}
