package soap

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/telemetry/spantest"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// traceWorld is a deterministic multi-service world for propagation
// tests: nServices extensional services, each referenced by exactly one
// call in the document, so per-service fault counters are independent
// of invocation interleaving and traces are comparable across pool
// widths.
func traceWorld(nServices int) (*service.Registry, *tree.Document, *pattern.Pattern) {
	reg := service.NewRegistry()
	root := tree.NewElement("root")
	for i := 0; i < nServices; i++ {
		name := fmt.Sprintf("svc%d", i)
		i := i
		reg.Register(&service.Service{
			Name:    name,
			Latency: time.Duration(i+1) * time.Millisecond,
			Handler: func(params []*tree.Node) ([]*tree.Node, error) {
				item := tree.NewElement("item")
				item.Append(tree.NewText(fmt.Sprintf("v%d", i)))
				return []*tree.Node{item}, nil
			},
		})
		root.Append(tree.NewCall(name))
	}
	return reg, tree.NewDocument(root), pattern.MustParse("/root/item")
}

// tracedServer serves reg with a server-side tracer attached and
// returns a client-side proxy registry for it.
func tracedServer(t *testing.T, reg *service.Registry) (*service.Registry, *telemetry.Tracer) {
	t.Helper()
	s := NewServer(reg, false)
	s.Tracer = telemetry.NewTracer(telemetry.DefaultSpanCapacity)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL}
	remoteReg, err := c.RegistryFor()
	if err != nil {
		t.Fatal(err)
	}
	return remoteReg, s.Tracer
}

// TestTracePropagationOverHTTP: with a trace ID set on the engine
// tracer, the provider's spans come back in the response envelope and
// nest under the client's invoke spans, carrying the client's trace ID
// end to end; the server grafts the same subtree into its own ring.
func TestTracePropagationOverHTTP(t *testing.T) {
	reg, doc, q := traceWorld(4)
	remoteReg, serverTracer := tracedServer(t, reg)

	tracer := telemetry.NewTracer(telemetry.DefaultSpanCapacity)
	traceID := telemetry.DeriveTraceID("/root/item", "trace_test")
	tracer.SetTrace(traceID)
	out, err := core.Evaluate(doc, q, remoteReg, core.Options{
		Strategy: core.LazyNFQ, Tracer: tracer,
		Clock: service.NewWallClock(false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(out.Results))
	}

	spans := tracer.Spans(0)
	byID := map[telemetry.SpanID]telemetry.Span{}
	invokes, https, services := 0, 0, 0
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		switch s.Name {
		case "invoke":
			invokes++
		case "http-invoke":
			https++
			if p, ok := byID[s.Parent]; !ok || p.Name != "invoke" {
				t.Fatalf("http-invoke not nested under an invoke span: %+v", s)
			}
			if s.Trace != traceID {
				t.Fatalf("remote span trace = %q, want %q", s.Trace, traceID)
			}
		case "service":
			services++
			if p, ok := byID[s.Parent]; !ok || p.Name != "http-invoke" {
				t.Fatalf("service span not nested under http-invoke: %+v", s)
			}
		}
	}
	if invokes != 4 || https != 4 || services != 4 {
		t.Fatalf("spans: %d invoke, %d http-invoke, %d service (want 4 each)", invokes, https, services)
	}

	// The provider kept its own copy of the request trace.
	serverSide := 0
	for _, s := range serverTracer.Spans(0) {
		if s.Trace != traceID {
			t.Fatalf("server-side span trace = %q, want %q", s.Trace, traceID)
		}
		if s.Name == "http-invoke" {
			serverSide++
		}
	}
	if serverSide != 4 {
		t.Fatalf("server ring kept %d http-invoke spans, want 4", serverSide)
	}
}

// TestNoTraceNoRemoteSpans: without a trace ID the envelope stays
// legacy-shaped and no remote spans come back.
func TestNoTraceNoRemoteSpans(t *testing.T) {
	reg, doc, q := traceWorld(2)
	remoteReg, _ := tracedServer(t, reg)
	tracer := telemetry.NewTracer(telemetry.DefaultSpanCapacity)
	_, err := core.Evaluate(doc, q, remoteReg, core.Options{
		Strategy: core.LazyNFQ, Tracer: tracer,
		Clock: service.NewWallClock(false),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tracer.Spans(0) {
		if s.Name == "http-invoke" || s.Name == "service" {
			t.Fatalf("remote span leaked without a trace ID: %+v", s)
		}
		if s.Trace != "" {
			t.Fatalf("span carries a trace ID nobody set: %+v", s)
		}
	}
}

// TestRecursivePushSpansNested: when the provider materialises its own
// intensional results (recursive push), the materialisation is an engine
// run and shows as one: its evaluate span nests under the server's service
// span, its invoke spans — round, service, path — under that, and the
// subtree rides back in the same envelope under the client's invoke span.
func TestRecursivePushSpansNested(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 8
	spec.HiddenHotels = 2
	spec.PushCapable = true
	w := workload.Hotels(spec)
	remoteReg, _ := tracedServer(t, RecursivePush(w.Registry, 100_000, 1))

	tracer := telemetry.NewTracer(telemetry.DefaultSpanCapacity)
	tracer.SetTrace(telemetry.DeriveTraceID("recursive"))
	out, err := core.Evaluate(w.Doc.Clone(), w.Query, remoteReg, core.Options{
		Strategy: core.LazyNFQ, Push: true, Tracer: tracer,
		Clock: service.NewWallClock(false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != w.ExpectedResults {
		t.Fatalf("results = %d, want %d", len(out.Results), w.ExpectedResults)
	}
	byID := map[telemetry.SpanID]telemetry.Span{}
	for _, s := range tracer.Spans(0) {
		byID[s.ID] = s
	}
	// parents lists the names on the way from a span to its root.
	parents := func(s telemetry.Span) (names []string) {
		for p, ok := byID[s.Parent]; ok; p, ok = byID[p.Parent] {
			names = append(names, p.Name)
		}
		return names
	}
	providerInvokes := 0
	for _, s := range byID {
		up := parents(s)
		if s.Name != "invoke" || len(up) < 2 || up[0] != "evaluate" || up[1] != "service" {
			continue
		}
		providerInvokes++
		if want := []string{"evaluate", "service", "http-invoke", "invoke"}; !reflect.DeepEqual(up[:4], want) {
			t.Fatalf("provider-side invoke nests under %v, want %v…", up, want)
		}
		if spantest.Attr(s, "round") == "" || spantest.Attr(s, "service") == "" || spantest.Attr(s, "path") == "" {
			t.Fatalf("provider-side invoke lacks the engine's attrs: %+v", s)
		}
	}
	if providerInvokes == 0 {
		t.Fatal("recursive materialisation emitted no invoke spans under evaluate under service")
	}
}

// TestExplainByteIdenticalOverHTTP is the acceptance check: two
// identical traced runs over an HTTP provider render byte-identical
// explain trees (wall-clock fields normalised, everything else exact —
// span IDs, nesting, virtual costs, attributes).
func TestExplainByteIdenticalOverHTTP(t *testing.T) {
	reg, _, q := traceWorld(6)
	remoteReg, _ := tracedServer(t, reg)
	render := func() string {
		_, doc, _ := traceWorld(6)
		tracer := telemetry.NewTracer(telemetry.DefaultSpanCapacity)
		tracer.SetTrace(telemetry.DeriveTraceID("/root/item", "explain"))
		// A SimClock keeps even the virtual accounting deterministic: a
		// WallClock would fold real scheduling time into the layer and
		// evaluate spans' virtual totals.
		_, err := core.Evaluate(doc, q, remoteReg, core.Options{
			Strategy: core.LazyNFQ, Parallel: true, InvokeWorkers: 3,
			Tracer: tracer, Clock: &service.SimClock{},
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		telemetry.WriteTree(&buf, spantest.Normalize(tracer.Spans(0), false))
		return buf.String()
	}
	first := render()
	second := render()
	if first != second {
		t.Fatalf("explain trees differ across identical runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
	if !bytes.Contains([]byte(first), []byte("http-invoke")) {
		t.Fatalf("explain tree misses remote spans:\n%s", first)
	}
}

// traceShape is the width-independent shape of one span: wall-clock and
// worker identity stripped, structure and accounting kept.
type traceShape struct {
	name    string
	parent  string // parent span name ("" for roots)
	trace   string
	virtual time.Duration
	service string
	status  string
	attempt string
}

func shapes(spans []telemetry.Span) []traceShape {
	byID := map[telemetry.SpanID]telemetry.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	out := make([]traceShape, 0, len(spans))
	for _, s := range spans {
		sh := traceShape{
			name: s.Name, trace: s.Trace, virtual: s.Virtual,
			service: spantest.Attr(s, "service"), status: spantest.Attr(s, "status"), attempt: spantest.Attr(s, "attempt"),
		}
		if p, ok := byID[s.Parent]; ok {
			sh.parent = p.Name
		}
		out = append(out, sh)
	}
	return out
}

// TestTracePropagationUnderFaultsRetries: a retried call gets one
// attempt child span per attempt (failed attempts classed, the last
// "ok"), the surviving attempt's remote subtree still grafts under the
// invoke span with the propagated trace ID, and the whole span stream
// is identical across invocation-pool widths (worker assignment aside)
// and across repeated runs at the same width.
func TestTracePropagationUnderFaultsRetries(t *testing.T) {
	const nServices = 6
	reg, _, q := traceWorld(nServices)
	remoteReg, _ := tracedServer(t, reg)
	traceID := telemetry.DeriveTraceID("/root/item", "faults")

	run := func(width int) []telemetry.Span {
		// Fresh injector per run: each service fails its first two
		// invocations, and each service is called exactly once, so every
		// call runs exactly three attempts at every pool width.
		flaky := service.NewFaults(service.FaultSpec{Seed: 7, FailFirst: 2}).Wrap(remoteReg)
		_, doc, _ := traceWorld(nServices)
		tracer := telemetry.NewTracer(telemetry.DefaultSpanCapacity)
		tracer.SetTrace(traceID)
		_, err := core.Evaluate(doc, q, flaky, core.Options{
			Strategy: core.LazyNFQ, Parallel: true, InvokeWorkers: width,
			Tracer: tracer,
			Retry:  core.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond},
			Clock:  &service.SimClock{},
		})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return tracer.Spans(0)
	}

	ref := run(1)
	byID := map[telemetry.SpanID]telemetry.Span{}
	for _, s := range ref {
		byID[s.ID] = s
	}
	attemptsPerInvoke := map[telemetry.SpanID][]telemetry.Span{}
	invokes := 0
	for _, s := range ref {
		switch s.Name {
		case "invoke":
			invokes++
			if spantest.Attr(s, "attempts") != "3" {
				t.Fatalf("invoke span attempts = %q, want 3: %+v", spantest.Attr(s, "attempts"), s)
			}
		case "attempt":
			attemptsPerInvoke[s.Parent] = append(attemptsPerInvoke[s.Parent], s)
		case "http-invoke":
			if p := byID[s.Parent]; p.Name != "invoke" {
				t.Fatalf("remote subtree detached from invoke: %+v", s)
			}
			if s.Trace != traceID {
				t.Fatalf("remote trace = %q, want %q", s.Trace, traceID)
			}
		}
	}
	if invokes != nServices {
		t.Fatalf("invoke spans = %d, want %d", invokes, nServices)
	}
	if len(attemptsPerInvoke) != nServices {
		t.Fatalf("retried invokes with attempt children = %d, want %d", len(attemptsPerInvoke), nServices)
	}
	for id, atts := range attemptsPerInvoke {
		if len(atts) != 3 {
			t.Fatalf("invoke %d has %d attempt spans, want 3", id, len(atts))
		}
		for i, a := range atts {
			want := "transient"
			if i == 2 {
				want = "ok"
			}
			if spantest.Attr(a, "attempt") != fmt.Sprint(i+1) || spantest.Attr(a, "status") != want {
				t.Fatalf("attempt %d: %+v", i, a)
			}
		}
	}

	// Same width → byte-identical stream (wall-clock normalised); other
	// widths → identical shape, worker striping aside.
	if !reflect.DeepEqual(spantest.Normalize(ref, false), spantest.Normalize(run(1), false)) {
		t.Fatal("span streams differ across identical runs")
	}
	refShape := shapes(ref)
	for _, width := range []int{2, 4} {
		if got := shapes(run(width)); !reflect.DeepEqual(got, refShape) {
			t.Fatalf("span shape diverges at width %d", width)
		}
	}
}
