package telemetry

import (
	"reflect"
	"strings"
	"testing"
)

func TestDeriveTraceID(t *testing.T) {
	a := DeriveTraceID("/site//hotel", "doc.axml")
	if len(a) != 32 || strings.ToLower(a) != a {
		t.Fatalf("not 32 lowercase hex chars: %q", a)
	}
	if a != DeriveTraceID("/site//hotel", "doc.axml") {
		t.Fatal("same inputs must derive the same ID")
	}
	if a == DeriveTraceID("/site//hotel", "other.axml") {
		t.Fatal("different inputs must derive different IDs")
	}
	// The separator must keep part boundaries significant.
	if DeriveTraceID("ab", "c") == DeriveTraceID("a", "bc") {
		t.Fatal("part boundaries must be part of the derivation")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	if _, ok := TraceFrom(nil); ok {
		t.Fatal("nil context must carry no trace")
	}
	tc := TraceContext{TraceID: DeriveTraceID("q"), Parent: 7, MaxSpans: 64}
	got, ok := TraceFrom(WithTrace(nil, tc))
	if !ok || got.TraceID != tc.TraceID || got.Parent != 7 || got.MaxSpans != 64 {
		t.Fatalf("round trip: %+v ok=%t", got, ok)
	}
	if _, ok := TraceFrom(WithTrace(nil, TraceContext{})); ok {
		t.Fatal("empty trace ID must read as no trace")
	}
}

func TestTracerStampsTraceID(t *testing.T) {
	tr := NewTracer(4)
	tr.SetTrace("deadbeefdeadbeefdeadbeefdeadbeef")
	tr.Emit(Span{Name: "a"})
	tr.Emit(Span{Name: "b", Trace: "otherotherotherotherotherothero1"})
	spans := tr.Spans(0)
	if spans[0].Trace != "deadbeefdeadbeefdeadbeefdeadbeef" {
		t.Fatalf("span not stamped: %+v", spans[0])
	}
	if spans[1].Trace != "otherotherotherotherotherothero1" {
		t.Fatal("an explicit trace ID (a grafted remote span) must be preserved")
	}
	var nilTr *Tracer
	nilTr.SetTrace("x")
	if nilTr.Trace() != "" {
		t.Fatal("nil tracer trace must be empty")
	}
}

// TestGraftRemote: grafted spans get fresh local IDs with their internal
// parent edges remapped; spans whose parent is unknown (or the remote
// root, parent 0) attach under the given local parent.
func TestGraftRemote(t *testing.T) {
	remoteTr := NewTracer(8)
	remoteTr.SetTrace("feedfacefeedfacefeedfacefeedface")
	root := remoteTr.Start("http-invoke", 0)
	child := remoteTr.Start("service", root.ID())
	grand := remoteTr.Start("evaluate", child.ID())
	grand.End()
	child.End()
	root.End()
	remote := remoteTr.Spans(0)

	local := NewTracer(8)
	inv := local.Emit(Span{Name: "invoke"})
	local.GraftRemote(inv, remote)
	spans := local.Spans(0)
	if len(spans) != 4 {
		t.Fatalf("want invoke + 3 grafted, got %d", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["http-invoke"].Parent != inv {
		t.Fatalf("remote root must hang under the invoke span: %+v", byName["http-invoke"])
	}
	if byName["service"].Parent != byName["http-invoke"].ID {
		t.Fatal("internal parent edge lost")
	}
	if byName["evaluate"].Parent != byName["service"].ID {
		t.Fatal("nested parent edge lost")
	}
	for _, name := range []string{"http-invoke", "service", "evaluate"} {
		if byName[name].Trace != "feedfacefeedfacefeedfacefeedface" {
			t.Fatalf("grafted span lost its trace ID: %+v", byName[name])
		}
		if byName[name].ID == 0 || byName[name].ID == inv {
			t.Fatalf("grafted span must get a fresh local ID: %+v", byName[name])
		}
	}
	// Idempotent no-ops.
	local.GraftRemote(inv, nil)
	var nilTr *Tracer
	nilTr.GraftRemote(0, remote)
}

// TestRingDropAccounting: wrapping the ring counts dropped spans on
// axml_spans_dropped_total and warns exactly once.
func TestRingDropAccounting(t *testing.T) {
	tr := NewTracer(4)
	reg := NewRegistry()
	tr.InstrumentDrops(reg)
	for i := 0; i < 10; i++ {
		tr.Emit(Span{Name: "s"})
	}
	if tr.dropped != 6 {
		t.Fatalf("dropped = %d, want 6", tr.dropped)
	}
	if got := reg.Snapshot().Counters[MetricSpansDropped]; got != 6 {
		t.Fatalf("%s = %d, want 6", MetricSpansDropped, got)
	}
}

// TestInstrumentDropsBackfill: wiring the counter after drops already
// happened accounts for them.
func TestInstrumentDropsBackfill(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.Emit(Span{Name: "s"})
	}
	reg := NewRegistry()
	tr.InstrumentDrops(reg)
	if got := reg.Snapshot().Counters[MetricSpansDropped]; got != 3 {
		t.Fatalf("backfill = %d, want 3", got)
	}
	tr.Emit(Span{Name: "s"})
	if got := reg.Snapshot().Counters[MetricSpansDropped]; got != 4 {
		t.Fatalf("after wire = %d, want 4", got)
	}
}

func TestUnmarshalSpansJSON(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("http-invoke", 0)
	root.SetAttr("service", "getRating")
	root.End()
	data, err := MarshalSpansJSON(tr.Spans(0))
	if err != nil {
		t.Fatal(err)
	}
	spans, err := UnmarshalSpansJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "http-invoke" || !reflect.DeepEqual(spans[0].Attrs, []Attr{{Key: "service", Value: "getRating"}}) {
		t.Fatalf("round trip: %+v", spans)
	}
	if _, err := UnmarshalSpansJSON([]byte("{")); err == nil {
		t.Fatal("bad payload accepted")
	}
}
