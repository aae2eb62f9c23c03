package telemetry_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/telemetry/spantest"
)

// TestJSONLRoundTrip emits a realistic span tree, streams it through the
// JSONL sink, parses it back, and requires the reconstructed tree to be
// identical (attribute order is canonicalised to sorted-by-key on both
// sides of the comparison).
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewTracer(16)
	tr.SetSink(telemetry.SinkJSONL(&buf))

	eval := tr.Start("evaluate", 0)
	eval.SetAttr("strategy", "lazy-nfq")
	layer := tr.Start("layer", eval.ID())
	layer.SetInt("layer", 0)
	tr.Emit(telemetry.Span{
		Parent:  layer.ID(),
		Name:    "detect",
		Shard:   1,
		Start:   time.Now(),
		Wall:    42 * time.Microsecond,
		Virtual: time.Millisecond,
		Attrs:   []telemetry.Attr{{Key: "calls", Value: "2"}, {Key: "round", Value: "1"}},
	})
	tr.Emit(telemetry.Span{
		Parent:  layer.ID(),
		Name:    "invoke",
		Worker:  2,
		Start:   time.Now(),
		Wall:    100 * time.Microsecond,
		Virtual: 2 * time.Millisecond,
		Attrs:   []telemetry.Attr{{Key: "service", Value: "getRating"}},
	})
	layer.End()
	eval.AddVirtual(5 * time.Millisecond)
	eval.End()

	emitted := tr.Spans(0)
	decoded, err := spantest.DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(emitted) {
		t.Fatalf("decoded %d spans, want %d", len(decoded), len(emitted))
	}

	canon := func(spans []telemetry.Span) []telemetry.Span {
		out := make([]telemetry.Span, len(spans))
		for i, s := range spans {
			// JSON truncates to microseconds and canonicalises attribute
			// order; apply the same to the emitted side.
			s.Start = s.Start.Truncate(time.Microsecond)
			s.Wall = s.Wall.Truncate(time.Microsecond)
			attrs := append([]telemetry.Attr(nil), s.Attrs...)
			for j := 1; j < len(attrs); j++ {
				for k := j; k > 0 && attrs[k].Key < attrs[k-1].Key; k-- {
					attrs[k], attrs[k-1] = attrs[k-1], attrs[k]
				}
			}
			s.Attrs = attrs
			out[i] = s
		}
		return out
	}
	want, got := canon(emitted), canon(decoded)
	for i := range want {
		if !want[i].Start.Equal(got[i].Start) {
			t.Fatalf("span %d start drifted: %v vs %v", i, want[i].Start, got[i].Start)
		}
		want[i].Start, got[i].Start = time.Time{}, time.Time{}
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("span %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	// The reconstructed tree has the same shape.
	wantTree := treeShape(telemetry.BuildTree(emitted))
	gotTree := treeShape(telemetry.BuildTree(decoded))
	if wantTree != gotTree {
		t.Fatalf("tree shape changed:\n got %s\nwant %s", gotTree, wantTree)
	}
	if !strings.Contains(wantTree, "evaluate(layer(detect,invoke))") {
		t.Fatalf("unexpected tree shape %s", wantTree)
	}
}

// treeShape renders a span tree as name(child,child) text.
func treeShape(roots []*telemetry.SpanNode) string {
	var sb strings.Builder
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		sb.WriteString(n.Name)
		if len(n.Children) > 0 {
			sb.WriteString("(")
			for i, c := range n.Children {
				if i > 0 {
					sb.WriteString(",")
				}
				walk(c)
			}
			sb.WriteString(")")
		}
	}
	for i, r := range roots {
		if i > 0 {
			sb.WriteString(";")
		}
		walk(r)
	}
	return sb.String()
}

func TestDecodeJSONLBadInput(t *testing.T) {
	if _, err := spantest.DecodeJSONL(strings.NewReader("{nope}\n")); err == nil {
		t.Fatal("bad JSONL accepted")
	}
	spans, err := spantest.DecodeJSONL(strings.NewReader(""))
	if err != nil || len(spans) != 0 {
		t.Fatalf("empty input: %v, %v", spans, err)
	}
}

// TestDecodeJSONLTornTail: a torn final line (the crash shape for a
// streamed sink) yields the decoded prefix plus a typed error naming
// the bad record.
func TestDecodeJSONLTornTail(t *testing.T) {
	var sb strings.Builder
	tr := telemetry.NewTracer(8)
	tr.SetSink(telemetry.SinkJSONL(&sb))
	tr.Emit(telemetry.Span{Name: "a", Wall: time.Millisecond})
	tr.Emit(telemetry.Span{Name: "b"})
	whole := sb.String()
	torn := whole[:len(whole)-7] // cut mid-way through the final record

	spans, err := spantest.DecodeJSONL(strings.NewReader(torn))
	if err == nil {
		t.Fatal("torn tail must error")
	}
	var ce *spantest.CorruptTraceError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptTraceError, got %T: %v", err, err)
	}
	if ce.Record != 2 {
		t.Fatalf("bad record index %d, want 2", ce.Record)
	}
	if len(spans) != 1 || spans[0].Name != "a" {
		t.Fatalf("intact prefix must be returned: %+v", spans)
	}
	if !strings.Contains(err.Error(), "record 2") {
		t.Fatalf("error must name the record: %v", err)
	}
}
