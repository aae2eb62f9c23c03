package telemetry

import (
	"reflect"
	"testing"
	"time"
)

func TestTracerBasics(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("evaluate", 0)
	root.SetAttr("strategy", "lazy-nfq")
	child := tr.Start("detect", root.ID())
	child.SetInt("calls", 3)
	child.AddVirtual(10 * time.Millisecond)
	child.End()
	child.End() // idempotent
	root.End()

	spans := tr.Spans(0)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	// Finish order: the child ended first.
	if spans[0].Name != "detect" || spans[1].Name != "evaluate" {
		t.Fatalf("order: %s, %s", spans[0].Name, spans[1].Name)
	}
	d := spans[0]
	if d.Parent != spans[1].ID || d.Virtual != 10*time.Millisecond {
		t.Fatalf("child span wrong: %+v", d)
	}
	if !reflect.DeepEqual(d.Attrs, []Attr{{Key: "calls", Value: "3"}}) {
		t.Fatalf("attrs wrong: %+v", d.Attrs)
	}
}

func TestNilTracerSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x", 0)
	s.SetAttr("k", "v")
	s.SetInt("n", 1)
	s.AddVirtual(time.Second)
	s.End()
	if s != nil {
		t.Fatal("nil tracer must return a nil active span")
	}
	if tr.Emit(Span{Name: "y"}) != 0 {
		t.Fatal("nil tracer Emit must return 0")
	}
	tr.SetSink(func(Span) {})
	if tr.Spans(0) != nil {
		t.Fatal("nil tracer must be empty")
	}
}

// TestRingBuffer: the tracer retains only the most recent capacity spans
// and counts the ones it drops.
func TestRingBuffer(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Span{Name: "s", Start: time.Now()})
	}
	if tr.dropped != 6 {
		t.Fatalf("dropped = %d, want 6", tr.dropped)
	}
	spans := tr.Spans(0)
	if len(spans) != 4 {
		t.Fatalf("retained = %d, want 4", len(spans))
	}
	// Oldest-first: the retained IDs are the last four assigned.
	for i := 1; i < len(spans); i++ {
		if spans[i].ID != spans[i-1].ID+1 {
			t.Fatalf("retained spans out of order: %v", spans)
		}
	}
	if spans[len(spans)-1].ID != 10 {
		t.Fatalf("newest retained = %d, want 10", spans[len(spans)-1].ID)
	}
	if got := tr.Spans(2); len(got) != 2 || got[1].ID != 10 {
		t.Fatalf("Spans(2) = %v", got)
	}
}
