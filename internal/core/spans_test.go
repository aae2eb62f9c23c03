package core

import (
	"testing"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// tracedEvaluate runs Evaluate under a fresh tracer and returns the
// outcome together with the run's complete span stream, in record order.
// Tests compare streams through spantest.Normalize.
func tracedEvaluate(t *testing.T, doc *tree.Document, q *pattern.Pattern, reg *service.Registry, opt Options) (*Outcome, []telemetry.Span, error) {
	t.Helper()
	const ring = 1 << 16
	tr := telemetry.NewTracer(ring)
	opt.Tracer = tr
	out, err := Evaluate(doc, q, reg, opt)
	spans := tr.Spans(0)
	if len(spans) == ring {
		t.Fatal("span ring full: the stream may be incomplete")
	}
	return out, spans, err
}

// spansNamed filters a stream down to the spans of one kind.
func spansNamed(spans []telemetry.Span, name string) []telemetry.Span {
	var out []telemetry.Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
