package telemetry

import "context"

// TraceContext is the cross-process trace state threaded through
// invocation paths via context.Context. The soap client injects it into
// the request envelope (W3C-traceparent style: trace ID + parent span);
// the soap server reconstructs it, continues the trace in a per-request
// tracer, and hands that tracer back through the context so nested
// work (recursive-push materialisation, chained providers) emits into
// the same trace.
type TraceContext struct {
	// TraceID is the distributed trace identity (32 hex digits,
	// DeriveTraceID). Empty means propagation is off.
	TraceID string
	// Parent is the span the next remote call should nest under.
	Parent SpanID
	// MaxSpans bounds how many remote spans the callee may return in the
	// response envelope; 0 opts out of span return (the trace still
	// propagates and the server still records it locally).
	MaxSpans int
	// Tracer, when non-nil, is the tracer nested in-process work should
	// emit into (the soap server's per-request tracer). It is nil on the
	// client side, where the engine owns the tracer.
	Tracer *Tracer
}

// MaxRemoteSpans is the span budget a traced run asks each provider for,
// and the cap a soap server puts on what any request asks for: remote
// span return is a debugging aid, and its payload cost must stay
// bounded.
const MaxRemoteSpans = 512

type traceCtxKey struct{}

// WithTrace attaches the trace context to ctx (nil means Background).
func WithTrace(ctx context.Context, tc TraceContext) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFrom extracts the trace context from ctx; ok reports whether one
// with a non-empty trace ID is present.
func TraceFrom(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok && tc.TraceID != ""
}
