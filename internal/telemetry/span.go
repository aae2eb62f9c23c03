package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within a Tracer. IDs are assigned in start
// order and never reused; 0 means "no span" (the root has Parent 0).
type SpanID uint64

// Attr is one key/value annotation on a span. Attributes are stored as
// an ordered slice — emission order is meaningful for rendering — and
// serialised as a JSON object.
type Attr struct {
	Key   string
	Value string
}

// Span is one finished node of an evaluation's trace tree. The engine
// emits evaluate → layer → round → detect/invoke hierarchies; the soap
// transport emits request/handler spans.
type Span struct {
	// ID is the span's identity within its tracer.
	ID SpanID
	// Parent is the enclosing span, or 0 for roots.
	Parent SpanID
	// Name is the span kind, e.g. "evaluate", "layer", "detect",
	// "invoke".
	Name string
	// Shard identifies the relevance query a detect span evaluated: the
	// member query's slot in the current influence layer; 0 otherwise.
	Shard int
	// Worker identifies which invocation-pool worker ran the span when
	// the engine invokes a batch on a bounded pool
	// (Options.InvokeWorkers); 0 otherwise. The member→worker assignment
	// is deterministic (batch member i runs on worker i mod pool width),
	// so traces compare stably across runs.
	Worker int
	// Start is the wall-clock start time.
	Start time.Time
	// Wall is the measured wall-clock duration.
	Wall time.Duration
	// Virtual is the simulated (virtual-clock) duration charged during
	// the span, when the instrumented operation charges one.
	Virtual time.Duration
	// Trace is the distributed trace the span belongs to (a 32-hex-digit
	// ID, empty when tracing is process-local). Spans grafted from a
	// remote process keep their trace ID, which is how a stitched tree
	// proves every side ran under the same trace.
	Trace string
	// Attrs annotate the span (service names, call counts, errors…).
	Attrs []Attr
}

// Attr returns the value of the named attribute, or "".
func (s Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// DefaultSpanCapacity bounds the tracer ring buffer when NewTracer is
// given a non-positive capacity.
const DefaultSpanCapacity = 4096

// Tracer collects finished spans into a bounded in-memory ring buffer
// and optionally streams them to a JSONL sink. It is safe for
// concurrent use: concurrent evaluations and the soap transport emit
// through the same tracer. A nil *Tracer is a valid no-op: Start
// returns a nil *ActiveSpan whose methods do nothing, so disabled
// tracing costs one pointer test per instrumentation point.
type Tracer struct {
	nextID atomic.Uint64

	mu      sync.Mutex
	ring    []Span
	ringCap int // retention bound; the ring grows lazily up to it
	next    int // next write position once the ring is full
	count   int // total spans ever recorded
	sink    func(Span)
	trace   string // trace ID stamped on spans emitted without one
	dropped uint64 // spans overwritten after the ring wrapped

	dropWarn sync.Once
	dropCtr  *Counter
}

// NewTracer returns a tracer retaining the last capacity finished spans
// (DefaultSpanCapacity when capacity ≤ 0). The ring grows lazily up to
// the capacity, so short-lived tracers — the soap server allocates one
// per traced request — cost what they record, not what they could.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Tracer{ringCap: capacity}
}

// SetSink streams every subsequently finished span to fn, in finish
// order, under the tracer's lock (fn must be fast and must not call
// back into the tracer). SinkJSONL adapts an io.Writer.
func (t *Tracer) SetSink(fn func(Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}

// SetTrace sets the trace ID stamped on every subsequently emitted span
// that does not already carry one. Callers that need cross-process
// trace stitching derive a deterministic ID (DeriveTraceID) so repeated
// runs stay diffable.
func (t *Tracer) SetTrace(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.trace = id
	t.mu.Unlock()
}

// Trace returns the tracer's trace ID ("" when unset or the tracer is
// nil, i.e. when cross-process propagation is off).
func (t *Tracer) Trace() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trace
}

// InstrumentDrops mirrors the tracer's ring evictions into
// MetricSpansDropped on the registry, so silent span loss is visible on
// /metrics.
func (t *Tracer) InstrumentDrops(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	ctr := reg.Counter(MetricSpansDropped)
	t.mu.Lock()
	t.dropCtr = ctr
	ctr.Add(int64(t.dropped)) // backfill drops that happened before wiring
	t.mu.Unlock()
}

// Dropped returns how many spans the ring has overwritten since the
// tracer was created.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Start opens a span under the given parent (0 for a root). The
// returned ActiveSpan is owned by one goroutine until End.
func (t *Tracer) Start(name string, parent SpanID) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, s: Span{
		ID:     SpanID(t.nextID.Add(1)),
		Parent: parent,
		Name:   name,
		Start:  time.Now(),
	}}
}

// Emit records a pre-built span, assigning an ID when the span carries
// none. It is the low-level entry used by bridges that measure spans
// themselves (e.g. the engine's invocation pool, which measures each
// member's duration on its worker and emits in member order from the
// engine goroutine once the pool has drained).
func (t *Tracer) Emit(s Span) SpanID {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = SpanID(t.nextID.Add(1))
	}
	t.record(s)
	return s.ID
}

// record appends a finished span to the ring and the sink.
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	if s.Trace == "" {
		s.Trace = t.trace
	}
	if len(t.ring) < t.ringCap {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.next = (t.next + 1) % t.ringCap
		t.dropped++
		if t.dropCtr != nil {
			t.dropCtr.Add(1)
		}
		t.dropWarn.Do(func() {
			log.Printf("telemetry: span ring wrapped at capacity %d; oldest spans are being dropped (tracked by %s)",
				t.ringCap, MetricSpansDropped)
		})
	}
	t.count++
	sink := t.sink
	if sink != nil {
		sink(s)
	}
	t.mu.Unlock()
}

// GraftRemote re-emits a remote span subtree under parent: every span
// gets a fresh local ID, parent links internal to the batch are
// remapped, and spans whose parent is absent from the batch are rooted
// at parent. Remote trace IDs and attributes are preserved. Call it
// from a coordinating goroutine in deterministic order (the engine
// grafts in document order) so stitched traces stay diffable.
func (t *Tracer) GraftRemote(parent SpanID, spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	ids := make(map[SpanID]SpanID, len(spans))
	for _, s := range spans {
		if s.ID != 0 {
			ids[s.ID] = SpanID(t.nextID.Add(1))
		}
	}
	for _, s := range spans {
		ns := s
		ns.ID = ids[s.ID]
		if p, ok := ids[s.Parent]; ok && s.Parent != 0 {
			ns.Parent = p
		} else {
			ns.Parent = parent
		}
		t.Emit(ns)
	}
}

// DeriveTraceID maps the given parts to a stable 32-hex-digit trace ID.
// Deterministic inputs (query text, document path) give deterministic
// IDs, which keeps cross-process explain trees bit-identical across
// repeated runs.
func DeriveTraceID(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// Len returns the total number of spans recorded (including ones the
// ring has since dropped).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Spans returns up to the last n retained spans in record order
// (oldest first); n ≤ 0 means every retained span.
func (t *Tracer) Spans(n int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	if len(t.ring) < t.ringCap {
		out = append(out, t.ring...)
	} else {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// ActiveSpan is a span being measured. All methods are nil-safe so
// instrumented code can unconditionally call through a possibly-nil
// tracer.
type ActiveSpan struct {
	t *Tracer
	s Span
}

// ID returns the span's identity (0 for a nil span), for parenting
// children.
func (a *ActiveSpan) ID() SpanID {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// SetAttr annotates the span.
func (a *ActiveSpan) SetAttr(key, value string) {
	if a == nil {
		return
	}
	a.s.Attrs = append(a.s.Attrs, Attr{Key: key, Value: value})
}

// SetInt annotates the span with an integer value.
func (a *ActiveSpan) SetInt(key string, v int64) {
	if a == nil {
		return
	}
	a.SetAttr(key, strconv.FormatInt(v, 10))
}

// SetShard stamps the detection shard identity.
func (a *ActiveSpan) SetShard(shard int) {
	if a == nil {
		return
	}
	a.s.Shard = shard
}

// AddVirtual charges simulated time to the span.
func (a *ActiveSpan) AddVirtual(d time.Duration) {
	if a == nil {
		return
	}
	a.s.Virtual += d
}

// End measures the wall duration and records the span. It must be
// called exactly once; further calls are ignored.
func (a *ActiveSpan) End() {
	if a == nil || a.t == nil {
		return
	}
	a.s.Wall = time.Since(a.s.Start)
	a.t.record(a.s)
	a.t = nil
}
