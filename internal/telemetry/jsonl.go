package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// jsonSpan is the JSONL wire form of a Span. Durations travel as
// microseconds, attributes as an object (their emission order is not
// preserved across a round trip; decoding restores them sorted by key).
type jsonSpan struct {
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Shard  int               `json:"shard,omitempty"`
	Worker int               `json:"worker,omitempty"`
	Start  *time.Time        `json:"start,omitempty"`
	WallUS int64             `json:"wall_us"`
	VirtUS int64             `json:"virt_us,omitempty"`
	Trace  string            `json:"trace,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func toJSONSpan(s Span) jsonSpan {
	js := jsonSpan{
		ID:     uint64(s.ID),
		Parent: uint64(s.Parent),
		Name:   s.Name,
		Shard:  s.Shard,
		Worker: s.Worker,
		WallUS: s.Wall.Microseconds(),
		VirtUS: s.Virtual.Microseconds(),
		Trace:  s.Trace,
	}
	if !s.Start.IsZero() {
		start := s.Start
		js.Start = &start
	}
	if len(s.Attrs) > 0 {
		js.Attrs = make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			js.Attrs[a.Key] = a.Value
		}
	}
	return js
}

func fromJSONSpan(js jsonSpan) Span {
	s := Span{
		ID:      SpanID(js.ID),
		Parent:  SpanID(js.Parent),
		Name:    js.Name,
		Shard:   js.Shard,
		Worker:  js.Worker,
		Wall:    time.Duration(js.WallUS) * time.Microsecond,
		Virtual: time.Duration(js.VirtUS) * time.Microsecond,
		Trace:   js.Trace,
	}
	if js.Start != nil {
		s.Start = *js.Start
	}
	if len(js.Attrs) > 0 {
		keys := make([]string, 0, len(js.Attrs))
		for k := range js.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s.Attrs = make([]Attr, 0, len(keys))
		for _, k := range keys {
			s.Attrs = append(s.Attrs, Attr{Key: k, Value: js.Attrs[k]})
		}
	}
	return s
}

// SinkJSONL adapts an io.Writer into a tracer sink that streams each
// finished span as one JSON line. Write errors are dropped — a failing
// trace sink must never fail the evaluation it observes.
func SinkJSONL(w io.Writer) func(Span) {
	enc := json.NewEncoder(w)
	return func(s Span) {
		_ = enc.Encode(toJSONSpan(s))
	}
}

// MarshalSpansJSON renders spans as a single JSON array (the
// /debug/trace response body).
func MarshalSpansJSON(spans []Span) ([]byte, error) {
	out := make([]jsonSpan, len(spans))
	for i, s := range spans {
		out[i] = toJSONSpan(s)
	}
	return json.MarshalIndent(out, "", "  ")
}

// MarshalSpansJSONCompact is MarshalSpansJSON without indentation — the
// wire form. The soap response envelope carries a span subtree on every
// traced invocation, where the indented form's whitespace would be XML-
// escaped, shipped, and unescaped per call for nobody to read.
func MarshalSpansJSONCompact(spans []Span) ([]byte, error) {
	out := make([]jsonSpan, len(spans))
	for i, s := range spans {
		out[i] = toJSONSpan(s)
	}
	return json.Marshal(out)
}

// UnmarshalSpansJSON parses a JSON span array produced by
// MarshalSpansJSON (the soap response envelope carries remote span
// subtrees in this form).
func UnmarshalSpansJSON(data []byte) ([]Span, error) {
	var in []jsonSpan
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("telemetry: bad span array: %w", err)
	}
	out := make([]Span, len(in))
	for i, js := range in {
		out[i] = fromJSONSpan(js)
	}
	return out, nil
}
