package soap

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// wireSafe reports whether xml.EscapeText carries s as it is: the
// encoder writes U+FFFD for invalid UTF-8 and for characters XML has no
// way to hold, and those cannot round-trip.
func wireSafe(s string) bool {
	var sb strings.Builder
	xml.EscapeText(&sb, []byte(s))
	return !strings.ContainsRune(sb.String(), utf8.RuneError)
}

func marshalForest(t *testing.T, forest []*tree.Node) string {
	t.Helper()
	var sb strings.Builder
	for _, n := range forest {
		b, err := tree.Marshal(n)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		sb.Write(b)
	}
	return sb.String()
}

// FuzzDecodeInvoke feeds the provider's request decoder — the first code
// a network peer's bytes reach — arbitrary envelopes (it may reject them,
// never panic), and checks that whatever EncodeInvokeTrace can be asked
// to send comes back from decodeInvoke as it went in: service, pushed
// query, parameter forest and trace context.
func FuzzDecodeInvoke(f *testing.F) {
	// The envelopes soap_test.go and trace_test.go build or post.
	plain, _ := EncodeInvoke("getRating", nil, nil)
	escaped, _ := EncodeInvoke("svc", []*tree.Node{tree.NewText("p&q")}, pattern.MustParse(`/r[a="<&>"]`))
	traced, _ := EncodeInvokeTrace("getNearbyRestos", []*tree.Node{tree.NewText("addr-7")}, nil,
		telemetry.TraceContext{TraceID: telemetry.DeriveTraceID("q", "d"), Parent: 7, MaxSpans: 256})
	f.Add(plain, "getRating", "", "", uint64(0), 0)
	f.Add(escaped, "svc", `/r[a="<&>"]`, "", uint64(0), 0)
	f.Add(traced, "getNearbyRestos", `/restaurant[name=$X] -> $X`, telemetry.DeriveTraceID("q", "d"), uint64(7), 256)
	f.Add([]byte(`<invoke service="getRating" query="[[["><params/></invoke>`), "getRating", "[[[", "t", uint64(1), -1)
	f.Add([]byte("<nonsense"), "", "", "", uint64(0), 0)
	f.Add([]byte(`<a><axml:call service="s">x</axml:call></a><b/>`), "a\tb", "//x", "00ff", ^uint64(0), 1)

	f.Fuzz(func(t *testing.T, body []byte, svc, query, trace string, span uint64, budget int) {
		decodeInvoke(body, svc)

		if !wireSafe(svc) || !wireSafe(trace) {
			return
		}
		// The fuzzed bytes double as the parameter forest, the fuzzed
		// query text as the pushed query, when they parse.
		params, err := tree.UnmarshalForest(body)
		if err != nil {
			params = nil
		}
		pushed, err := pattern.ParseExact(query)
		if err != nil {
			pushed = nil
		}
		tc := telemetry.TraceContext{TraceID: trace, Parent: telemetry.SpanID(span), MaxSpans: budget}
		env, err := EncodeInvokeTrace(svc, params, pushed, tc)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		gotParams, gotPushed, gotTC, err := decodeInvoke(env, svc)
		if err != nil {
			t.Fatalf("own envelope rejected: %v\n%s", err, env)
		}
		if svc != "" {
			if _, _, _, err := decodeInvoke(env, svc+"'"); err == nil {
				t.Fatalf("service %q did not travel: another endpoint accepted\n%s", svc, env)
			}
		}
		if (pushed == nil) != (gotPushed == nil) || (pushed != nil && pushed.String() != gotPushed.String()) {
			t.Fatalf("pushed query %v came back as %v\n%s", pushed, gotPushed, env)
		}
		if want, got := marshalForest(t, params), marshalForest(t, gotParams); want != got {
			t.Fatalf("params\n sent %q\n got  %q", want, got)
		}
		// Parent and budget ride on the trace ID; a non-positive budget
		// is "no spans back".
		want := telemetry.TraceContext{}
		if trace != "" {
			want = telemetry.TraceContext{TraceID: trace, Parent: telemetry.SpanID(span), MaxSpans: max(budget, 0)}
		}
		if gotTC != want {
			t.Fatalf("trace context %+v came back as %+v\n%s", want, gotTC, env)
		}
	})
}

// FuzzSplitTrailingTrace feeds the client's response pre-pass arbitrary
// payloads: it never panics, never writes into its input, hands the
// payload back byte-identical whenever it found no spans, and otherwise
// cut exactly one trailing trace element. The character-data escaping the
// span subtree travels in is its own inverse on any bytes.
func FuzzSplitTrailingTrace(f *testing.F) {
	spans, _ := telemetry.MarshalSpansJSONCompact([]telemetry.Span{
		{ID: 2, Parent: 1, Name: "http-invoke", Wall: time.Millisecond,
			Attrs: []telemetry.Attr{{Key: "service", Value: "a<b>&c"}}},
		{ID: 1, Name: "handler", Trace: "other"},
	})
	var sb strings.Builder
	sb.WriteString(`<response pushed="false"><restaurant><name>R&amp;B</name></restaurant><` + traceElem + `>`)
	escapeCharData(&sb, spans)
	sb.WriteString(`</` + traceElem + `></response>`)
	f.Add([]byte(sb.String()), "trace-1")
	f.Add([]byte(`<response pushed="false"><blob>y</blob></response>`), "")
	f.Add([]byte(`<response pushed="true"><`+traceElem+`>[]</`+traceElem+`></response>`), "t")
	f.Add([]byte(`<response><`+traceElem+`>not json</`+traceElem+`></response>`), "t")
	f.Add([]byte(`</`+traceElem+`></response>`), "t")
	f.Add([]byte(`&amp;&lt;&gt;&amp;amp;&`), "")
	f.Add([]byte("<other/>"), "")

	f.Fuzz(func(t *testing.T, payload []byte, traceID string) {
		in := bytes.Clone(payload)
		out, got := splitTrailingTrace(payload, traceID)
		if !bytes.Equal(payload, in) {
			t.Fatalf("input modified:\n before %q\n after  %q", in, payload)
		}
		if len(got) == 0 {
			if !bytes.Equal(out, in) {
				t.Fatalf("no spans, yet the payload changed:\n in  %q\n out %q", in, out)
			}
		} else {
			const open, closing = "<" + traceElem + ">", "</" + traceElem + "></response>"
			head, ok := bytes.CutSuffix(out, []byte("</response>"))
			if !ok || !bytes.HasPrefix(in, head) || !bytes.HasPrefix(in[len(head):], []byte(open)) ||
				!bytes.HasSuffix(in, []byte(closing)) || bytes.Contains(in[len(head)+len(open):len(in)-len(closing)], []byte(open)) {
				t.Fatalf("cut something other than the last trace element:\n in  %q\n out %q", in, out)
			}
			for _, s := range got {
				if s.Trace == "" && traceID != "" {
					t.Fatalf("span %+v not restamped with %q", s, traceID)
				}
			}
		}

		var esc strings.Builder
		escapeCharData(&esc, in)
		if strings.ContainsAny(esc.String(), "<>") {
			t.Fatalf("escaped character data holds markup: %q", esc.String())
		}
		if back := unescapeCharData([]byte(esc.String())); !bytes.Equal(back, in) {
			t.Fatalf("escape round trip:\n in   %q\n esc  %q\n back %q", in, esc.String(), back)
		}
	})
}
