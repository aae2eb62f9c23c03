// Package soap exposes a service registry over HTTP with a small XML
// envelope, in the spirit of the Web-services standards the ActiveXML
// system builds on (Section 8 of "Lazy Query Evaluation for Active XML",
// SIGMOD 2004). It provides both sides of the wire:
//
//   - Server wraps a service.Registry into an http.Handler: one endpoint
//     per service, a descriptor document listing the available services
//     (a WSDL-lite), and optional simulated latency.
//   - Client invokes remote services; Proxy packages a remote endpoint as
//     a service.Service so the evaluation engine uses HTTP providers
//     exactly like local ones, including server-side query pushing
//     (Section 7): the pushed pattern travels in the envelope and the
//     provider returns binding tuples.
//
// The envelope is deliberately simple XML, not full SOAP 1.1 — the paper's
// techniques do not depend on the envelope details, only on XML transport
// and service descriptors:
//
//	request:  <invoke service="getNearbyRestos" query="...optional..."
//	                  trace="...optional..." span="..." spans="...">
//	             <params> ...parameter forest... </params>
//	          </invoke>
//	response: <response pushed="true|false"> ...result forest...
//	             <axml.trace> ...optional span subtree (JSON)... </axml.trace>
//	          </response>
//	fault:    <fault class="transient|timeout|permanent">message</fault>
//	          (with a non-2xx status code)
//
// Faults carry an error class so clients can map wire failures onto the
// service package's retry classification: the Client turns network
// errors, HTTP timeouts and classed faults into service.Fault values the
// evaluation engine's retry policy understands.
//
// The trace/span/spans attributes are the W3C-traceparent analogue:
// trace is the distributed trace ID, span the caller's parent span, and
// spans an opt-in bound on how many server-side spans the response may
// return in its <axml.trace> child. The server continues the trace in a
// per-request tracer (the engine run of a recursive-push materialisation
// included), grafts
// the request's subtree into its own ring for /debug/trace, and — when
// spans > 0 — ships the subtree back so the client stitches one
// cross-process explain tree.
package soap

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// Server serves a registry over HTTP.
type Server struct {
	reg *service.Registry
	// sleep makes the server physically wait each service's configured
	// latency before answering, so remote experiments feel real costs.
	sleep bool
	// Deadline bounds one invocation's handling (the handler plus the
	// simulated latency sleep); 0 means unbounded. An expired
	// invocation answers 504 with a timeout-classed fault, so remote
	// callers can classify and retry it.
	Deadline time.Duration
	// Metrics, when set, counts invocations (axml_http_requests_total),
	// fault answers (axml_http_faults_total) and handler latency
	// (axml_http_handler_seconds). Nil disables.
	Metrics *telemetry.Registry
	// Tracer, when set, records one "http-invoke" span per invocation
	// with service and status attributes. Nil disables.
	Tracer *telemetry.Tracer
}

// maxPayloadBytes bounds one envelope, symmetrically: the server's
// request bodies and the client's response bodies. An oversized one is
// rejected with an explicit permanent-classed "payload too large" fault
// (413 from the server) rather than truncated into a confusing parse
// error. A variable so the package's tests can lower it.
var maxPayloadBytes int64 = 64 << 20

// serverTraceCapacity bounds the per-request tracer a traced invocation
// records into. It is deliberately small: one invocation's subtree, not
// a process history.
const serverTraceCapacity = 1024

// traceElem is the response child carrying the returned span subtree.
// The dotted name keeps it out of the way of ordinary service result
// labels, and the client only interprets it when it asked for spans.
const traceElem = "axml.trace"

// readLimited reads at most limit bytes from r and reports whether the
// stream held more (it reads one byte past the limit to distinguish
// "exactly limit" from "over").
func readLimited(r io.Reader, limit int64) (data []byte, over bool, err error) {
	data, err = io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, false, err
	}
	if int64(len(data)) > limit {
		return nil, true, nil
	}
	return data, false, nil
}

// NewServer wraps a registry. When sleepLatency is set, each invocation
// blocks for the service's configured latency before responding.
func NewServer(reg *service.Registry, sleepLatency bool) *Server {
	return &Server{reg: reg, sleep: sleepLatency}
}

// ServeHTTP implements http.Handler:
//
//	GET  /services            → descriptor of all services
//	POST /services/<name>     → invoke <name> with an envelope body
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/services":
		s.describe(w)
	case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/services/"):
		s.invoke(w, r, strings.TrimPrefix(r.URL.Path, "/services/"))
	default:
		writeFault(w, http.StatusNotFound, service.Permanent, fmt.Sprintf("no such endpoint %s %s", r.Method, r.URL.Path))
	}
}

// describe writes the WSDL-lite service descriptor.
func (s *Server) describe(w http.ResponseWriter) {
	var sb strings.Builder
	sb.WriteString("<services>")
	for _, name := range s.reg.Names() {
		svc := s.reg.Lookup(name)
		fmt.Fprintf(&sb, `<service name=%q push="%t" latencyMs="%d"/>`,
			name, svc.CanPush, svc.Latency.Milliseconds())
	}
	sb.WriteString("</services>")
	w.Header().Set("Content-Type", "application/xml")
	io.WriteString(w, sb.String())
}

func (s *Server) invoke(w http.ResponseWriter, r *http.Request, name string) {
	start := time.Now()
	s.Metrics.Counter(telemetry.MetricHTTPRequests).Inc()
	status := http.StatusOK
	fail := func(code int, class service.ErrorClass, msg string) {
		status = code
		s.Metrics.Counter(telemetry.MetricHTTPFaults).Inc()
		writeFault(w, code, class, msg)
	}
	// Per-request trace state: created once the envelope reveals a trace
	// ID. finishTrace ends the request's root span exactly once, grafts
	// the subtree into the server's long-lived ring (so /debug/trace
	// shows continued traces) and returns the subtree for the response.
	var (
		rt        *telemetry.Tracer
		root      *telemetry.ActiveSpan
		traceDone bool
	)
	finishTrace := func() []telemetry.Span {
		if rt == nil || traceDone {
			return nil
		}
		traceDone = true
		root.SetAttr("status", strconv.Itoa(status))
		root.End()
		spans := rt.Spans(0)
		s.Tracer.GraftRemote(0, spans)
		return spans
	}
	defer func() {
		s.Metrics.Histogram(telemetry.MetricHTTPHandlerSeconds).Observe(time.Since(start))
		if rt != nil {
			// The traced root span replaces the flat legacy span — fault
			// paths finish it here; the success path already has.
			finishTrace()
			return
		}
		if s.Tracer != nil {
			s.Tracer.Emit(telemetry.Span{
				Name:  "http-invoke",
				Start: start,
				Wall:  time.Since(start),
				Attrs: []telemetry.Attr{
					{Key: "service", Value: name},
					{Key: "status", Value: strconv.Itoa(status)},
				},
			})
		}
	}()
	body, over, err := readLimited(r.Body, maxPayloadBytes)
	if err != nil {
		fail(http.StatusBadRequest, service.Transient, "unreadable body: "+err.Error())
		return
	}
	if over {
		fail(http.StatusRequestEntityTooLarge, service.Permanent,
			fmt.Sprintf("payload too large: request body exceeds %d bytes", maxPayloadBytes))
		return
	}
	params, pushed, tc, err := decodeInvoke(body, name)
	if err != nil {
		fail(http.StatusBadRequest, service.Permanent, err.Error())
		return
	}
	svc := s.reg.Lookup(name)
	if svc == nil {
		fail(http.StatusNotFound, service.Permanent, fmt.Sprintf("unknown service %q", name))
		return
	}
	ctx := r.Context()
	if tc.TraceID != "" {
		tc.MaxSpans = min(tc.MaxSpans, telemetry.MaxRemoteSpans)
		rt = telemetry.NewTracer(serverTraceCapacity)
		rt.SetTrace(tc.TraceID)
		root = rt.Start("http-invoke", 0)
		root.SetAttr("service", name)
	}
	// The handler (and its simulated latency) runs under the server's
	// per-invoke deadline and the client's disconnect. On expiry the
	// goroutine is abandoned — handlers are pure, so its late result is
	// simply dropped (late spans land in the abandoned request tracer,
	// which is dropped with it).
	type invokeResult struct {
		resp service.Response
		err  error
	}
	done := make(chan invokeResult, 1)
	go func() {
		ictx := ctx
		var ss *telemetry.ActiveSpan
		if rt != nil {
			ss = rt.Start("service", root.ID())
			ss.SetAttr("service", name)
			ictx = telemetry.WithTrace(ctx, telemetry.TraceContext{
				TraceID:  tc.TraceID,
				Parent:   ss.ID(),
				MaxSpans: tc.MaxSpans,
				Tracer:   rt,
			})
		}
		resp, err := s.reg.InvokeContext(ictx, name, params, pushed)
		if ss != nil {
			ss.AddVirtual(resp.Latency)
			if resp.Pushed {
				ss.SetAttr("pushed", "true")
			}
			if err != nil {
				ss.SetAttr("error", service.ClassOf(err).String())
			}
			ss.End()
		}
		if err == nil && s.sleep {
			time.Sleep(svc.Latency)
		}
		done <- invokeResult{resp, err}
	}()
	var expired <-chan time.Time
	if s.Deadline > 0 {
		t := time.NewTimer(s.Deadline)
		defer t.Stop()
		expired = t.C
	}
	var res invokeResult
	select {
	case res = <-done:
	case <-expired:
		fail(http.StatusGatewayTimeout, service.Timeout,
			fmt.Sprintf("invocation of %s exceeded the server deadline %v", name, s.Deadline))
		return
	case <-r.Context().Done():
		return
	}
	if res.err != nil {
		fail(http.StatusInternalServerError, service.ClassOf(res.err), res.err.Error())
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<response pushed="%t">`, res.resp.Pushed)
	if err := tree.Encode(&sb, res.resp.Forest, false); err != nil {
		fail(http.StatusInternalServerError, service.Permanent, "marshal: "+err.Error())
		return
	}
	spans := finishTrace()
	if tc.MaxSpans > 0 && len(spans) > 0 {
		if len(spans) > tc.MaxSpans {
			// Keep the earliest spans plus the root (recorded last, since
			// it ends last): truncated middles re-root under the caller's
			// invoke span, which BuildTree already tolerates.
			head := spans[: tc.MaxSpans-1 : tc.MaxSpans-1]
			spans = append(head, spans[len(spans)-1])
		}
		// The caller sent the trace ID; repeating it on every span of
		// the subtree would be dead weight, so it travels only by its
		// absence — the client restamps it on decode. Spans from a
		// different trace (none today) keep theirs. Start timestamps are
		// this host's clock, which the caller cannot compare against its
		// own; dropping them keeps the envelope lean and the stitched
		// trace free of cross-host clock skew. (finishTrace already
		// grafted the full-fidelity subtree into /debug/trace.)
		for i := range spans {
			if spans[i].Trace == tc.TraceID {
				spans[i].Trace = ""
			}
			spans[i].Start = time.Time{}
		}
		if b, err := telemetry.MarshalSpansJSONCompact(spans); err == nil {
			sb.WriteString("<" + traceElem + ">")
			escapeCharData(&sb, b)
			sb.WriteString("</" + traceElem + ">")
		}
	}
	sb.WriteString("</response>")
	w.Header().Set("Content-Type", "application/xml")
	io.WriteString(w, sb.String())
}

// escapeCharData writes b as XML element character data, escaping only
// what character data requires (&, <, >). xml.EscapeText additionally
// escapes quotes — needed for attribute values, but a pure cost here:
// the span subtree is quote-dense JSON shipped on every traced
// invocation, and each &#34; would be five bytes escaped, shipped, and
// decoded back for nothing.
func escapeCharData(sb *strings.Builder, b []byte) {
	last := 0
	for i, c := range b {
		var esc string
		switch c {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		default:
			continue
		}
		sb.Write(b[last:i])
		sb.WriteString(esc)
		last = i + 1
	}
	sb.Write(b[last:])
}

func writeFault(w http.ResponseWriter, code int, class service.ErrorClass, msg string) {
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(code)
	var sb strings.Builder
	if err := xml.EscapeText(&sb, []byte(msg)); err != nil {
		sb.Reset()
		sb.WriteString("internal error")
	}
	fmt.Fprintf(w, `<fault class="%s">%s</fault>`, class, sb.String())
}

// EncodeInvoke builds the request envelope for an invocation.
func EncodeInvoke(serviceName string, params []*tree.Node, pushed *pattern.Pattern) ([]byte, error) {
	return EncodeInvokeTrace(serviceName, params, pushed, telemetry.TraceContext{})
}

// EncodeInvokeTrace builds the request envelope with trace propagation
// attributes: the trace ID, the caller's parent span and the opt-in
// remote span budget travel as attributes of the invoke element. A zero
// TraceContext encodes the plain envelope byte-for-byte.
func EncodeInvokeTrace(serviceName string, params []*tree.Node, pushed *pattern.Pattern, tc telemetry.TraceContext) ([]byte, error) {
	var sb strings.Builder
	sb.WriteString(`<invoke service="`)
	if err := xml.EscapeText(&sb, []byte(serviceName)); err != nil {
		return nil, err
	}
	sb.WriteString(`"`)
	if pushed != nil {
		sb.WriteString(` query="`)
		if err := xml.EscapeText(&sb, []byte(pushed.String())); err != nil {
			return nil, err
		}
		sb.WriteString(`"`)
	}
	if tc.TraceID != "" {
		sb.WriteString(` trace="`)
		if err := xml.EscapeText(&sb, []byte(tc.TraceID)); err != nil {
			return nil, err
		}
		sb.WriteString(`"`)
		if tc.Parent != 0 {
			fmt.Fprintf(&sb, ` span="%d"`, uint64(tc.Parent))
		}
		if tc.MaxSpans > 0 {
			fmt.Fprintf(&sb, ` spans="%d"`, tc.MaxSpans)
		}
	}
	sb.WriteString("><params>")
	if err := tree.Encode(&sb, params, false); err != nil {
		return nil, err
	}
	sb.WriteString("</params></invoke>")
	return []byte(sb.String()), nil
}

// decodeInvoke parses the request envelope. The name in the URL must
// match the envelope's service attribute when present. The returned
// TraceContext is zero when the caller did not propagate a trace;
// malformed trace attributes are ignored rather than failing the call —
// propagation is advisory.
func decodeInvoke(body []byte, urlName string) ([]*tree.Node, *pattern.Pattern, telemetry.TraceContext, error) {
	var tc telemetry.TraceContext
	se, forest, err := readEnvelope(body)
	if err != nil {
		return nil, nil, tc, fmt.Errorf("bad envelope: %w", err)
	}
	if se.Name.Local != "invoke" {
		return nil, nil, tc, fmt.Errorf("bad envelope: expected an <invoke> element")
	}
	var queryText string
	for _, a := range se.Attr {
		switch a.Name.Local {
		case "service":
			if a.Value != "" && a.Value != urlName {
				return nil, nil, tc, fmt.Errorf("envelope service %q does not match endpoint %q", a.Value, urlName)
			}
		case "query":
			queryText = a.Value
		case "trace":
			tc.TraceID = a.Value
		case "span":
			if v, err := strconv.ParseUint(a.Value, 10, 64); err == nil {
				tc.Parent = telemetry.SpanID(v)
			}
		case "spans":
			if v, err := strconv.Atoi(a.Value); err == nil && v > 0 {
				tc.MaxSpans = v
			}
		}
	}
	var pushed *pattern.Pattern
	if queryText != "" {
		pushed, err = pattern.ParseExact(queryText)
		if err != nil {
			return nil, nil, tc, fmt.Errorf("bad pushed query: %w", err)
		}
	}
	var params []*tree.Node
	for _, n := range forest {
		if n.Kind == tree.Element && n.Label == "params" {
			params = n.Children
			for _, c := range params {
				c.Parent = nil
			}
			break
		}
	}
	return params, pushed, tc, nil
}

// readEnvelope reads an envelope's start tag, whose attributes are outside
// the wire subset, as one encoding/xml token, and the content between it
// and the end tag that closes the payload (trailing white space aside)
// with tree.UnmarshalForest: every forest this package writes takes the
// wire scanner. The content is parsed on its own, so an envelope may not
// declare namespaces; a self-closing one has no end tag to match.
func readEnvelope(payload []byte) (xml.StartElement, []*tree.Node, error) {
	dec := xml.NewDecoder(bytes.NewReader(payload))
	tok, err := dec.RawToken()
	if err != nil {
		return xml.StartElement{}, nil, err
	}
	se, ok := tok.(xml.StartElement)
	if !ok || se.Name.Space != "" {
		return xml.StartElement{}, nil, errors.New("expected an unprefixed start tag first")
	}
	for _, a := range se.Attr {
		if a.Name.Space == "xmlns" || a.Name.Space == "" && a.Name.Local == "xmlns" {
			return xml.StartElement{}, nil, errors.New("namespace declaration on the envelope")
		}
	}
	start := int(dec.InputOffset())
	rest := bytes.TrimRight(payload[start:], " \t\r\n")
	content, ok := bytes.CutSuffix(rest, []byte("</"+se.Name.Local+">"))
	if !ok || payload[start-2] == '/' {
		return xml.StartElement{}, nil, fmt.Errorf("no </%s> end tag closes the payload", se.Name.Local)
	}
	forest, err := tree.UnmarshalForest(content)
	return se, forest, err
}

// attr returns the value of se's attribute local, "" when absent.
func attr(se xml.StartElement, local string) string {
	for _, a := range se.Attr {
		if a.Name.Local == local {
			return a.Value
		}
	}
	return ""
}

// Client invokes services of one remote provider.
type Client struct {
	// BaseURL is the provider root, e.g. "http://host:8080".
	BaseURL string
	// Timeout bounds each HTTP request; an expired request surfaces as
	// a timeout-classed fault. 0 means no client-side timeout.
	Timeout time.Duration
	// Metrics, when set, observes each request's wire latency
	// (axml_http_client_seconds). Nil disables.
	Metrics *telemetry.Registry
}

// sharedHTTPClient is the transport every Client uses. http.DefaultClient's
// transport keeps only 2 idle connections per host, so a bounded
// invocation pool hammering one provider would open (and TIME_WAIT-churn)
// a fresh TCP connection for most requests; raising MaxIdleConnsPerHost
// lets every pool worker reuse a warm connection. Connection pools are
// per-transport, and one per process is the useful granularity.
var sharedHTTPClient = newSharedHTTPClient()

func newSharedHTTPClient() *http.Client {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return &http.Client{}
	}
	t = t.Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	return &http.Client{Transport: t}
}

// InvokeContext calls the named remote service under the caller's context:
// cancellation aborts the request. The returned response reports the
// on-the-wire size of the result payload and whether the provider applied
// the pushed query. The client makes one request and never retries;
// every failure maps onto a classed service.Fault, so the engine's retry
// policy (core.Options.Retry) and callers can classify it: network errors
// are transient, expired requests are timeouts, non-2xx answers carry the
// server's class (or one derived from the status code).
func (c *Client) InvokeContext(ctx context.Context, name string, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
	tc, _ := telemetry.TraceFrom(ctx)
	body, err := EncodeInvokeTrace(name, params, pushed, tc)
	if err != nil {
		return service.Response{}, err
	}
	url := strings.TrimSuffix(c.BaseURL, "/") + "/services/" + name
	start := time.Now()
	defer func() {
		c.Metrics.Histogram(telemetry.MetricHTTPClientSeconds).Observe(time.Since(start))
	}()
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return service.Response{}, fmt.Errorf("soap: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/xml")
	httpResp, err := sharedHTTPClient.Do(req)
	if err != nil {
		class := service.Transient
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			class = service.Timeout
		}
		return service.Response{}, &service.Fault{
			Service: name, Class: class, Latency: time.Since(start),
			Msg: fmt.Sprintf("POST %s", url), Err: err,
		}
	}
	defer httpResp.Body.Close()
	payload, over, err := readLimited(httpResp.Body, maxPayloadBytes)
	if err != nil {
		return service.Response{}, &service.Fault{
			Service: name, Class: service.Transient, Latency: time.Since(start),
			Msg: "read response", Err: err,
		}
	}
	if over {
		return service.Response{}, &service.Fault{
			Service: name, Class: service.Permanent, Latency: time.Since(start),
			Msg: fmt.Sprintf("payload too large: response body exceeds %d bytes", maxPayloadBytes),
		}
	}
	if httpResp.StatusCode != http.StatusOK {
		return service.Response{}, fault(name, url, httpResp, payload, time.Since(start))
	}
	totalBytes := len(payload)
	var remote []telemetry.Span
	if tc.MaxSpans > 0 {
		// The span subtree travels as a trailing trace child of the
		// response. It is sliced out of the raw payload before XML
		// parsing: the trace body is compact JSON whose encoder escapes
		// every <, > and & inside strings, so the byte range between the
		// server-appended tags holds no markup and the expensive
		// character-data decode is skipped for the envelope's largest
		// child. Only the opted-in trailing element is interpreted, so a
		// service result that legitimately ends with the label keeps it.
		payload, remote = splitTrailingTrace(payload, tc.TraceID)
	}
	se, forest, err := readEnvelope(payload)
	if err != nil {
		return service.Response{}, fmt.Errorf("soap: bad response envelope: %w", err)
	}
	if se.Name.Local != "response" {
		return service.Response{}, fmt.Errorf("soap: expected a <response> element")
	}
	for _, n := range forest {
		n.Parent = nil
	}
	return service.Response{
		Forest:      forest,
		Bytes:       totalBytes,
		Pushed:      attr(se, "pushed") == "true",
		RemoteTrace: remote,
	}, nil
}

// splitTrailingTrace detaches the server-appended <axml.trace> child
// from a response payload and decodes it. The match is anchored to the
// envelope's tail — the trace child is always the last element the
// server writes — so result content can never be misread as a trace.
// The trace ID the request carried is restamped onto spans the server
// elided it from. On any shape mismatch the payload is returned intact
// and the forest path handles it as ordinary content.
func splitTrailingTrace(payload []byte, traceID string) ([]byte, []telemetry.Span) {
	const closing = "</" + traceElem + "></response>"
	if !bytes.HasSuffix(payload, []byte(closing)) {
		return payload, nil
	}
	j := len(payload) - len(closing)
	i := bytes.LastIndex(payload[:j], []byte("<"+traceElem+">"))
	if i < 0 {
		return payload, nil
	}
	spans, err := telemetry.UnmarshalSpansJSON(unescapeCharData(payload[i+len(traceElem)+2 : j]))
	if err != nil || len(spans) == 0 { // the server appends no empty subtree
		return payload, nil
	}
	for k := range spans {
		if spans[k].Trace == "" {
			spans[k].Trace = traceID
		}
	}
	stripped := append(payload[:i:i], "</response>"...)
	return stripped, spans
}

// unescapeCharData undoes escapeCharData (&amp;, &lt;, &gt; only — the
// entities a compact span payload can contain). The common case is a
// zero-copy pass: the JSON encoder escapes <, > and & inside strings,
// so the payload usually holds no entities at all.
func unescapeCharData(b []byte) []byte {
	if !bytes.ContainsRune(b, '&') {
		return b
	}
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); {
		if b[i] == '&' {
			rest := b[i:]
			switch {
			case bytes.HasPrefix(rest, []byte("&amp;")):
				out = append(out, '&')
				i += 5
				continue
			case bytes.HasPrefix(rest, []byte("&lt;")):
				out = append(out, '<')
				i += 4
				continue
			case bytes.HasPrefix(rest, []byte("&gt;")):
				out = append(out, '>')
				i += 4
				continue
			}
		}
		out = append(out, b[i])
		i++
	}
	return out
}

// fault maps a non-2xx answer onto a classed service.Fault. The class is
// the fault envelope's class attribute; without one it derives from the
// HTTP status: 504 is a timeout, other 5xx are transient, everything else
// permanent. The message is the envelope's text, or the raw payload when
// the answer is no fault envelope.
func fault(name, url string, resp *http.Response, payload []byte, latency time.Duration) *service.Fault {
	class := service.Permanent
	if resp.StatusCode == http.StatusGatewayTimeout {
		class = service.Timeout
	} else if resp.StatusCode >= 500 {
		class = service.Transient
	}
	msg := strings.TrimSpace(string(payload))
	if se, forest, err := readEnvelope(payload); err == nil && se.Name.Local == "fault" {
		if v := attr(se, "class"); v != "" {
			class = service.ParseErrorClass(v)
		}
		msg = (&tree.Node{Children: forest}).Text()
	}
	return &service.Fault{Service: name, Class: class, Latency: latency,
		Msg: fmt.Sprintf("%s: %s: %s", url, resp.Status, msg)}
}

// Describe fetches the provider's service descriptor: names, push
// capability and advertised latency.
func (c *Client) Describe() ([]ServiceInfo, error) {
	url := strings.TrimSuffix(c.BaseURL, "/") + "/services"
	httpResp, err := sharedHTTPClient.Get(url)
	if err != nil {
		return nil, fmt.Errorf("soap: GET %s: %w", url, err)
	}
	defer httpResp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(httpResp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Services []struct {
			Name      string `xml:"name,attr"`
			Push      bool   `xml:"push,attr"`
			LatencyMs int64  `xml:"latencyMs,attr"`
		} `xml:"service"`
	}
	if err := xml.Unmarshal(payload, &doc); err != nil {
		return nil, fmt.Errorf("soap: bad descriptor: %w", err)
	}
	out := make([]ServiceInfo, 0, len(doc.Services))
	for _, s := range doc.Services {
		out = append(out, ServiceInfo{
			Name:    s.Name,
			CanPush: s.Push,
			Latency: time.Duration(s.LatencyMs) * time.Millisecond,
		})
	}
	return out, nil
}

// ServiceInfo is one entry of a provider descriptor.
type ServiceInfo struct {
	Name    string
	CanPush bool
	Latency time.Duration
}

// Proxy returns a service.Service backed by the remote provider, ready to
// be registered in a local registry: the engine then invokes the remote
// service transparently, with pushing decided by the provider.
func (c *Client) Proxy(info ServiceInfo) *service.Service {
	return &service.Service{
		Name:    info.Name,
		Latency: info.Latency,
		CanPush: info.CanPush,
		RemoteCtx: func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			if !info.CanPush {
				pushed = nil
			}
			return c.InvokeContext(ctx, info.Name, params, pushed)
		},
	}
}

// RegistryFor builds a local registry proxying every service the provider
// describes.
func (c *Client) RegistryFor() (*service.Registry, error) {
	infos, err := c.Describe()
	if err != nil {
		return nil, err
	}
	reg := service.NewRegistry()
	for _, info := range infos {
		reg.Register(c.Proxy(info))
	}
	return reg, nil
}
