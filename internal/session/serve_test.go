package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

func postQuery(t *testing.T, url string, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestHTTPQueryEndpoint round-trips one query through the JSON layer and
// checks the repository and stats endpoints answer.
func TestHTTPQueryEndpoint(t *testing.T) {
	m, scenarios, _ := newSuiteManager(t, Config{Engine: core.Options{Strategy: core.LazyNFQ}}, suiteSpec())
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	sc := scenarios[0]
	resp, body := postQuery(t, srv.URL, QueryRequest{Tenant: "t1", Document: sc.Name, Query: sc.Queries[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad response body: %v\n%s", err, body)
	}
	if !qr.Complete || len(qr.Bindings) == 0 {
		t.Fatalf("unexpected response: %+v", qr)
	}
	if qr.CallsInvoked == 0 {
		t.Fatal("first query should have invoked calls")
	}

	// Repeat: memo answer over HTTP.
	resp, body = postQuery(t, srv.URL, QueryRequest{Document: sc.Name, Query: sc.Queries[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Memo || qr.CallsInvoked != 0 {
		t.Fatalf("repeat query not memoised: %+v", qr)
	}

	var docs []string
	r, err := http.Get(srv.URL + "/documents")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 4 {
		t.Fatalf("documents = %v, want 4 names", docs)
	}

	var ts map[string]TenantStats
	r2, err := http.Get(srv.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&ts); err != nil {
		t.Fatal(err)
	}
	if ts["t1"].Queries != 1 {
		t.Fatalf("tenant t1 stats = %+v, want 1 query", ts["t1"])
	}
}

// TestHTTPErrorMapping checks each session error reaches the client as
// its transport equivalent: 404 unknown document, 400 bad query, 405
// wrong method, 413 oversized body, 504 and 499 for a run its request's
// context ended, 429 + Retry-After shed, 503 draining.
func TestHTTPErrorMapping(t *testing.T) {
	gate := make(chan struct{})
	doc, reg := gatedWorld(gate)
	// leave is a provider whose client hangs up on it mid-call.
	var hangUp context.CancelFunc
	reg.Register(&service.Service{
		Name: "leave",
		RemoteCtx: func(ctx context.Context, _ []*tree.Node, _ *pattern.Pattern) (service.Response, error) {
			hangUp()
			<-ctx.Done()
			return service.Response{}, ctx.Err()
		},
	})
	left := tree.NewElement("r")
	left.Append(tree.NewCall("leave"))
	metrics := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(64)
	m := NewManager(Config{
		Registry:   reg,
		Metrics:    metrics,
		Tracer:     tracer,
		Engine:     core.Options{Strategy: core.LazyNFQ},
		MaxActive:  1,
		MaxQueued:  -1, // no queue: saturation sheds immediately
		RetryAfter: 1700 * time.Millisecond,
	})
	if err := m.AddDocument("d", doc, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDocument("left", tree.NewDocument(left), nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	// What the request itself decides, answered to a recorder: the client
	// of a request whose context ended is not there to read the status.
	gatedBody := func(document string) string {
		b, _ := json.Marshal(QueryRequest{Document: document, Query: gatedQuery})
		return string(b)
	}
	expiring := func(ctx context.Context) (context.Context, context.CancelFunc) {
		return context.WithTimeout(ctx, 30*time.Millisecond)
	}
	for _, tc := range []struct {
		name   string
		body   string
		ctx    func(context.Context) (context.Context, context.CancelFunc)
		status int
	}{
		{"oversized body", `{"query":"` + strings.Repeat("x", maxQueryBody) + `"}`, context.WithCancel, http.StatusRequestEntityTooLarge},
		{"deadline expired", gatedBody("d"), expiring, http.StatusGatewayTimeout},
		{"client left", gatedBody("left"), context.WithCancel, statusClientClosedRequest},
	} {
		var ctx context.Context
		ctx, hangUp = tc.ctx(context.Background())
		rec := httptest.NewRecorder()
		Handler(m).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(tc.body)).WithContext(ctx))
		hangUp()
		var envelope errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); rec.Code != tc.status || err != nil || envelope.Error == "" {
			t.Fatalf("%s: status %d, body %q; want %d with the JSON error envelope", tc.name, rec.Code, rec.Body, tc.status)
		}
	}
	if n := metrics.Counter(telemetry.MetricSessionsCancelled).Value(); n != 2 {
		t.Fatalf("%s = %d, want 2 (the expired run and the abandoned one)", telemetry.MetricSessionsCancelled, n)
	}
	spans := tracer.Spans(0)
	if last := spans[len(spans)-1]; last.Name != "evaluate" || last.Attr("error") != context.Canceled.Error() {
		t.Fatalf("the abandoned run's evaluate span does not say why: %+v", last)
	}
	if st := m.Stats(); st.Active != 0 {
		t.Fatalf("a run its context ended still holds admission tokens: %+v", st)
	}

	if resp, _ := postQuery(t, srv.URL, QueryRequest{Document: "nope", Query: `/a/$X -> $X`}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown document: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postQuery(t, srv.URL, QueryRequest{Document: "d", Query: `[[[`}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query: status %d, want 400", resp.StatusCode)
	}
	if r, err := http.Get(srv.URL + "/query"); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /query: status %d, want 405", r.StatusCode)
		}
	}

	// Saturate: one in-flight query holds the only token.
	inflight := make(chan error, 1)
	go func() {
		_, err := m.Query(context.Background(), Request{Document: "d", Query: gatedQuery})
		inflight <- err
	}()
	waitFor(t, func() bool { return m.Stats().Active == 1 })

	resp, body := postQuery(t, srv.URL, QueryRequest{Document: "d", Query: gatedQuery})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q (1700ms rounded up)", got, "2")
	}

	close(gate)
	if err := <-inflight; err != nil {
		t.Fatal(err)
	}

	// Drain, then: 503.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postQuery(t, srv.URL, QueryRequest{Document: "d", Query: gatedQuery}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", resp.StatusCode)
	}
}

// TestHTTPExpiredDrainAnswers503: a run that Drain cancelled when its budget
// expired, while its client was still connected, answers that client 503
// with the JSON envelope — the server is going away — not 499, which says
// the client left; the error still wraps context.Canceled.
func TestHTTPExpiredDrainAnswers503(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	doc, reg := gatedWorld(gate)
	m := NewManager(Config{Registry: reg, Engine: core.Options{Strategy: core.LazyNFQ}, MaxActive: 1})
	if err := m.AddDocument("d", doc, nil); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(QueryRequest{Document: "d", Query: gatedQuery})
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		Handler(m).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	}()
	waitUntil(t, func() bool { return m.Stats().Active == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: got %v, want DeadlineExceeded", err)
	}
	<-served
	var envelope errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); rec.Code != http.StatusServiceUnavailable || err != nil ||
		!strings.Contains(envelope.Error, ErrDraining.Error()) || !strings.Contains(envelope.Error, context.Canceled.Error()) {
		t.Fatalf("status %d, body %q; want 503 with the JSON error envelope naming the drain and the cancellation", rec.Code, rec.Body)
	}
}

// TestHTTPIsolatedFlag checks the per-request isolation flag crosses the
// JSON boundary: an isolated query leaves the master unmaterialised.
func TestHTTPIsolatedFlag(t *testing.T) {
	reg := service.NewRegistry()
	reg.Register(&service.Service{
		Name: "get",
		Handler: func([]*tree.Node) ([]*tree.Node, error) {
			n := tree.NewElement("v")
			n.Append(tree.NewText("x"))
			return []*tree.Node{n}, nil
		},
	})
	root := tree.NewElement("r")
	root.Append(tree.NewCall("get"))
	m := NewManager(Config{Registry: reg, Engine: core.Options{Strategy: core.LazyNFQ}})
	if err := m.AddDocument("d", tree.NewDocument(root), nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	resp, body := postQuery(t, srv.URL, QueryRequest{Document: "d", Query: `/r/v/$V -> $V`, Isolated: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Bindings) != 1 || qr.Bindings[0]["V"] != "x" {
		t.Fatalf("bindings = %v", qr.Bindings)
	}

	// The shared master still embeds the call: a shared repeat must not
	// be a memo answer and must invoke the service.
	resp, body = postQuery(t, srv.URL, QueryRequest{Document: "d", Query: `/r/v/$V -> $V`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Memo || qr.CallsInvoked != 1 {
		t.Fatalf("isolated query leaked into the master: %+v", qr)
	}
}
