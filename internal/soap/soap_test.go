package soap

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

func testServer(t *testing.T, spec workload.HotelSpec) (*workload.World, *httptest.Server) {
	t.Helper()
	w := workload.Hotels(spec)
	srv := httptest.NewServer(NewServer(w.Registry, false))
	t.Cleanup(srv.Close)
	return w, srv
}

func TestDescribe(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.PushCapable = true
	_, srv := testServer(t, spec)
	c := &Client{BaseURL: srv.URL}
	infos, err := c.Describe()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ServiceInfo{}
	for _, i := range infos {
		byName[i.Name] = i
	}
	restos, ok := byName["getNearbyRestos"]
	if !ok {
		t.Fatalf("descriptor misses getNearbyRestos: %v", infos)
	}
	if !restos.CanPush || restos.Latency != 10*time.Millisecond {
		t.Fatalf("descriptor entry wrong: %+v", restos)
	}
	if hotels := byName["getHotels"]; hotels.CanPush {
		t.Fatal("getHotels must not advertise push (intensional results)")
	}
}

func TestRemoteInvoke(t *testing.T) {
	_, srv := testServer(t, workload.DefaultSpec())
	c := &Client{BaseURL: srv.URL}
	resp, err := c.InvokeContext(context.Background(), "getNearbyRestos", []*tree.Node{tree.NewText("addr-7")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Forest) != 5 || resp.Pushed {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Forest[0].Label != "restaurant" {
		t.Fatalf("first tree = %s", resp.Forest[0])
	}
	if resp.Bytes == 0 {
		t.Fatal("wire size not reported")
	}
}

func TestRemotePush(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.PushCapable = true
	spec.RestosPerCall = 50
	_, srv := testServer(t, spec)
	c := &Client{BaseURL: srv.URL}
	pushed := pattern.MustParse(`/restaurant[rating="*****"][name=$X] -> $X`)
	resp, err := c.InvokeContext(context.Background(), "getNearbyRestos", []*tree.Node{tree.NewText("addr-7")}, pushed)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Pushed || len(resp.Forest) != 1 || resp.Forest[0].Kind != tree.Tuples {
		t.Fatalf("resp = %+v", resp)
	}
	if len(resp.Forest[0].PushedBindings) != 2 {
		t.Fatalf("bindings = %v", resp.Forest[0].PushedBindings)
	}
	// Compare transfer sizes: pushed is far smaller.
	full, err := c.InvokeContext(context.Background(), "getNearbyRestos", []*tree.Node{tree.NewText("addr-7")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Bytes*5 > full.Bytes {
		t.Fatalf("push transfer %d not ≪ full %d", resp.Bytes, full.Bytes)
	}
}

func TestFaults(t *testing.T) {
	_, srv := testServer(t, workload.DefaultSpec())
	c := &Client{BaseURL: srv.URL}
	if _, err := c.InvokeContext(context.Background(), "ghost", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown service") {
		t.Fatalf("err = %v", err)
	}
	// Bad envelope straight over HTTP.
	resp, err := http.Post(srv.URL+"/services/getRating", "application/xml", strings.NewReader("<nonsense"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Unknown endpoint.
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestEnvelopeMismatch(t *testing.T) {
	_, srv := testServer(t, workload.DefaultSpec())
	body, err := EncodeInvoke("getRating", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/services/getHotels", "application/xml", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched envelope accepted: %d", resp.StatusCode)
	}
}

func TestEncodeInvokeEscaping(t *testing.T) {
	pushed := pattern.MustParse(`/r[a="<&>"]`)
	body, err := EncodeInvoke("svc", []*tree.Node{tree.NewText("p&q")}, pushed)
	if err != nil {
		t.Fatal(err)
	}
	params, got, _, err := decodeInvoke(body, "svc")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.String() != pushed.String() {
		t.Fatalf("pushed round trip: %v", got)
	}
	if len(params) != 1 || params[0].Label != "p&q" {
		t.Fatalf("params round trip: %v", params)
	}
}

// TestEndToEndOverHTTP runs the full lazy engine against HTTP-proxied
// services and checks the result matches a purely local evaluation — the
// E8 configuration.
func TestEndToEndOverHTTP(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 12
	spec.HiddenHotels = 4
	spec.PushCapable = true
	w, srv := testServer(t, spec)

	c := &Client{BaseURL: srv.URL}
	remoteReg, err := c.RegistryFor()
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Evaluate(w.Doc.Clone(), w.Query, w.Registry,
		core.Options{Strategy: core.LazyNFQTyped, Schema: w.Schema})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := core.Evaluate(w.Doc.Clone(), w.Query, remoteReg,
		core.Options{Strategy: core.LazyNFQTyped, Schema: w.Schema, Push: true,
			Clock: service.NewWallClock(false)})
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Results) != len(remote.Results) {
		t.Fatalf("local %d vs remote %d results", len(local.Results), len(remote.Results))
	}
	if len(remote.Results) != w.ExpectedResults {
		t.Fatalf("remote results = %d, want %d", len(remote.Results), w.ExpectedResults)
	}
	if remote.Stats.PushedCalls == 0 {
		t.Fatal("no pushes over HTTP")
	}
	if remoteReg.Stats().Invocations != remote.Stats.CallsInvoked {
		t.Fatalf("proxy accounting mismatch: %d vs %d",
			remoteReg.Stats().Invocations, remote.Stats.CallsInvoked)
	}

	// Neither the invocation-pool width nor tracing — off, local spans
	// only, or propagated with the remote subtrees returned — may change
	// the result set of the layered, pushed evaluation over HTTP.
	keys := func(out *core.Outcome) string {
		ks := make([]string, len(out.Results))
		for i, r := range out.Results {
			ks[i] = r.Key()
		}
		sort.Strings(ks)
		return strings.Join(ks, "|")
	}
	want := keys(remote)
	for _, workers := range []int{1, 4} {
		for _, mode := range []string{"off", "local", "propagate"} {
			opt := core.Options{Strategy: core.LazyNFQTyped, Schema: w.Schema,
				Push: true, Layering: true, Parallel: true, InvokeWorkers: workers,
				Clock: service.NewWallClock(false)}
			if mode != "off" {
				opt.Tracer = telemetry.NewTracer(telemetry.DefaultSpanCapacity)
			}
			if mode == "propagate" {
				opt.Tracer.SetTrace(telemetry.DeriveTraceID("soap_test", mode))
				opt.RemoteSpans = MaxRemoteSpans
			}
			out, err := core.Evaluate(w.Doc.Clone(), w.Query, remoteReg, opt)
			if err != nil {
				t.Fatalf("workers %d, tracing %s: %v", workers, mode, err)
			}
			if got := keys(out); got != want {
				t.Fatalf("workers %d, tracing %s changed the result set\n got %q\nwant %q", workers, mode, got, want)
			}
		}
	}
}

func TestServerSleepsWhenAsked(t *testing.T) {
	reg := service.NewRegistry()
	reg.Register(&service.Service{
		Name:    "slow",
		Latency: 30 * time.Millisecond,
		Handler: func([]*tree.Node) ([]*tree.Node, error) {
			return []*tree.Node{tree.NewText("ok")}, nil
		},
	})
	srv := httptest.NewServer(NewServer(reg, true))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	start := time.Now()
	if _, err := c.InvokeContext(context.Background(), "slow", nil, nil); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("server did not sleep the configured latency")
	}
}

func TestClientDefaultsAndBadBase(t *testing.T) {
	c := &Client{BaseURL: "http://127.0.0.1:1"} // nothing listens on port 1
	if c.HTTPClient != nil {
		t.Fatal("precondition")
	}
	if _, err := c.InvokeContext(context.Background(), "x", nil, nil); err == nil {
		t.Fatal("unreachable provider must fail")
	}
	if _, err := c.Describe(); err == nil {
		t.Fatal("unreachable describe must fail")
	}
	if _, err := c.RegistryFor(); err == nil {
		t.Fatal("unreachable RegistryFor must fail")
	}
}

func TestFaultEscaping(t *testing.T) {
	reg := service.NewRegistry()
	reg.Register(&service.Service{Name: "bad", Handler: func([]*tree.Node) ([]*tree.Node, error) {
		return nil, fmt.Errorf("broken <tag> & more")
	}})
	srv := httptest.NewServer(NewServer(reg, false))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	_, err := c.InvokeContext(context.Background(), "bad", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "broken <tag> & more") {
		t.Fatalf("fault round trip: %v", err)
	}
}

func TestBadResponsesFromServer(t *testing.T) {
	// A fake provider returning malformed payloads.
	mux := http.NewServeMux()
	mux.HandleFunc("/services/garbled", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<not-closed")
	})
	mux.HandleFunc("/services/wrongroot", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<other/>")
	})
	mux.HandleFunc("/services", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<<<")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	if _, err := c.InvokeContext(context.Background(), "garbled", nil, nil); err == nil {
		t.Fatal("garbled payload accepted")
	}
	if _, err := c.InvokeContext(context.Background(), "wrongroot", nil, nil); err == nil {
		t.Fatal("wrong response root accepted")
	}
	if _, err := c.Describe(); err == nil {
		t.Fatal("garbled descriptor accepted")
	}
}

func TestBadPushedQueryInEnvelope(t *testing.T) {
	_, srv := testServer(t, workload.DefaultSpec())
	body := `<invoke service="getRating" query="[[["><params/></invoke>`
	resp, err := http.Post(srv.URL+"/services/getRating", "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pushed query accepted: %d", resp.StatusCode)
	}
}
