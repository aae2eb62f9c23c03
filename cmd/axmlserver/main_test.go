package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

func TestDumpDoc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.axml")
	var out, errOut strings.Builder
	code := run([]string{"-dump-doc", path, "-hotels", "5"}, &out, &errOut, nil, nil)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := tree.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Label != "hotels" {
		t.Fatalf("dumped root = %s", doc.Root.Label)
	}
}

func TestDumpDocBadPath(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-dump-doc", "/nonexistent-dir/x.axml"}, &out, &errOut, nil, nil); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestServeAndQuery(t *testing.T) {
	ready := make(chan string, 1)
	var out, errOut strings.Builder
	go run([]string{"-addr", "127.0.0.1:0", "-hotels", "10", "-recursive"}, &out, &errOut, ready, nil)
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("server did not start: %s", errOut.String())
	}
	client := &soap.Client{BaseURL: "http://" + addr}
	reg, err := client.RegistryFor()
	if err != nil {
		t.Fatal(err)
	}
	// Recursive mode advertises push on every service.
	infos, err := client.Describe()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range infos {
		if !i.CanPush {
			t.Errorf("recursive provider must advertise push on %s", i.Name)
		}
	}
	spec := workload.DefaultSpec()
	spec.Hotels = 10
	spec.HiddenHotels = 2
	w := workload.Hotels(spec)
	res, err := core.Evaluate(w.Doc.Clone(), w.Query, reg, core.Options{
		Strategy: core.LazyNFQ, Push: true, Clock: service.NewWallClock(false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != w.ExpectedResults {
		t.Fatalf("results = %d, want %d", len(res.Results), w.ExpectedResults)
	}
}

// TestMetricsEndpoint runs real queries against a serving axmlserver and
// then scrapes /metrics: the request-latency histogram must have counted
// the invocations and the server-side cache must report both misses (the
// first evaluation) and hits (the identical second one). /debug/trace
// must return the invocation spans.
func TestMetricsEndpoint(t *testing.T) {
	ready := make(chan string, 1)
	var out, errOut strings.Builder
	go run([]string{"-addr", "127.0.0.1:0", "-hotels", "10"}, &out, &errOut, ready, nil)
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("server did not start: %s", errOut.String())
	}
	client := &soap.Client{BaseURL: "http://" + addr}
	reg, err := client.RegistryFor()
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultSpec()
	spec.Hotels = 10
	spec.HiddenHotels = 2
	w := workload.Hotels(spec)
	for i := 0; i < 2; i++ {
		res, err := core.Evaluate(w.Doc.Clone(), w.Query, reg, core.Options{
			Strategy: core.LazyNFQ, Clock: service.NewWallClock(false),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) != w.ExpectedResults {
			t.Fatalf("results = %d, want %d", len(res.Results), w.ExpectedResults)
		}
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	prom := string(body)
	sample := func(name string) int {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`).FindStringSubmatch(prom)
		if m == nil {
			t.Fatalf("metric %s missing from /metrics:\n%s", name, prom)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	if n := sample("axml_http_requests_total"); n == 0 {
		t.Fatal("no requests counted")
	}
	if n := sample("axml_http_handler_seconds_count"); n == 0 {
		t.Fatal("handler latency histogram empty")
	}
	if !strings.Contains(prom, "axml_http_handler_seconds_bucket") {
		t.Fatalf("handler latency buckets missing:\n%s", prom)
	}
	if n := sample("axml_cache_misses_total"); n == 0 {
		t.Fatal("first evaluation should have missed the cache")
	}
	if n := sample("axml_cache_hits_total"); n == 0 {
		t.Fatal("second evaluation should have hit the cache")
	}

	traceResp, err := http.Get("http://" + addr + "/debug/trace?last=10")
	if err != nil {
		t.Fatal(err)
	}
	defer traceResp.Body.Close()
	var spans []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(traceResp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || spans[0].Name != "http-invoke" {
		t.Fatalf("expected http-invoke spans on /debug/trace, got %v", spans)
	}
}

func TestBadAddr(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-addr", "999.999.999.999:-1"}, &out, &errOut, nil, nil); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

// TestBadPlanModeHasNoSideEffects: an unknown -plan mode is a usage
// error (exit 2) caught before the trace file is created or the
// document directory opened. A start that fails later — the directory
// cannot be opened, the address not listened on — creates no trace file
// either.
func TestBadPlanModeHasNoSideEffects(t *testing.T) {
	dir := t.TempDir()
	traceFile, docsDir := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "docs")
	var out, errOut strings.Builder
	code := run([]string{"-plan", "bogus", "-trace-out", traceFile, "-docs", docsDir}, &out, &errOut, nil, nil)
	if code != 2 || !strings.Contains(errOut.String(), "unknown -plan mode") {
		t.Fatalf("exit %d, want 2 with a usage error: %s", code, errOut.String())
	}
	for _, p := range []string{traceFile, docsDir} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s exists after a rejected -plan mode (err=%v)", p, err)
		}
	}
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:0", "-docs", "/dev/null/docs"},
		{"-addr", "999.999.999.999:-1"},
	} {
		var out, errOut strings.Builder
		if code := run(append([]string{"-trace-out", traceFile}, args...), &out, &errOut, nil, nil); code != 1 {
			t.Errorf("%v: exit %d, want 1: %s", args, code, errOut.String())
		}
		if _, err := os.Stat(traceFile); !os.IsNotExist(err) {
			t.Errorf("%s exists after %v failed to start (err=%v)", traceFile, args, err)
		}
	}
}

// TestNegativeValuesRejected: a negative count or duration is a usage
// error that names the flag, caught before any file is created; a
// negative -max-queued keeps its meaning, no queue.
func TestNegativeValuesRejected(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-hotels", "-5"}, {"-latency", "-1ms"}, {"-deadline", "-1s"}, {"-invoke-workers", "-1"},
		{"-cache-ttl", "-1m"}, {"-invoke-limit", "-1"}, {"-max-active", "-1"}, {"-retry-after", "-1s"},
		{"-drain-timeout", "-1s"},
	} {
		dir := t.TempDir()
		var out, errOut strings.Builder
		code := run([]string{"-dump-doc", filepath.Join(dir, "doc.axml"), "-trace-out", filepath.Join(dir, "trace.jsonl"),
			"-docs", filepath.Join(dir, "docs"), c.flag, c.value}, &out, &errOut, nil, nil)
		if code != 2 || !strings.Contains(errOut.String(), "flag "+c.flag+": must not be negative") {
			t.Errorf("%s %s: exit %d, want 2 naming the flag: %s", c.flag, c.value, code, errOut.String())
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%s %s: created %v", c.flag, c.value, entries)
		}
	}
	var out, errOut strings.Builder
	if code := run([]string{"-dump-doc", filepath.Join(t.TempDir(), "doc.axml"), "-max-queued", "-1"}, &out, &errOut, nil, nil); code != 0 {
		t.Fatalf("-max-queued -1: exit %d: %s", code, errOut.String())
	}
}

const travelQuery = `/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y`

func postSessionQuery(t *testing.T, addr string, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// TestSessionEndpoint exercises the multi-tenant layer end to end: a
// query over HTTP, a memoised repeat, the document listing, and the
// session metrics on /metrics.
func TestSessionEndpoint(t *testing.T) {
	ready := make(chan string, 1)
	var out, errOut strings.Builder
	go run([]string{"-addr", "127.0.0.1:0", "-hotels", "10"}, &out, &errOut, ready, nil)
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("server did not start: %s", errOut.String())
	}

	body := `{"tenant":"t1","document":"travel","query":` + strconv.Quote(travelQuery) + `}`
	resp, payload := postSessionQuery(t, addr, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	var qr struct {
		Bindings     []map[string]string `json:"bindings"`
		Complete     bool                `json:"complete"`
		Memo         bool                `json:"memo"`
		CallsInvoked int                 `json:"callsInvoked"`
	}
	if err := json.Unmarshal([]byte(payload), &qr); err != nil {
		t.Fatalf("%v\n%s", err, payload)
	}
	if !qr.Complete || len(qr.Bindings) == 0 || qr.CallsInvoked == 0 {
		t.Fatalf("unexpected first answer: %s", payload)
	}

	resp, payload = postSessionQuery(t, addr, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, payload)
	}
	if err := json.Unmarshal([]byte(payload), &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Memo || qr.CallsInvoked != 0 {
		t.Fatalf("repeat query not memoised: %s", payload)
	}

	docsResp, err := http.Get("http://" + addr + "/documents")
	if err != nil {
		t.Fatal(err)
	}
	defer docsResp.Body.Close()
	var docs []string
	if err := json.NewDecoder(docsResp.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 4 {
		t.Fatalf("documents = %v, want the 4 suite scenarios", docs)
	}

	mResp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	prom, err := io.ReadAll(mResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"axml_sessions_total 2", "axml_session_seconds_count 2"} {
		if !strings.Contains(string(prom), metric) {
			t.Fatalf("metric %q missing from /metrics:\n%s", metric, prom)
		}
	}
}

// TestGracefulShutdownDrainsInFlight is the shutdown fix's regression
// test: a query admitted before the stop signal runs to completion and
// answers 200 while the server drains, and the process exits cleanly.
// -sleep makes the session's virtual latency real wall time, so the
// query is reliably in flight when the drain starts.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	ready := make(chan string, 1)
	stop := make(chan struct{})
	exit := make(chan int, 1)
	var out, errOut strings.Builder
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-hotels", "5", "-latency", "100ms", "-sleep",
			"-drain-timeout", "30s"}, &out, &errOut, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("server did not start: %s", errOut.String())
	}

	type answer struct {
		status int
		body   string
	}
	done := make(chan answer, 1)
	go func() {
		body := `{"document":"travel","query":` + strconv.Quote(travelQuery) + `}`
		resp, payload := postSessionQuery(t, addr, body)
		done <- answer{resp.StatusCode, payload}
	}()

	// Wait until the query is admitted (active session visible), then
	// pull the plug while it is still sleeping through its rounds.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st struct {
			Active int64 `json:"Active"`
		}
		r, err := http.Get("http://" + addr + "/stats")
		if err == nil {
			err = json.NewDecoder(r.Body).Decode(&st)
			r.Body.Close()
		}
		if err == nil && st.Active >= 1 {
			break
		}
		select {
		case a := <-done:
			t.Fatalf("query finished before the server was stopped (status %d) — fixture too fast: %s", a.status, a.body)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("query never became active")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)

	a := <-done
	if a.status != http.StatusOK {
		t.Fatalf("in-flight query during shutdown: status %d, want 200\n%s", a.status, a.body)
	}
	var qr struct {
		Complete bool                `json:"complete"`
		Bindings []map[string]string `json:"bindings"`
	}
	if err := json.Unmarshal([]byte(a.body), &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Complete || len(qr.Bindings) == 0 {
		t.Fatalf("in-flight query returned a degraded answer: %s", a.body)
	}

	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d: %s", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not exit after drain: %s", errOut.String())
	}
	if !strings.Contains(out.String(), "drained and stopped") {
		t.Fatalf("missing drain confirmation in output:\n%s", out.String())
	}
}

// startServer boots run() with the given extra args and returns the
// bound address plus a shutdown func that stops it and reports the exit
// code.
func startServer(t *testing.T, args ...string) (string, func() int) {
	t.Helper()
	ready := make(chan string, 1)
	stop := make(chan struct{})
	exit := make(chan int, 1)
	var out, errOut strings.Builder
	go func() {
		exit <- run(append([]string{"-addr", "127.0.0.1:0", "-hotels", "5"}, args...),
			&out, &errOut, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("server did not start: %s", errOut.String())
	}
	var once bool
	return addr, func() int {
		if once {
			return 0
		}
		once = true
		close(stop)
		select {
		case code := <-exit:
			if code != 0 {
				t.Fatalf("server exit %d: %s", code, errOut.String())
			}
			return code
		case <-time.After(30 * time.Second):
			t.Fatal("server did not stop")
			return -1
		}
	}
}

// fetchServiceStats reads GET /stats/services into the profile snapshot
// shape.
func fetchServiceStats(t *testing.T, addr string) []map[string]any {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/stats/services")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats/services: %d", resp.StatusCode)
	}
	var doc struct {
		Services []map[string]any `json:"services"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Services
}

// TestProfileRestartOpensWarm: a server with -docs persists its learned
// per-service profiles on drain; a restarted server answers GET
// /stats/services with the pre-restart quantiles and selectivities
// before serving a single query.
func TestProfileRestartOpensWarm(t *testing.T) {
	dir := t.TempDir()
	addr, shutdown := startServer(t, "-docs", dir)

	body := `{"tenant":"t1","document":"travel","query":` + strconv.Quote(travelQuery) + `}`
	for i := 0; i < 3; i++ {
		resp, payload := postSessionQuery(t, addr, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, payload)
		}
	}
	learned := fetchServiceStats(t, addr)
	if len(learned) == 0 {
		t.Fatal("no service profiles learned")
	}
	shutdown()
	if _, err := os.Stat(filepath.Join(dir, "profiles.json")); err != nil {
		t.Fatalf("profiles not persisted: %v", err)
	}

	addr2, shutdown2 := startServer(t, "-docs", dir)
	defer shutdown2()
	warm := fetchServiceStats(t, addr2)
	if len(warm) != len(learned) {
		t.Fatalf("restarted server serves %d profiles, want %d", len(warm), len(learned))
	}
	for i, w := range warm {
		l := learned[i]
		for _, key := range []string{"service", "calls", "p50_ns", "p95_ns", "p99_ns", "selectivity", "fault_rate", "bytes", "nodes"} {
			if w[key] != l[key] {
				t.Fatalf("profile %v: %s = %v after restart, want %v", w["service"], key, w[key], l[key])
			}
		}
		// The rolling window is process-local: a freshly restarted server
		// has seen no recent traffic.
		if w["recent_calls"] != float64(0) {
			t.Fatalf("restarted server claims recent traffic: %v", w)
		}
	}
}

// TestTraceOutStreamsJSONL: -trace-out streams the server tracer's
// spans to a JSONL file that parses cleanly after drain.
func TestTraceOutStreamsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	addr, shutdown := startServer(t, "-trace-out", path)
	body := `{"tenant":"t1","document":"travel","query":` + strconv.Quote(travelQuery) + `}`
	if resp, payload := postSessionQuery(t, addr, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d: %s", resp.StatusCode, payload)
	}
	shutdown()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := telemetry.DecodeJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans streamed")
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	if !names["evaluate"] {
		t.Fatalf("trace misses evaluate spans: %v", names)
	}
}
