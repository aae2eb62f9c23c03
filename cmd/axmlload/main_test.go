package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/session"
	"github.com/activexml/axml/internal/telemetry/spantest"
)

// TestLoadSelfSmoke replays a small mixed workload against an
// in-process server and checks the report: everything served, nothing
// shed, every answer matching the serial oracle.
func TestLoadSelfSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-self", "-clients", "8", "-requests", "120", "-hotels", "6",
		"-seed", "7", "-json", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("bad report: %v\n%s", err, b)
	}
	if rep.Totals.OK != 120 || rep.Totals.Errors != 0 || rep.Totals.VerifyFailures != 0 {
		t.Fatalf("totals = %+v", rep.Totals)
	}
	if rep.Totals.Memo == 0 {
		t.Fatal("no memo answers across 120 repeats of 8 queries — sharing is broken")
	}
	if rep.Latency.P50Ms <= 0 || rep.Latency.P99Ms < rep.Latency.P50Ms {
		t.Fatalf("latency = %+v", rep.Latency)
	}
	if len(rep.Scenarios) != 4 {
		t.Fatalf("scenarios = %v, want 4", rep.Scenarios)
	}
	var total int64
	for name, sc := range rep.Scenarios {
		if sc.RequestsOut != sc.OKOut {
			t.Fatalf("%s: %d requests but %d ok", name, sc.RequestsOut, sc.OKOut)
		}
		total += sc.RequestsOut
	}
	if total != 120 {
		t.Fatalf("scenario requests sum to %d, want 120", total)
	}
}

// TestLoadVerifyCatchesDivergence points the driver at a server that
// answers with the wrong bindings: the oracle comparison must fail the
// run.
func TestLoadVerifyCatchesDivergence(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(session.QueryResponse{
			Complete: true,
			Bindings: []map[string]string{{"X": "not-the-answer"}},
		})
	}))
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-url", srv.URL, "-clients", "2", "-requests", "8", "-hotels", "6",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "diverged from the serial oracle") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestLoadShedRetryHonored drives a server that sheds every other
// request: the driver must retry after the hinted backoff, count the
// 429s, and still finish clean.
func TestLoadShedRetryHonored(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "shed"})
			return
		}
		_ = json.NewEncoder(w).Encode(session.QueryResponse{Complete: true})
	}))
	defer srv.Close()

	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-url", srv.URL, "-clients", "1", "-requests", "40", "-verify=false", "-json", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Totals.OK != 40 || rep.Totals.Shed == 0 || rep.Totals.GaveUp != 0 {
		t.Fatalf("totals = %+v: want 40 ok, some shed, none given up", rep.Totals)
	}
	if rep.Totals.Attempts != rep.Totals.OK+rep.Totals.Shed {
		t.Fatalf("attempts %d != ok %d + shed %d", rep.Totals.Attempts, rep.Totals.OK, rep.Totals.Shed)
	}
	if rep.Totals.ShedRate <= 0 {
		t.Fatalf("shed rate = %v", rep.Totals.ShedRate)
	}
}

// TestLoadGivesUpAfterRetries checks a permanently saturated server:
// every request exhausts its retries, is accounted as given up, and the
// run still exits clean (shedding is the server working as designed).
func TestLoadGivesUpAfterRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-url", srv.URL, "-clients", "2", "-requests", "6", "-shed-retries", "2", "-verify=false",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "6 gave up") {
		t.Fatalf("stdout: %s", stdout.String())
	}
}

// TestLoadFlagValidation checks the mutually exclusive target flags.
func TestLoadFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no target: exit %d, want 2", code)
	}
	if code := run([]string{"-self", "-url", "http://x"}, &stdout, &stderr); code != 2 {
		t.Fatalf("both targets: exit %d, want 2", code)
	}
	if code := run([]string{"-self", "-clients", "0"}, &stdout, &stderr); code != 2 {
		t.Fatalf("zero clients: exit %d, want 2", code)
	}
}

// TestNegativeValuesRejected: a negative count or duration is a usage
// error that names the flag, caught before the self server starts or any
// file is created.
func TestNegativeValuesRejected(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-hotels", "-5"}, {"-invoke-limit", "-1"}, {"-max-active", "-1"}, {"-retry-after", "-1s"},
		{"-shed-retries", "-1"},
	} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		code := run([]string{"-self", "-clients", "1", "-requests", "4", "-json", filepath.Join(dir, "load.json"),
			"-trace-out", filepath.Join(dir, "trace.jsonl"), c.flag, c.value}, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), "flag "+c.flag+": must not be negative") {
			t.Errorf("%s %s: exit %d, want 2 naming the flag: %s", c.flag, c.value, code, stderr.String())
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%s %s: created %v", c.flag, c.value, entries)
		}
	}
}

// TestLoadObservabilitySinks: -trace-out streams the self server's
// spans as parseable JSONL and -stats-out captures the per-service
// profile the run learned.
func TestLoadObservabilitySinks(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "spans.jsonl")
	statsPath := filepath.Join(dir, "stats.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-self", "-clients", "4", "-requests", "40", "-hotels", "6",
		"-trace-out", tracePath, "-stats-out", statsPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := spantest.DecodeJSONL(f)
	if err != nil {
		t.Fatalf("trace JSONL must parse cleanly after the run: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans streamed")
	}

	b, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Services []profile.ServiceProfile `json:"services"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("bad stats snapshot: %v\n%s", err, b)
	}
	if len(doc.Services) == 0 {
		t.Fatal("stats snapshot learned no services")
	}
	for _, s := range doc.Services {
		if s.Calls == 0 || s.P50 == 0 {
			t.Fatalf("empty profile in snapshot: %+v", s)
		}
	}
}

// TestLoadTraceOutNeedsSelf: -trace-out against a remote URL is a
// usage error.
func TestLoadTraceOutNeedsSelf(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-url", "http://localhost:1", "-trace-out", "x.jsonl"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2: %s", code, stderr.String())
	}
}

// TestAdmissionFlagsNeedSelf: the admission flags configure the
// in-process server, so against a remote URL each is a usage error that
// names it rather than a flag silently ignored.
func TestAdmissionFlagsNeedSelf(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-max-active", "2"}, {"-max-queued", "4"}, {"-retry-after", "1s"}, {"-invoke-limit", "4"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-url", "http://127.0.0.1:1", "-requests", "1", c.flag, c.value}, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), c.flag+" needs -self") {
			t.Errorf("%s %s without -self: exit %d, stderr %q; want exit 2 naming the flag", c.flag, c.value, code, stderr.String())
		}
	}
}
