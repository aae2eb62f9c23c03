package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// writeWorldDoc dumps the demo world's document to a temp file and
// returns its path.
func writeWorldDoc(t *testing.T) string {
	t.Helper()
	w := workload.Hotels(workload.DefaultSpec())
	b, err := tree.MarshalIndent(w.Doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.axml")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const testQuery = `/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X] -> $X`

func TestQueryAgainstBuiltinServices(t *testing.T) {
	doc := writeWorldDoc(t)
	outPath := filepath.Join(t.TempDir(), "out.axml")
	var out, errOut strings.Builder
	code := run([]string{
		"-doc", doc, "-query", testQuery, "-strategy", "lazy-nfq",
		"-stats", "-out", outPath,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "result(s)") || !strings.Contains(out.String(), "Resto-0-0") {
		t.Fatalf("results missing:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "calls invoked") {
		t.Fatalf("stats missing:\n%s", errOut.String())
	}
	// The materialised document was written and reparses.
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Unmarshal(data); err != nil {
		t.Fatalf("written document invalid: %v", err)
	}
}

func TestQueryWithSchemaFile(t *testing.T) {
	doc := writeWorldDoc(t)
	schemaPath := filepath.Join(t.TempDir(), "schema.txt")
	w := workload.Hotels(workload.DefaultSpec())
	if err := os.WriteFile(schemaPath, []byte(w.Schema.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := run([]string{"-doc", doc, "-query", testQuery, "-schema", schemaPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
}

func TestQueryAgainstProvider(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	srv := httptest.NewServer(soap.NewServer(w.Registry, false))
	defer srv.Close()
	doc := writeWorldDoc(t)
	var out, errOut strings.Builder
	code := run([]string{"-doc", doc, "-query", testQuery, "-provider", srv.URL, "-layer"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "24 result(s)") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestQueryErrors(t *testing.T) {
	doc := writeWorldDoc(t)
	cases := map[string][]string{
		"missing args":     {},
		"bad doc":          {"-doc", "/nonexistent", "-query", testQuery},
		"bad query":        {"-doc", doc, "-query", "[[["},
		"bad strategy":     {"-doc", doc, "-query", testQuery, "-strategy", "wrong"},
		"bad schema path":  {"-doc", doc, "-query", testQuery, "-schema", "/nonexistent"},
		"bad provider url": {"-doc", doc, "-query", testQuery, "-provider", "http://127.0.0.1:1"},
	}
	for name, args := range cases {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%s: expected failure", name)
		}
	}
}

// TestBadFlagValueHasNoSideEffects: an unknown -plan mode or -strategy
// is a usage error (exit 2) caught before the trace file is created —
// the rule axmlserver's TestBadPlanModeHasNoSideEffects pins. A run whose
// inputs or provider fail (exit 1) creates no trace file either.
func TestBadFlagValueHasNoSideEffects(t *testing.T) {
	doc := writeWorldDoc(t)
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-plan", "bogus"}, 2, "unknown -plan mode"},
		{[]string{"-strategy", "bogus"}, 2, "unknown -strategy"},
		{[]string{"-schema", "/nonexistent"}, 1, "read schema"},
		{[]string{"-provider", "http://127.0.0.1:1"}, 1, "describe provider"},
	} {
		traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
		var out, errOut strings.Builder
		code := run(append([]string{"-doc", doc, "-query", testQuery, "-trace-out", traceFile}, c.args...), &out, &errOut)
		if code != c.code || !strings.Contains(errOut.String(), c.want) {
			t.Errorf("%v: exit %d, want %d with %q: %s", c.args, code, c.code, c.want, errOut.String())
		}
		if _, err := os.Stat(traceFile); !os.IsNotExist(err) {
			t.Errorf("%s exists after %v failed (err=%v)", traceFile, c.args, err)
		}
	}
}

// TestNegativeValuesRejected: a negative count or duration is a usage
// error that names the flag, caught before any output file is created.
func TestNegativeValuesRejected(t *testing.T) {
	doc := writeWorldDoc(t)
	for _, c := range []struct{ flag, value string }{
		{"-max-calls", "-1"}, {"-retries", "-1"}, {"-invoke-workers", "-2"},
		{"-timeout", "-1s"}, {"-cache-ttl", "-1m"}, {"-remote-spans", "-1"},
	} {
		dir := t.TempDir()
		var out, errOut strings.Builder
		code := run([]string{"-doc", doc, "-query", testQuery, "-trace-out", filepath.Join(dir, "trace.jsonl"),
			"-out", filepath.Join(dir, "out.axml"), c.flag, c.value}, &out, &errOut)
		if code != 2 || !strings.Contains(errOut.String(), "flag "+c.flag+": must not be negative") {
			t.Errorf("%s %s: exit %d, want 2 naming the flag: %s", c.flag, c.value, code, errOut.String())
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%s %s: created %v", c.flag, c.value, entries)
		}
	}
}

func TestBudgetWarning(t *testing.T) {
	doc := writeWorldDoc(t)
	var out, errOut strings.Builder
	code := run([]string{"-doc", doc, "-query", testQuery, "-strategy", "naive", "-max-calls", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "budget exhausted") {
		t.Fatalf("missing warning: %s", errOut.String())
	}
}

// TestRetryFlagsAgainstFlakyProvider runs the CLI against an HTTP
// provider whose every service fails its first invocation: without
// -retries the evaluation aborts, with -retries and -best-effort it
// converges to the full result set and reports the retries in -stats.
func TestRetryFlagsAgainstFlakyProvider(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	flaky := service.NewFaults(service.FaultSpec{Seed: 1, FailFirst: 1}).Wrap(w.Registry)
	srv := httptest.NewServer(soap.NewServer(flaky, false))
	defer srv.Close()
	doc := writeWorldDoc(t)

	var out, errOut strings.Builder
	if code := run([]string{"-doc", doc, "-query", testQuery, "-provider", srv.URL}, &out, &errOut); code == 0 {
		t.Fatal("fail-fast run against a flaky provider succeeded")
	}

	out.Reset()
	errOut.Reset()
	code := run([]string{
		"-doc", doc, "-query", testQuery, "-provider", srv.URL,
		"-retries", "3", "-best-effort", "-stats",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "24 result(s)") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "retries:") {
		t.Fatalf("stats miss retry counters:\n%s", errOut.String())
	}
	if strings.Contains(errOut.String(), "warning:") {
		t.Fatalf("retried run should be complete:\n%s", errOut.String())
	}
}

func TestExplainOutput(t *testing.T) {
	doc := writeWorldDoc(t)
	var out, errOut strings.Builder
	code := run([]string{"-doc", doc, "-query", testQuery, "-layer", "-explain"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"detect", "invoke", "getNearbyRestos"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("explain output misses %q:\n%s", want, errOut.String())
		}
	}
}

func TestTemplateOutput(t *testing.T) {
	doc := writeWorldDoc(t)
	var out, errOut strings.Builder
	code := run([]string{
		"-doc", doc, "-query", testQuery,
		"-template", `<pick>{$X}</pick>`,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "<results>") || !strings.Contains(out.String(), "<pick>Resto-0-0</pick>") {
		t.Fatalf("template output:\n%s", out.String())
	}
	// Bad template errors.
	if code := run([]string{"-doc", doc, "-query", testQuery, "-template", "<<<"}, &out, &errOut); code == 0 {
		t.Fatal("bad template accepted")
	}
	// Template referencing an unbound variable errors.
	if code := run([]string{"-doc", doc, "-query", testQuery, "-template", `<p>{$NOPE}</p>`}, &out, &errOut); code == 0 {
		t.Fatal("unbound template variable accepted")
	}
}

// TestPerfFlags drives the response cache, the incremental evaluator and
// the detection worker pool through the CLI surface and checks the cached
// and uncached runs agree on the results.
func TestPerfFlags(t *testing.T) {
	doc := writeWorldDoc(t)
	results := func(extra ...string) string {
		t.Helper()
		var out, errOut strings.Builder
		args := append([]string{"-doc", doc, "-query", testQuery, "-stats"}, extra...)
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("exit %d with %v: %s", code, extra, errOut.String())
		}
		if strings.Contains(strings.Join(extra, " "), "-no-cache") {
			if strings.Contains(errOut.String(), "svc cache:") {
				t.Fatalf("-no-cache still printed cache stats:\n%s", errOut.String())
			}
		} else if !strings.Contains(errOut.String(), "svc cache:") {
			t.Fatalf("cache stats missing from -stats output:\n%s", errOut.String())
		}
		return out.String()
	}
	want := results("-no-cache", "-no-incremental")
	for _, extra := range [][]string{
		{},
		{"-invoke-workers", "4"},
		{"-no-incremental"},
		{"-layer", "-invoke-workers", "8"},
		{"-cache-ttl", "1m"},
	} {
		if got := results(extra...); got != want {
			t.Fatalf("flags %v changed the results\n got %q\nwant %q", extra, got, want)
		}
	}
}
