// Package cmd holds the black-box records of the binaries under cmd/:
// each binary is built, run as a process over a table of argument vectors,
// and what it did is compared with testdata/golden.
package cmd

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/activexml/axml/internal/session"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build")

const query = `/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X] -> $X`

// vector is one run of one binary. In args, $DIR is a fresh directory of
// the run's own, $REPO one repository directory every axmlrepo run shares
// (the vectors run in table order), $DOC the demo world's document, $SCHEMA
// its schema, $PROVIDER a SOAP provider of its services and $STUB a session
// endpoint that answers every query complete and empty. A server vector
// is stopped with SIGTERM once it has printed its start-up banner and
// answers requests.
type vector struct {
	bin, name string
	server    bool
	args      []string
}

func vectors() []vector {
	q := func(bin, name string, args ...string) vector { return vector{bin: bin, name: name, args: args} }
	s := func(name string, args ...string) vector {
		return vector{bin: "axmlserver", name: name, server: true, args: args}
	}
	doc := []string{"-doc", "$DOC", "-query", query}
	withDoc := func(name string, args ...string) vector {
		return q("axmlquery", name, append(append([]string{}, doc...), args...)...)
	}
	return []vector{
		q("axmlquery", "help", "-h"),
		withDoc("stats-out", "-strategy", "lazy-nfq", "-stats", "-out", "$DIR/out.axml"),
		withDoc("typed", "-strategy", "lazy-nfq-typed", "-schema", "$SCHEMA", "-no-project", "-guide", "-relax-joins", "-stats"),
		withDoc("pool-explain", "-no-cache", "-push", "-layer", "-parallel", "-invoke-workers", "4", "-explain"),
		withDoc("plan-cost", "-no-cache", "-push", "-layer", "-invoke-workers", "4", "-plan", "cost", "-stats"),
		withDoc("budget-no-cache", "-strategy", "naive", "-no-cache", "-no-incremental", "-max-calls", "2", "-stats"),
		withDoc("cache-ttl", "-cache-ttl", "1m", "-stats"),
		withDoc("provider", "-provider", "$PROVIDER", "-retries", "2", "-timeout", "2s", "-best-effort",
			"-remote-spans", "16", "-trace-out", "$DIR/trace.jsonl"),
		withDoc("template-serve-debug", "-template", "<pick>{$X}</pick>", "-serve-debug", "127.0.0.1:0"),
		q("axmlquery", "missing-args"),
		withDoc("bad-strategy", "-strategy", "bogus", "-trace-out", "$DIR/trace.jsonl"),
		withDoc("bad-plan", "-plan", "bogus", "-trace-out", "$DIR/trace.jsonl"),
		withDoc("bad-schema-path", "-schema", "/nonexistent", "-trace-out", "$DIR/trace.jsonl"),
		withDoc("negative-max-calls", "-max-calls", "-1"),

		q("axmlserver", "help", "-h"),
		q("axmlserver", "dump-doc", "-dump-doc", "$DIR/doc.axml", "-hotels", "5"),
		s("serve", "-addr", "127.0.0.1:0", "-hotels", "5"),
		s("serve-all-flags", "-addr", "127.0.0.1:0", "-hotels", "5", "-latency", "1ms", "-push=false", "-sleep",
			"-deadline", "1s", "-recursive", "-invoke-workers", "2", "-no-cache", "-cache-ttl", "1m",
			"-max-active", "2", "-max-queued", "-1", "-retry-after", "1s", "-invoke-limit", "4",
			"-drain-timeout", "5s", "-isolated", "-plan", "cost", "-no-project",
			"-docs", "$DIR/docs", "-trace-out", "$DIR/trace.jsonl"),
		q("axmlserver", "bad-plan", "-plan", "bogus", "-trace-out", "$DIR/trace.jsonl", "-docs", "$DIR/docs"),
		q("axmlserver", "bad-addr", "-addr", "999.999.999.999:-1"),
		q("axmlserver", "bad-docs", "-addr", "127.0.0.1:0", "-trace-out", "$DIR/trace.jsonl", "-docs", "/dev/null/docs"),
		q("axmlserver", "negative-hotels", "-hotels", "-5", "-dump-doc", "$DIR/doc.axml"),

		q("axmlload", "help", "-h"),
		q("axmlload", "self-all-flags", "-self", "-clients", "1", "-requests", "20", "-tenants", "2", "-hotels", "6",
			"-seed", "3", "-json", "$DIR/load.json", "-stats-out", "$DIR/stats.json", "-trace-out", "$DIR/trace.jsonl",
			"-max-active", "2", "-max-queued", "4", "-invoke-limit", "4", "-retry-after", "1s"),
		q("axmlload", "url", "-url", "$STUB", "-clients", "1", "-requests", "6", "-isolated", "-verify=false",
			"-shed-retries", "1"),
		q("axmlload", "no-target"),
		q("axmlload", "both-targets", "-self", "-url", "http://127.0.0.1:1"),
		q("axmlload", "zero-clients", "-self", "-clients", "0"),
		q("axmlload", "trace-out-needs-self", "-url", "http://127.0.0.1:1", "-trace-out", "$DIR/trace.jsonl"),
		q("axmlload", "admission-needs-self", "-url", "http://127.0.0.1:1", "-max-active", "2"),

		q("axmlrepo", "help", "-h"),
		q("axmlrepo", "put-flags-first", "-dir", "$REPO", "-schema", "$SCHEMA", "put", "demo", "$DOC"),
		q("axmlrepo", "list", "-dir", "$REPO", "list"),
		q("axmlrepo", "query-provider", "-dir", "$REPO", "-provider", "$PROVIDER", "query", "demo", query),
		q("axmlrepo", "query-explain-save", "-dir", "$REPO", "-explain", "-save", "query", "demo", query),
		q("axmlrepo", "verify", "-dir", "$REPO", "verify"),
		q("axmlrepo", "put-documented", "-dir", "$REPO", "put", "second", "$DOC", "-schema", "$SCHEMA"),
		q("axmlrepo", "query-documented", "-dir", "$REPO", "query", "second", query, "-explain"),
		q("axmlrepo", "delete", "-dir", "$REPO", "delete", "second"),
		q("axmlrepo", "no-command", "-dir", "$REPO"),
		q("axmlrepo", "unknown-command", "-dir", "$REPO", "frob"),

		q("axmlbench", "help", "-h"),
		q("axmlbench", "list", "-list"),
		q("axmlbench", "e1-all-flags", "-exp", "E1", "-quick", "-json", "$DIR/e1.json", "-cpuprofile", "$DIR/cpu.pprof",
			"-memprofile", "$DIR/heap.pprof", "-trace-out", "$DIR/trace.jsonl"),
		q("axmlbench", "unknown-experiment", "-exp", "E99", "-trace-out", "$DIR/trace.jsonl"),
	}
}

// TestGoldenRecords runs every vector and compares its exit code, the
// files it left in $DIR, its stdout and its stderr — wall-clock fields,
// ports and temporary paths masked — with the record under
// testdata/golden/<binary>/<name>.txt. After a deliberate change of
// behaviour, rewrite them with
//
//	go test ./cmd -run TestGoldenRecords -update
//
// and review the diff.
func TestGoldenRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every binary")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "github.com/activexml/axml/cmd/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	fixtures := t.TempDir()
	w := workload.Hotels(workload.DefaultSpec())
	b, err := tree.MarshalIndent(w.Doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	docPath, schemaPath := filepath.Join(fixtures, "doc.axml"), filepath.Join(fixtures, "hotels.schema")
	if err := os.WriteFile(docPath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(schemaPath, []byte(w.Schema.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	provider := httptest.NewServer(soap.NewServer(w.Registry, false))
	defer provider.Close()
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(rw).Encode(session.QueryResponse{Complete: true})
	}))
	defer stub.Close()
	repoDir := filepath.Join(t.TempDir(), "repo")

	for _, v := range vectors() {
		dir := t.TempDir()
		expand := strings.NewReplacer("$DIR", dir, "$REPO", repoDir, "$DOC", docPath, "$SCHEMA", schemaPath,
			"$PROVIDER", provider.URL, "$STUB", stub.URL)
		args := make([]string, len(v.args))
		for i, a := range v.args {
			args[i] = expand.Replace(a)
		}
		code, stdout, stderr := runVector(t, filepath.Join(bin, v.bin), v.server, args)
		mask := strings.NewReplacer(dir, "$DIR", repoDir, "$REPO", fixtures, "$FIXTURES",
			provider.URL, "$PROVIDER", stub.URL, "$STUB")
		var rec strings.Builder
		fmt.Fprintf(&rec, "$ %s", v.bin)
		for _, a := range v.args {
			if strings.ContainsAny(a, " \"'$[*") && !strings.HasPrefix(a, "$") {
				a = "'" + a + "'"
			}
			rec.WriteString(" " + a)
		}
		fmt.Fprintf(&rec, "\nexit %d\nfiles%s\n--- stdout\n%s--- stderr\n%s",
			code, listFiles(t, dir), maskWall(mask.Replace(stdout)), maskWall(mask.Replace(stderr)))

		path := filepath.Join("testdata", "golden", v.bin, v.name+".txt")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(rec.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.String(); got != string(want) {
			t.Errorf("%s: the run differs from the record from line %d on:\n%s", path,
				firstDiffLine(got, string(want)), got)
		}
	}
}

// runVector runs one binary to its exit. A server is sent SIGTERM once
// its banner's last line is out and it answers GET /stats.
func runVector(t *testing.T, bin string, server bool, args []string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var stdout strings.Builder
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		stdout.WriteString(sc.Text() + "\n")
		if addr := portRE.FindString(sc.Text()); server && addr != "" && strings.Contains(sc.Text(), "telemetry:") {
			waitServing(t, addr)
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, _ = io.Copy(io.Discard, pipe)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(2 * time.Minute):
		_ = cmd.Process.Kill()
		t.Fatalf("%s %v did not exit", bin, args)
	}
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

// waitServing returns once addr answers GET /stats, and a moment later, so
// that the server's signal handler is installed before SIGTERM is sent.
func waitServing(t *testing.T, addr string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/stats"); err == nil {
			resp.Body.Close()
			time.Sleep(100 * time.Millisecond)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never answered GET /stats", addr)
		}
	}
}

// listFiles names what a run left in dir, marking empty files.
func listFiles(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			name += "/"
		} else if info, err := e.Info(); err == nil && info.Size() == 0 {
			name += " (empty)"
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return ""
	}
	return " " + strings.Join(names, ", ")
}

var (
	portRE     = regexp.MustCompile(`(127\.0\.0\.1|\[::\]):\d+`)
	durationRE = regexp.MustCompile(`\d+(\.\d+)?(h|ms|µs|ns|m|s)(\d+(\.\d+)?(h|ms|µs|ns|m|s))*`)
	spanWallRE = regexp.MustCompile(`wall +[\d.]+ms +self +[\d.]+ms`)
	rateRE     = regexp.MustCompile(`in [\d.]+s \([^ ]+ q/s`)
	wallLineRE = regexp.MustCompile(`^\s*(phases:|detection time:|analysis time:|\S+ latency:|axmlload: latency )`)
)

// maskWall replaces ports and what depends on the wall clock: span and
// phase timings, detection and analysis times, latency quantiles and a
// load run's duration and rate.
func maskWall(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		l = portRE.ReplaceAllString(l, "$1:PORT")
		l = spanWallRE.ReplaceAllString(l, "wall ~ self ~")
		l = rateRE.ReplaceAllString(l, "in ~s (~ q/s")
		if wallLineRE.MatchString(l) {
			l = durationRE.ReplaceAllString(l, "~")
		}
		lines[i] = l
	}
	return strings.Join(lines, "\n")
}

// firstDiffLine is the 1-based number of the first line where a and b differ.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return i + 1
		}
	}
	return len(al) + 1
}
