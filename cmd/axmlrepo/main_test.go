package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

func worldFile(t *testing.T) string {
	t.Helper()
	w := workload.Hotels(workload.DefaultSpec())
	b, err := tree.MarshalIndent(w.Doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func repoRun(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(append([]string{"-dir", dir}, args...), &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestPutListGetDelete(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	file := worldFile(t)
	out, errOut, code := repoRun(t, dir, "put", "hotels", file)
	if code != 0 {
		t.Fatalf("put: %s", errOut)
	}
	if !strings.Contains(out, "stored hotels") {
		t.Fatalf("put output: %s", out)
	}
	out, _, code = repoRun(t, dir, "list")
	if code != 0 || strings.TrimSpace(out) != "hotels" {
		t.Fatalf("list: %q", out)
	}
	out, _, code = repoRun(t, dir, "get", "hotels")
	if code != 0 || !strings.Contains(out, "<hotels>") {
		t.Fatalf("get: %.80q", out)
	}
	_, _, code = repoRun(t, dir, "delete", "hotels")
	if code != 0 {
		t.Fatal("delete failed")
	}
	out, _, _ = repoRun(t, dir, "list")
	if strings.TrimSpace(out) != "" {
		t.Fatalf("list after delete: %q", out)
	}
}

func TestQueryAndSaveAmortises(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	file := worldFile(t)
	if _, errOut, code := repoRun(t, dir, "put", "hotels", file); code != 0 {
		t.Fatal(errOut)
	}
	query := `/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X] -> $X`
	out, errOut, code := repoRun(t, dir, "-save", "query", "hotels", query)
	if code != 0 {
		t.Fatalf("query: %s", errOut)
	}
	if !strings.Contains(out, "24 result(s)") || !strings.Contains(out, "saved materialised") {
		t.Fatalf("query output: %s", out)
	}
	// Second query over the saved document invokes nothing.
	out, _, code = repoRun(t, dir, "query", "hotels", query)
	if code != 0 {
		t.Fatal("second query failed")
	}
	if !strings.Contains(out, "24 result(s), 0 call(s) invoked") {
		t.Fatalf("amortisation failed: %s", out)
	}
}

func TestSchemaAndVerify(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	file := worldFile(t)
	w := workload.Hotels(workload.DefaultSpec())
	schemaPath := filepath.Join(t.TempDir(), "hotels.schema")
	if err := os.WriteFile(schemaPath, []byte(w.Schema.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := repoRun(t, dir, "-schema", schemaPath, "put", "hotels", file)
	if code != 0 {
		t.Fatalf("put -schema: %s", errOut)
	}
	if !strings.Contains(out, "stored hotels (") {
		t.Fatalf("put output: %s", out)
	}
	out, _, code = repoRun(t, dir, "verify")
	if code != 0 || out != "ok   hotels\n" {
		t.Fatalf("verify: %q (code %d)", out, code)
	}

	// Remove the manifest: verify must fail loudly, a query still
	// answers, and its open rewrites the manifest.
	if err := os.Remove(filepath.Join(dir, "hotels.manifest")); err != nil {
		t.Fatal(err)
	}
	out, _, code = repoRun(t, dir, "verify", "hotels")
	if code == 0 || !strings.Contains(out, "FAIL hotels") {
		t.Fatalf("verify passed an entry without a manifest: %q (code %d)", out, code)
	}
	query := `/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X] -> $X`
	out, errOut, code = repoRun(t, dir, "query", "hotels", query)
	if code != 0 {
		t.Fatalf("query without a manifest failed: %s", errOut)
	}
	if !strings.Contains(out, "24 result(s)") {
		t.Fatalf("query without a manifest: %s", out)
	}
	out, _, code = repoRun(t, dir, "verify", "hotels")
	if code != 0 {
		t.Fatalf("manifest not rewritten by the query's open: %q", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "hotels.fguide")); !os.IsNotExist(err) {
		t.Fatalf("a guide was stored (err=%v)", err)
	}
}

// TestDocumentedUsage runs the forms the package comment documents, with
// the flags after a subcommand's arguments; a "--" still ends the flags.
func TestDocumentedUsage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	file := worldFile(t)
	w := workload.Hotels(workload.DefaultSpec())
	schemaPath := filepath.Join(t.TempDir(), "hotels.schema")
	if err := os.WriteFile(schemaPath, []byte(w.Schema.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := repoRun(t, dir, "put", "hotels", file, "-schema", schemaPath)
	if code != 0 || !strings.Contains(out, "stored hotels") {
		t.Fatalf("put <name> <file> -schema: exit %d: %s%s", code, out, errOut)
	}
	if _, err := os.Stat(filepath.Join(dir, "hotels.schema")); err != nil {
		t.Fatalf("the schema was not stored: %v", err)
	}
	query := `/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X] -> $X`
	out, errOut, code = repoRun(t, dir, "query", "hotels", query, "-save", "-explain")
	if code != 0 || !strings.Contains(out, "saved materialised") || !strings.Contains(errOut, "explain:") {
		t.Fatalf("query <name> <query> -save -explain: exit %d: %s%s", code, out, errOut)
	}
	if _, errOut, code = repoRun(t, dir, "query", "hotels", "--", "-explain"); code == 0 || strings.Contains(errOut, "explain:") {
		t.Fatalf("-explain after -- was taken as a flag: exit %d: %s", code, errOut)
	}
}

func TestErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	cases := [][]string{
		{},
		{"frob"},
		{"put", "onlyname"},
		{"put", "name", "/nonexistent"},
		{"get"},
		{"get", "missing"},
		{"delete"},
		{"delete", "missing"},
		{"query", "missing", "/a"},
		{"query"},
	}
	for _, args := range cases {
		if _, _, code := repoRun(t, dir, args...); code == 0 {
			t.Errorf("args %v: expected failure", args)
		}
	}
	// Bad query text on an existing document.
	file := worldFile(t)
	repoRun(t, dir, "put", "d", file)
	if _, _, code := repoRun(t, dir, "query", "d", "[["); code == 0 {
		t.Error("bad query accepted")
	}
}
