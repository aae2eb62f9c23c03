package repo

import (
	"bytes"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// persistWorld is the 1000+200-hotel world of the benchmark's
// open-query-persist workload.
func persistWorld() *workload.World {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 1000, 200
	return workload.Hotels(spec)
}

// backends returns a fresh repository over each backend kind, with a
// quiet logger, and the directory of the DirBackend one.
func backends(t *testing.T) (map[string]*Repo, string) {
	t.Helper()
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	b.Sync = false
	repos := map[string]*Repo{}
	for name, be := range map[string]Backend{"dir": b, "mem": NewMemBackend()} {
		r, err := New(be)
		if err != nil {
			t.Fatal(err)
		}
		r.Logger = log.New(io.Discard, "", 0)
		repos[name] = r
	}
	return repos, dir
}

// files reads every file of the backend.
func files(t *testing.T, r *Repo) map[string][]byte {
	t.Helper()
	names, err := r.b.List()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, n := range names {
		if out[n], err = r.b.ReadFile(n); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestStoredFormIsMarshal pins what Put writes: the document is
// tree.Marshal's bytes and a newline, and the manifest stamps exactly
// the bytes that are read back.
func TestStoredFormIsMarshal(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	want, err := tree.Marshal(w.Doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	repos, _ := backends(t)
	for name, r := range repos {
		if err := r.Put("w", w.Doc, PutOptions{Schema: w.Schema}); err != nil {
			t.Fatal(err)
		}
		got, err := r.b.ReadFile("w" + DocExt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: stored document is not tree.Marshal + newline (%d bytes, want %d)", name, len(got), len(want))
		}
		man, err := r.readManifest("w")
		if err != nil || man == nil {
			t.Fatalf("%s: manifest: %v", name, err)
		}
		if man.Doc != stamp(got) {
			t.Fatalf("%s: manifest stamps %+v, the stored bytes are %+v", name, man.Doc, stamp(got))
		}
		if o, err := r.Get("w"); err != nil || !o.Warm || !o.Doc.Root.Equal(w.Doc.Root) {
			t.Fatalf("%s: the entry does not reopen warm and equal (err=%v)", name, err)
		}
	}
}

// TestIndentedEntryOpensWarm: an entry that an earlier build stored
// indented, under a manifest stamping those bytes, opens warm; its next
// Put rewrites it compact.
func TestIndentedEntryOpensWarm(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	indented, err := tree.MarshalIndent(w.Doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	indented = append(indented, '\n')
	repos, _ := backends(t)
	for name, r := range repos {
		if err := r.b.WriteFile("w"+DocExt, writeBytes(indented)); err != nil {
			t.Fatal(err)
		}
		if err := r.writeManifest("w", &Manifest{Format: FormatVersion, Name: "w", Doc: stamp(indented)}); err != nil {
			t.Fatal(err)
		}
		o, err := r.Get("w")
		if err != nil || !o.Warm || !o.Doc.Root.Equal(w.Doc.Root) {
			t.Fatalf("%s: an indented entry does not open warm and equal (err=%v)", name, err)
		}
		if err := r.Put("w", o.Doc, PutOptions{}); err != nil {
			t.Fatal(err)
		}
		got, err := r.b.ReadFile("w" + DocExt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) >= len(indented) || bytes.Contains(got, []byte("\n  ")) {
			t.Fatalf("%s: Put did not rewrite the entry compact (%d bytes, indented %d)", name, len(got), len(indented))
		}
	}
}

// TestFailedPutKeepsPreviousEntry: a Put whose document cannot be
// encoded, found after more than 64 KB of it were written, errors and
// leaves the previous entry byte-identical and warm, with no temp file
// on disk.
func TestFailedPutKeepsPreviousEntry(t *testing.T) {
	good := workload.Hotels(workload.DefaultSpec())
	bad := persistWorld().Doc
	head, err := tree.Marshal(bad.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(head) < 64<<10 {
		t.Fatalf("only %d bytes precede the bad node, want at least 64 KB", len(head))
	}
	bad.Root.Append(&tree.Node{Kind: tree.Tuples + 1})

	repos, dir := backends(t)
	for name, r := range repos {
		if err := r.Put("w", good.Doc, PutOptions{Schema: good.Schema}); err != nil {
			t.Fatal(err)
		}
		before := files(t, r)
		if err := r.Put("w", bad, PutOptions{}); err == nil || !strings.Contains(err.Error(), "cannot marshal") {
			t.Fatalf("%s: Put of an unencodable document: err = %v", name, err)
		}
		after := files(t, r)
		if len(after) != len(before) {
			t.Fatalf("%s: files %d → %d after a failed Put", name, len(before), len(after))
		}
		for f, data := range before {
			if !bytes.Equal(after[f], data) {
				t.Fatalf("%s: %s changed under a failed Put", name, f)
			}
		}
		o, err := r.Get("w")
		if err != nil || !o.Warm || o.Schema == nil || !o.Doc.Root.Equal(good.Doc.Root) {
			t.Fatalf("%s: the previous entry does not reopen warm and whole (err=%v)", name, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("a failed Put left %s", e.Name())
		}
	}
}

// TestPutAllocationCeiling pins what streaming the document into its
// file buys: a Put allocates fewer bytes than the document it stores
// (building the indented document in memory first cost seven times it).
func TestPutAllocationCeiling(t *testing.T) {
	w := persistWorld()
	repos, _ := backends(t)
	r := repos["dir"]
	put := func() {
		if err := r.Put("w", w.Doc, PutOptions{Schema: w.Schema}); err != nil {
			t.Fatal(err)
		}
	}
	put()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		put()
	}
	runtime.ReadMemStats(&after)
	perPut := (after.TotalAlloc - before.TotalAlloc) / runs
	man, err := r.readManifest("w")
	if err != nil {
		t.Fatal(err)
	}
	if perPut >= uint64(man.Doc.Bytes) {
		t.Fatalf("Put allocated %d bytes for a %d-byte document; ceiling: the document's size", perPut, man.Doc.Bytes)
	}
	t.Logf("Put allocated %d bytes for a %d-byte document", perPut, man.Doc.Bytes)
}

// BenchmarkPut stores the 1000+200-hotel document and its schema on a
// directory backend without fsync: the encode, the stamp and the writes.
func BenchmarkPut(b *testing.B) {
	w := persistWorld()
	be, err := OpenDir(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	be.Sync = false
	r, err := New(be)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := tree.Marshal(w.Doc.Root)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc) + 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Put("w", w.Doc, PutOptions{Schema: w.Schema}); err != nil {
			b.Fatal(err)
		}
	}
}
