package repo

import (
	"bytes"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// format1Dir holds a repository as format 1 wrote it: the suite's four
// documents at format1Spec, each with its schema, its serialised guide
// and a format-1 manifest.
const format1Dir = "testdata/format1"

// format1Spec is the world the format-1 fixture was written from.
func format1Spec() workload.HotelSpec {
	spec := workload.DefaultSpec()
	spec.Hotels = 12
	spec.HiddenHotels = 4
	return spec
}

// copyFormat1 copies the format-1 fixture into a fresh directory.
func copyFormat1(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files, err := os.ReadDir(format1Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(format1Dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestFormat1EntryMigrates opens a repository written at format 1. Each
// entry opens cold once with its document and schema byte-identical and
// the same answers to the suite's queries; the open rewrites the
// manifest at the current format and removes the guide file, so the
// next open is warm and Verify passes.
func TestFormat1EntryMigrates(t *testing.T) {
	dir := copyFormat1(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.Logger = log.New(io.Discard, "", 0)
	reg := telemetry.NewRegistry()
	r.Instrument(reg)
	services, scenarios := workload.Suite(format1Spec())

	for _, sc := range scenarios {
		docData, err := os.ReadFile(filepath.Join(format1Dir, sc.Name+DocExt))
		if err != nil {
			t.Fatal(err)
		}
		schemaData, err := os.ReadFile(filepath.Join(format1Dir, sc.Name+SchemaExt))
		if err != nil {
			t.Fatal(err)
		}
		o, err := r.Get(sc.Name)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if o.Warm {
			t.Fatalf("%s: a format-1 entry opened warm", sc.Name)
		}
		got, err := tree.MarshalIndent(o.Doc.Root)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), docData) || !o.Doc.Root.Equal(sc.Doc.Root) {
			t.Fatalf("%s: the opened document differs from the stored one", sc.Name)
		}
		if o.Schema == nil || o.Schema.String() != string(schemaData) {
			t.Fatalf("%s: schema %v, want the stored one", sc.Name, o.Schema)
		}
		if o.Guide.String() != fguide.Build(sc.Doc).String() {
			t.Fatalf("%s: the opened guide is not the document's", sc.Name)
		}
		for _, qsrc := range sc.Queries {
			q := pattern.MustParse(qsrc)
			want, err := core.Evaluate(sc.Doc.Clone(), q, services, core.Options{Strategy: core.NaiveFixpoint})
			if err != nil {
				t.Fatal(err)
			}
			out, err := core.Evaluate(o.Doc.Clone(), q, services, core.Options{
				Strategy: core.LazyNFQTyped, Schema: o.Schema, UseGuide: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if resultKeys(out) != resultKeys(want) {
				t.Fatalf("%s %q: the migrated entry answers differently", sc.Name, qsrc)
			}
		}

		for ext, want := range map[string][]byte{DocExt: docData, SchemaExt: schemaData} {
			if data, err := os.ReadFile(filepath.Join(dir, sc.Name+ext)); err != nil || !bytes.Equal(data, want) {
				t.Fatalf("%s%s rewritten by the migration (err=%v)", sc.Name, ext, err)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, sc.Name+guideExt)); !os.IsNotExist(err) {
			t.Fatalf("%s: the guide file survived the migration (err=%v)", sc.Name, err)
		}
		man, err := r.readManifest(sc.Name)
		if err != nil || man == nil || man.Format != FormatVersion || man.Schema == nil {
			t.Fatalf("%s: manifest after the migration = %+v, %v", sc.Name, man, err)
		}
		if rep, err := r.Verify(sc.Name); err != nil || !rep.OK {
			t.Fatalf("%s: Verify after the migration = %+v, %v", sc.Name, rep, err)
		}
		again, err := r.Get(sc.Name)
		if err != nil || !again.Warm || again.Schema == nil {
			t.Fatalf("%s: reopen after the migration: %+v, %v", sc.Name, again, err)
		}
	}
	if v := counterValue(reg, telemetry.MetricRepoCorruptions); v != 0 {
		t.Fatalf("a format-1 repository counted %d corruptions", v)
	}
	if v := counterValue(reg, telemetry.MetricRepoRepairs); v != int64(len(scenarios)) {
		t.Fatalf("repairs = %d, want one per entry (%d)", v, len(scenarios))
	}
}
