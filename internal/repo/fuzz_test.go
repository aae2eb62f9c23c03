package repo

import (
	"encoding/json"
	"io"
	"log"
	"testing"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/workload"
)

// FuzzManifest stores a document with its schema and replaces the
// manifest with arbitrary bytes. The manifest is the one part Get parses
// beyond a checksum; whatever it says, Get must return the stored
// document, the stored schema or none, and a synced guide; it may report
// Warm only when the manifest is at the current format and stamps the
// document (and then must return the schema the manifest stamps),
// return the schema only when the manifest stamps it, and must leave the
// entry to open warm the next time.
func FuzzManifest(f *testing.F) {
	w := workload.Hotels(workload.HotelSpec{Hotels: 3, TargetEvery: 2, FiveStarEvery: 1, RestosPerCall: 1})
	stored := NewMemBackend()
	r, err := New(stored)
	if err != nil {
		f.Fatal(err)
	}
	if err := r.Put("w", w.Doc, PutOptions{Schema: w.Schema}); err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, ext := range []string{DocExt, SchemaExt, ManifestExt} {
		if files[ext], err = stored.ReadFile("w" + ext); err != nil {
			f.Fatal(err)
		}
	}
	docStamp, schemaStamp := stamp(files[DocExt]), stamp(files[SchemaExt])
	wantGuide := fguide.Build(w.Doc).String()

	f.Add(files[ManifestExt])
	format1, _ := json.Marshal(map[string]any{"format": 1, "name": "w", "doc": docStamp,
		"guide": stamp([]byte("AXFG1\n")), "schema": schemaStamp, "nodes": 1, "calls": 1, "paths": 1})
	f.Add(format1)
	wrongSchema, _ := json.Marshal(Manifest{Format: FormatVersion, Name: "w", Doc: docStamp, Schema: &docStamp})
	f.Add(wrongSchema)
	noSchema, _ := json.Marshal(Manifest{Format: FormatVersion, Name: "w", Doc: docStamp})
	f.Add(noSchema)
	for _, s := range []string{"", "{", "null", "[]", `{"format":2}`, `{"format":"2"}`, `{"doc":{"bytes":-1}}`} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, manifest []byte) {
		b := NewMemBackend()
		for ext, data := range files {
			b.WriteFile("w"+ext, writeBytes(data))
		}
		b.WriteFile("w"+ManifestExt, writeBytes(manifest))
		r, err := New(b)
		if err != nil {
			t.Fatal(err)
		}
		r.Logger = log.New(io.Discard, "", 0)

		o, err := r.Get("w")
		if err != nil {
			t.Fatalf("Get of an intact document failed: %v", err)
		}
		if !o.Doc.Root.Equal(w.Doc.Root) {
			t.Fatal("Get returned a document other than the stored one")
		}
		if o.Guide == nil || !fguide.Synced(o.Guide) || o.Guide.Doc() != o.Doc || o.Guide.String() != wantGuide {
			t.Fatal("Get returned a guide that is not the document's")
		}
		var man Manifest
		trusted := json.Unmarshal(manifest, &man) == nil && man.Doc == docStamp
		if o.Warm && (!trusted || man.Format != FormatVersion) {
			t.Fatalf("Warm over a manifest that is not current or does not stamp the document: %q", manifest)
		}
		if o.Warm && man.Schema != nil && o.Schema == nil {
			t.Fatalf("Warm over a manifest whose schema stamp was not honoured: %q", manifest)
		}
		if o.Schema != nil {
			if !trusted || man.Schema == nil || *man.Schema != schemaStamp {
				t.Fatalf("schema adopted under a manifest that does not stamp it: %q", manifest)
			}
			if o.Schema.String() != w.Schema.String() {
				t.Fatal("Get returned a schema other than the stored one")
			}
		}

		again, err := r.Get("w")
		if err != nil || !again.Warm {
			t.Fatalf("the entry does not reopen warm (err=%v): %q", err, manifest)
		}
		if (again.Schema != nil) != (o.Schema != nil) {
			t.Fatalf("the reopen changed the schema's presence: %q", manifest)
		}
	})
}
