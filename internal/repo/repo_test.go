package repo

import (
	"encoding/json"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// newDirRepo opens a repository over a fresh temp directory with a
// quiet logger (corruption tests deliberately provoke reports).
func newDirRepo(t *testing.T) (*Repo, string) {
	t.Helper()
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.Logger = log.New(io.Discard, "", 0)
	return r, dir
}

func counterValue(reg *telemetry.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

// resultKeys renders a result set order-independently by its variable
// bindings, mirroring the core differential tests.
func resultKeys(out *core.Outcome) string {
	keys := make([]string, 0, len(out.Results))
	for _, r := range out.Results {
		vars := make([]string, 0, len(r.Values))
		for k, v := range r.Values {
			vars = append(vars, "$"+k+"="+v)
		}
		sort.Strings(vars)
		keys = append(keys, strings.Join(vars, ";"))
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

func TestPutGetWarmRoundTrip(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	r, dir := newDirRepo(t)
	reg := telemetry.NewRegistry()
	r.Instrument(reg)

	if err := r.Put("hotels", w.Doc, PutOptions{Schema: w.Schema}); err != nil {
		t.Fatal(err)
	}
	if !r.Exists("hotels") || r.Exists("zzz") {
		t.Fatal("Exists misreports")
	}
	// Foreign entries in the directory are not documents.
	os.MkdirAll(filepath.Join(dir, "subdir"), 0o755)
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, ".hidden"+DocExt), []byte("x"), 0o644)
	names, err := r.List()
	if err != nil || len(names) != 1 || names[0] != "hotels" {
		t.Fatalf("List = %v, %v", names, err)
	}

	o, err := r.Get("hotels")
	if err != nil {
		t.Fatal(err)
	}
	if !o.Warm {
		t.Fatal("fresh Put did not open warm")
	}
	if o.Guide == nil || !fguide.Synced(o.Guide) || o.Guide.Doc() != o.Doc {
		t.Fatal("opened guide is not synced with the opened document")
	}
	if got, want := o.Guide.String(), fguide.Build(w.Doc).String(); got != want {
		t.Fatalf("opened guide disagrees with the stored document's\n got %q\nwant %q", got, want)
	}
	if o.Schema == nil {
		t.Fatal("schema did not survive the round trip")
	}
	if got, want := o.Schema.String(), w.Schema.String(); got != want {
		t.Fatalf("schema round trip changed it\n got %q\nwant %q", got, want)
	}
	if v := counterValue(reg, telemetry.MetricRepoWarmOpens); v != 1 {
		t.Fatalf("warm opens = %d, want 1", v)
	}
	if v := counterValue(reg, telemetry.MetricRepoRepairs); v != 0 {
		t.Fatalf("repairs = %d, want 0", v)
	}

	man, err := r.readManifest("hotels")
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || man.Format != FormatVersion || man.Name != "hotels" {
		t.Fatalf("manifest = %+v", man)
	}
	if man.Schema == nil {
		t.Fatalf("manifest missing the schema stamp: %+v", man)
	}
	if _, err := os.Stat(filepath.Join(dir, "hotels"+guideExt)); !os.IsNotExist(err) {
		t.Fatalf("Put stored a guide (err=%v)", err)
	}
}

func TestMemBackendRoundTrip(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	r, err := New(NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("w", w.Doc, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	o, err := r.Get("w")
	if err != nil {
		t.Fatal(err)
	}
	if !o.Warm || o.Schema != nil {
		t.Fatalf("Warm=%v Schema=%v; want warm, no schema", o.Warm, o.Schema)
	}
	if err := r.Delete("w"); err != nil {
		t.Fatal(err)
	}
	if r.Exists("w") {
		t.Fatal("entry survived Delete")
	}
}

// TestPutRejectsForeignOrInvalid: a name outside the repository's flat
// namespace is refused, and a guide handed to Put — even one of another
// document — is ignored: Get builds the stored document's own.
func TestPutRejectsForeignOrInvalid(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	r, _ := newDirRepo(t)
	for _, name := range []string{"../evil", "a/b", ""} {
		if err := r.Put(name, w.Doc, PutOptions{}); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
	other := workload.Hotels(workload.HotelSpec{Hotels: 3, TargetEvery: 1, FiveStarEvery: 1}).Doc
	if err := r.Put("w", w.Doc, PutOptions{Guide: fguide.Build(other)}); err != nil {
		t.Fatal(err)
	}
	o, err := r.Get("w")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := o.Guide.String(), fguide.Build(w.Doc).String(); got != want {
		t.Fatalf("the guide handed to Put leaked into the entry\n got %q\nwant %q", got, want)
	}
}

// TestFlatStoreUpgradesInPlace: a directory of bare .axml files — what
// the pre-index flat store wrote, or what an operator drops in by hand —
// opens cold once, is repaired to indexed entries, and stays
// authoritative when a document is overwritten underneath its index.
func TestFlatStoreUpgradesInPlace(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	dir := t.TempDir()
	putFlat := func(doc *tree.Document) {
		t.Helper()
		data, err := tree.MarshalIndent(doc.Root)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "w"+DocExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	putFlat(w.Doc)

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.Logger = log.New(io.Discard, "", 0)
	reg := telemetry.NewRegistry()
	r.Instrument(reg)

	o, err := r.Get("w")
	if err != nil {
		t.Fatal(err)
	}
	if o.Warm {
		t.Fatal("flat-store entry opened warm before any index existed")
	}
	if o.Guide == nil || !fguide.Synced(o.Guide) {
		t.Fatal("cold open did not rebuild a synced guide")
	}
	// A missing manifest is a cold open, not corruption.
	if v := counterValue(reg, telemetry.MetricRepoCorruptions); v != 0 {
		t.Fatalf("corruptions = %d on a plain flat-store entry", v)
	}
	if v := counterValue(reg, telemetry.MetricRepoRepairs); v != 1 {
		t.Fatalf("repairs = %d, want 1", v)
	}

	o2, err := r.Get("w")
	if err != nil {
		t.Fatal(err)
	}
	if !o2.Warm {
		t.Fatal("repaired entry did not open warm")
	}

	// A bare document write into the indexed directory makes the index
	// stale; the document is authoritative and the entry re-repairs.
	putFlat(workload.Hotels(workload.HotelSpec{Hotels: 3, TargetEvery: 1, FiveStarEvery: 1}).Doc)
	o3, err := r.Get("w")
	if err != nil {
		t.Fatal(err)
	}
	if o3.Warm {
		t.Fatal("stale index served as warm after the document changed underneath")
	}
	o4, err := r.Get("w")
	if err != nil {
		t.Fatal(err)
	}
	if !o4.Warm {
		t.Fatal("entry not repaired after stale open")
	}
}

// TestHandAuthoredDocumentLoadsTheSameGuide: a document behind an XML
// declaration is parsed by the encoding/xml fallback, the same document
// without it by the wire scanner; the cold and the warm opens of both
// must load the same tree, with the same call IDs and the same guide.
func TestHandAuthoredDocumentLoadsTheSameGuide(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	data, err := tree.MarshalIndent(w.Doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, doc := range map[string][]byte{
		"wire": data,
		"hand": append([]byte("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- by hand -->\n"), data...),
	} {
		if err := os.WriteFile(filepath.Join(dir, name+DocExt), doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.Logger = log.New(io.Discard, "", 0)

	want, wantCalls := fguide.Build(w.Doc).String(), w.Doc.Calls()
	for _, name := range []string{"wire", "hand"} {
		for _, warm := range []bool{false, true} {
			o, err := r.Get(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if o.Warm != warm {
				t.Fatalf("%s: open Warm = %t, want %t", name, o.Warm, warm)
			}
			if got := o.Guide.String(); got != want {
				t.Fatalf("%s (warm %t): guide differs from the in-memory build\n got %q\nwant %q", name, warm, got, want)
			}
			if !o.Doc.Root.Equal(w.Doc.Root) || o.Doc.Version() != w.Doc.Version() {
				t.Fatalf("%s (warm %t): loaded document differs from the generated one", name, warm)
			}
			for i, c := range o.Doc.Calls() {
				if c.ID != wantCalls[i].ID {
					t.Fatalf("%s (warm %t): call %d loaded with ID %d, generated with %d", name, warm, i, c.ID, wantCalls[i].ID)
				}
			}
		}
	}
}

// TestCorruptionNeverFailsTheQuery damages each part but the document
// in turn and requires Get to degrade exactly as documented: log, count,
// rewrite the manifest — and the opened document still answers the
// workload query identically to the undamaged baseline. A guide is only
// on disk beside a format-1 manifest; damaged or not, it is never read,
// and every open leaves none behind.
func TestCorruptionNeverFailsTheQuery(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	baseline, err := core.Evaluate(w.Doc.Clone(), w.Query, w.Registry, core.Options{Strategy: core.NaiveFixpoint})
	if err != nil {
		t.Fatal(err)
	}
	want := resultKeys(baseline)

	cases := []struct {
		name        string
		damage      func(t *testing.T, r *Repo, dir string)
		wantSchema  bool
		corruptions bool
	}{
		{
			name: "guide truncated",
			damage: func(t *testing.T, r *Repo, dir string) {
				data, err := fguide.Encode(fguide.Build(w.Doc))
				if err != nil {
					t.Fatal(err)
				}
				toFormat1(t, r, dir, data, data[:len(data)/2])
			},
			wantSchema:  true,
			corruptions: false, // the guide is never read
		},
		{
			name: "guide garbage with matching checksum",
			damage: func(t *testing.T, r *Repo, dir string) {
				garbage := []byte("AXFG1\nnot an index at all")
				toFormat1(t, r, dir, garbage, garbage)
			},
			wantSchema:  true,
			corruptions: false,
		},
		{
			name: "manifest garbage",
			damage: func(t *testing.T, r *Repo, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "w"+ManifestExt), []byte("{not json"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantSchema:  false, // no trusted manifest, so the sidecar is not adopted
			corruptions: true,
		},
		{
			name: "manifest missing",
			damage: func(t *testing.T, r *Repo, dir string) {
				if err := os.Remove(filepath.Join(dir, "w"+ManifestExt)); err != nil {
					t.Fatal(err)
				}
			},
			wantSchema:  false,
			corruptions: false,
		},
		{
			name: "schema sidecar corrupted",
			damage: func(t *testing.T, r *Repo, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "w"+SchemaExt), []byte("???"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantSchema:  false, // dropped, and no longer stamped by the rewritten manifest
			corruptions: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, dir := newDirRepo(t)
			reg := telemetry.NewRegistry()
			r.Instrument(reg)
			if err := r.Put("w", w.Doc, PutOptions{Schema: w.Schema}); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, r, dir)

			o, err := r.Get("w")
			if err != nil {
				t.Fatalf("Get failed on index damage: %v", err)
			}
			if o.Warm {
				t.Fatal("a damaged entry opened warm")
			}
			if (o.Schema != nil) != tc.wantSchema {
				t.Fatalf("Schema = %v, want present=%v", o.Schema, tc.wantSchema)
			}
			if o.Guide == nil || !fguide.Synced(o.Guide) || o.Guide.Doc() != o.Doc {
				t.Fatal("degraded open did not deliver a synced guide")
			}
			if got := counterValue(reg, telemetry.MetricRepoCorruptions) > 0; got != tc.corruptions {
				t.Fatalf("corruptions counted = %v, want %v", got, tc.corruptions)
			}
			if _, err := os.Stat(filepath.Join(dir, "w"+guideExt)); !os.IsNotExist(err) {
				t.Fatalf("a guide file survived the open (err=%v)", err)
			}

			out, err := core.Evaluate(o.Doc, w.Query, w.Registry, core.Options{
				Strategy: core.LazyNFQ, UseGuide: true, Guide: o.Guide,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := resultKeys(out); got != want {
				t.Fatalf("query after %s disagrees with baseline\n got %q\nwant %q", tc.name, got, want)
			}

			// The cold paths rewrite the manifest; every case must be warm
			// on the next open.
			o2, err := r.Get("w")
			if err != nil {
				t.Fatal(err)
			}
			if !o2.Warm {
				t.Fatalf("entry not repaired to warm after %s", tc.name)
			}
		})
	}
}

// toFormat1 rewrites entry w as a format-1 entry whose manifest stamps
// guide and whose guide file holds onDisk.
func toFormat1(t *testing.T, r *Repo, dir string, guide, onDisk []byte) {
	t.Helper()
	man, err := r.readManifest("w")
	if err != nil || man == nil {
		t.Fatalf("manifest: %v, %v", man, err)
	}
	data, err := json.Marshal(map[string]any{
		"format": 1, "name": man.Name, "doc": man.Doc, "guide": stamp(guide), "schema": man.Schema,
		"nodes": 0, "calls": 0, "paths": 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "w"+ManifestExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "w"+guideExt), onDisk, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptDocumentFailsGet(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	r, dir := newDirRepo(t)
	if err := r.Put("w", w.Doc, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "w"+DocExt), []byte("<broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("w"); err == nil {
		t.Fatal("Get succeeded on an unparseable document")
	}
	if _, err := r.Get("missing"); err == nil {
		t.Fatal("Get succeeded on a missing document")
	}
}

func TestDeleteRemovesEveryPart(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	r, dir := newDirRepo(t)
	if err := r.Put("w", w.Doc, PutOptions{Schema: w.Schema}); err != nil {
		t.Fatal(err)
	}
	// A guide file left by a format-1 entry goes with the rest.
	if err := os.WriteFile(filepath.Join(dir, "w"+guideExt), []byte("AXFG1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("w"); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{DocExt, guideExt, SchemaExt, ManifestExt} {
		if _, err := os.Stat(filepath.Join(dir, "w"+ext)); !os.IsNotExist(err) {
			t.Fatalf("%s survived Delete (err=%v)", ext, err)
		}
	}
	if err := r.Delete("w"); err == nil {
		t.Fatal("deleting a missing entry did not error")
	}
}

func TestOpenSweepsOrphanedSidecars(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	r, dir := newDirRepo(t)
	if err := r.Put("w", w.Doc, PutOptions{Schema: w.Schema}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-Delete of a format-1 entry: the document went,
	// sidecars remain.
	if err := os.WriteFile(filepath.Join(dir, "w"+guideExt), []byte("AXFG1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "w"+DocExt)); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2.Logger = log.New(io.Discard, "", 0)
	for _, ext := range []string{guideExt, SchemaExt, ManifestExt} {
		if _, err := os.Stat(filepath.Join(dir, "w"+ext)); !os.IsNotExist(err) {
			t.Fatalf("orphaned %s survived the sweep (err=%v)", ext, err)
		}
	}
}

// TestVerifyAuditsWithoutRepairing: Verify reports a damaged schema, a
// document that moved under its manifest, a format-1 manifest and a
// missing one, and changes nothing; the next Get rewrites the manifest.
func TestVerifyAuditsWithoutRepairing(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	r, dir := newDirRepo(t)
	if err := r.Put("w", w.Doc, PutOptions{Schema: w.Schema}); err != nil {
		t.Fatal(err)
	}
	verify := func(wantOK bool) {
		t.Helper()
		rep, err := r.Verify("w")
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK != wantOK || rep.OK != (len(rep.Problems) == 0) {
			t.Fatalf("Verify = %+v, want OK %t", rep, wantOK)
		}
	}
	verify(true)

	schemaPath := filepath.Join(dir, "w"+SchemaExt)
	good, err := os.ReadFile(schemaPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(schemaPath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	verify(false)
	if data, err := os.ReadFile(schemaPath); err != nil || string(data) != "junk" {
		t.Fatalf("Verify modified the entry (data=%q err=%v)", data, err)
	}
	if err := os.WriteFile(schemaPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	verify(true)

	for name, damage := range map[string]func(){
		"document moved": func() {
			data, err := tree.MarshalIndent(workload.Hotels(workload.HotelSpec{Hotels: 3, TargetEvery: 1, FiveStarEvery: 1}).Doc.Root)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "w"+DocExt), data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"format 1": func() { toFormat1(t, r, dir, []byte("AXFG1\n"), []byte("AXFG1\n")) },
		"no manifest": func() {
			if err := os.Remove(filepath.Join(dir, "w"+ManifestExt)); err != nil {
				t.Fatal(err)
			}
		},
	} {
		damage()
		verify(false)
		if _, err := r.Get("w"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		verify(true)
	}
}

// randomSpec mirrors the core differential tests' world generator.
func randomSpec(seed int64) workload.HotelSpec {
	state := uint64(seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state >> 33 % uint64(n))
	}
	spec := workload.HotelSpec{
		Hotels:         1 + next(10),
		HiddenHotels:   next(5),
		TargetEvery:    1 + next(4),
		FiveStarEvery:  1 + next(3),
		RestosPerCall:  next(5),
		MuseumsPerCall: next(4),
		ExtrasPerCall:  next(3),
		TeaserKinds:    next(3),
		PushCapable:    next(2) == 0,
	}
	if spec.RestosPerCall > 0 {
		spec.FiveStarRestos = next(spec.RestosPerCall + 1)
	}
	if next(2) == 0 {
		spec.IntensionalRatingEvery = 1 + next(3)
		spec.RatingChainDepth = next(3)
	}
	if next(2) == 0 {
		spec.MaterializedRestos = next(4)
	}
	return spec
}

// TestWarmVsColdDifferential is the restart-path acceptance net: over 20
// random worlds persisted and reopened, a warm open (manifest intact,
// the opened guide adopted with zero engine-side builds) and a cold open
// (manifest removed, rewritten by the open) must deliver the same index
// and answer the workload query bit-identically to the naive fixpoint
// over the original in-memory world.
func TestWarmVsColdDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential testing is not short")
	}
	r, _ := newDirRepo(t)
	reg := telemetry.NewRegistry()
	r.Instrument(reg)

	const seeds = 20
	for seed := int64(0); seed < seeds; seed++ {
		spec := randomSpec(seed)
		w := workload.Hotels(spec)
		baseline, err := core.Evaluate(w.Doc.Clone(), w.Query, w.Registry, core.Options{Strategy: core.NaiveFixpoint})
		if err != nil {
			t.Fatalf("seed %d: naive failed: %v", seed, err)
		}
		want := resultKeys(baseline)

		name := "w" + string(rune('a'+seed))
		if err := r.Put(name, w.Doc, PutOptions{Schema: w.Schema}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Warm: the opened guide is adopted end to end — the engine must
		// not build a guide at all.
		warm, err := r.Get(name)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !warm.Warm || warm.Schema == nil {
			t.Fatalf("seed %d: warm open Warm=%v Schema=%v", seed, warm.Warm, warm.Schema != nil)
		}
		warmIndex := warm.Guide.String()
		engineReg := telemetry.NewRegistry()
		out, err := core.Evaluate(warm.Doc, w.Query, w.Registry, core.Options{
			Strategy: core.LazyNFQTyped, Schema: warm.Schema,
			UseGuide: true, Guide: warm.Guide, Metrics: engineReg,
		})
		if err != nil {
			t.Fatalf("seed %d warm: %v", seed, err)
		}
		if got := resultKeys(out); got != want {
			t.Fatalf("seed %d: warm open disagrees with naive\n got %q\nwant %q\nspec %+v",
				seed, got, want, spec)
		}
		if v := counterValue(engineReg, telemetry.MetricGuideBuilds); v != 0 {
			t.Fatalf("seed %d: warm evaluation built %d guides", seed, v)
		}
		if v := counterValue(engineReg, telemetry.MetricGuideWarm); v != 1 {
			t.Fatalf("seed %d: warm adoptions = %d, want 1", seed, v)
		}

		// Cold: remove the manifest, reopen, evaluate.
		if err := r.b.Remove(name + ManifestExt); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cold, err := r.Get(name)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cold.Warm {
			t.Fatalf("seed %d: open without a manifest claims warm", seed)
		}
		if got := cold.Guide.String(); got != warmIndex {
			t.Fatalf("seed %d: warm and cold index disagree\n got %q\nwant %q", seed, got, warmIndex)
		}
		out, err = core.Evaluate(cold.Doc, w.Query, w.Registry, core.Options{
			Strategy: core.LazyNFQTyped, Schema: w.Schema,
			UseGuide: true, Guide: cold.Guide,
		})
		if err != nil {
			t.Fatalf("seed %d cold: %v", seed, err)
		}
		if got := resultKeys(out); got != want {
			t.Fatalf("seed %d: cold open disagrees with naive\n got %q\nwant %q\nspec %+v",
				seed, got, want, spec)
		}
	}
	if v := counterValue(reg, telemetry.MetricRepoWarmOpens); v != seeds {
		t.Fatalf("repo warm opens = %d, want %d", v, seeds)
	}
	if v := counterValue(reg, telemetry.MetricRepoRepairs); v != seeds {
		t.Fatalf("repo repairs = %d, want %d", v, seeds)
	}
	if v := counterValue(reg, telemetry.MetricRepoCorruptions); v != 0 {
		t.Fatalf("repo corruptions = %d, want 0", v)
	}
}
