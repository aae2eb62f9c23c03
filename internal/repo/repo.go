// Package repo is the persistent indexed repository of AXML documents,
// the one storage engine of an ActiveXML peer. Each document is
// persisted together with its serialized annotated F-guide (label
// paths, call-node annotations and node counts — the on-disk form of
// the Section 6.2 index, in the shape of an annotated strong dataguide)
// and a manifest carrying a format version and a checksum per part, so
// a restarted process opens documents with a warm index instead of
// rebuilding it, and call expansion patches the persisted index in
// place through fguide.ApplyExpansion instead of triggering rebuilds.
//
// The manifest is the commit point: every part is written atomically
// and the manifest last, so a crash between writes leaves at worst a
// stale index, never a torn one. Reads trust the document and verify
// the index — a bad checksum, a truncated file or a decode mismatch is
// logged and counted, the guide is rebuilt in memory, the on-disk index
// repaired, and the open still succeeds. Only the document itself is
// load-bearing: if it is missing or unparseable the repository cannot
// invent data and the error surfaces.
//
// Schemas ride along as a third part so restored masters keep
// typed pruning across restarts (they cannot be derived from the
// document, so a corrupt schema sidecar is dropped loudly rather than
// rebuilt).
package repo

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"sort"
	"strings"
	"sync"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/store"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// File extensions of the parts of one repository entry. A directory of
// bare DocExt files (flat entries) upgrades to an indexed repository in
// place: the first Get finds no manifest, opens cold, and repairs the
// entry to indexed form.
const (
	DocExt      = store.Extension
	GuideExt    = ".fguide"
	SchemaExt   = ".schema"
	ManifestExt = ".manifest"
)

// FormatVersion identifies the on-disk entry format (manifest layout +
// guide codec). Entries with a different version open cold and are
// repaired to the current format.
const FormatVersion = 1

// FileStamp fingerprints one persisted part.
type FileStamp struct {
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
}

func stamp(data []byte) FileStamp {
	sum := sha256.Sum256(data)
	return FileStamp{Bytes: len(data), SHA256: hex.EncodeToString(sum[:])}
}

// Manifest describes one repository entry: which parts exist, their
// checksums, and the index's summary counts. It is written last on
// every update, making it the entry's commit point.
type Manifest struct {
	Format int        `json:"format"`
	Name   string     `json:"name"`
	Doc    FileStamp  `json:"doc"`
	Guide  *FileStamp `json:"guide,omitempty"`
	Schema *FileStamp `json:"schema,omitempty"`
	// Nodes, Calls and Paths summarise the indexed document: total tree
	// nodes, indexed function nodes, distinct call-bearing label paths.
	Nodes int `json:"nodes"`
	Calls int `json:"calls"`
	Paths int `json:"paths"`
}

// Opened is the result of Get: the document with everything persisted
// alongside it.
type Opened struct {
	Doc *tree.Document
	// Guide is the document's F-guide, decoded from the persisted index
	// (Warm) or rebuilt in memory after a cold or corrupt open. Always
	// non-nil and synced with Doc.
	Guide *fguide.Guide
	// Schema is the persisted schema, nil if none was stored (or its
	// sidecar was corrupt — logged, never fatal).
	Schema *schema.Schema
	// Warm reports that Guide came from the persisted index with every
	// checksum intact — the no-rebuild path.
	Warm bool
}

// PutOptions carries the optional parts persisted with a document.
type PutOptions struct {
	// Guide, when non-nil, must be synced with the document and is
	// persisted as-is — this is how a draining session persists an index
	// it has been patching in place, without a rebuild. When nil the
	// index is built from the document.
	Guide *fguide.Guide
	// Schema, when non-nil, is persisted alongside so a restart keeps
	// typed pruning.
	Schema *schema.Schema
}

// Repo is a persistent indexed repository over one backend. It is safe
// for concurrent use within one process; cross-process safety relies on
// the backend's atomic replacement.
type Repo struct {
	b  Backend
	mu sync.RWMutex

	// Logger receives corruption and repair reports; defaults to stderr.
	// Replace before concurrent use.
	Logger *log.Logger

	warmOpens   *telemetry.Counter
	rebuilds    *telemetry.Counter
	repairs     *telemetry.Counter
	corruptions *telemetry.Counter
}

// New returns a repository over the given backend, sweeping orphaned
// sidecar files (index parts whose document is gone — the remains of a
// crash mid-Delete) as it opens.
func New(b Backend) (*Repo, error) {
	r := &Repo{b: b, Logger: log.New(os.Stderr, "repo: ", log.LstdFlags)}
	if err := r.sweep(); err != nil {
		return nil, err
	}
	return r, nil
}

// Open is the common case: a durable directory-backed repository.
func Open(dir string) (*Repo, error) {
	b, err := OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return New(b)
}

// Instrument registers the repository's counters (warm opens, index
// rebuilds, repairs, corruption detections) with the registry. A nil
// registry detaches them.
func (r *Repo) Instrument(reg *telemetry.Registry) {
	r.warmOpens = reg.Counter(telemetry.MetricRepoWarmOpens)
	r.rebuilds = reg.Counter(telemetry.MetricRepoRebuilds)
	r.repairs = reg.Counter(telemetry.MetricRepoRepairs)
	r.corruptions = reg.Counter(telemetry.MetricRepoCorruptions)
}

func (r *Repo) logf(format string, args ...any) {
	if r.Logger != nil {
		r.Logger.Printf(format, args...)
	}
}

// sweep removes sidecar files whose document is gone: Delete removes
// the manifest first and the document last, so a crash part-way leaves
// sidecars that this pass (run at open) retires.
func (r *Repo) sweep() error {
	files, err := r.b.List()
	if err != nil {
		return fmt.Errorf("repo: sweep: %w", err)
	}
	docs := map[string]bool{}
	for _, f := range files {
		if name, ok := strings.CutSuffix(f, DocExt); ok {
			docs[name] = true
		}
	}
	for _, f := range files {
		for _, ext := range []string{GuideExt, SchemaExt, ManifestExt} {
			if name, ok := strings.CutSuffix(f, ext); ok && !docs[name] {
				r.logf("sweeping orphaned %s (no document)", f)
				if err := r.b.Remove(f); err != nil {
					return fmt.Errorf("repo: sweep %s: %w", f, err)
				}
			}
		}
	}
	return nil
}

// countNodes returns the document's total node count.
func countNodes(doc *tree.Document) int {
	var n int
	doc.Root.Walk(func(*tree.Node) bool { n++; return true })
	return n
}

// Put persists the document and its index under the given name,
// atomically replacing any previous entry. A synced guide supplied via
// opts is encoded as-is; otherwise the guide is built fresh. The
// manifest is written last, committing the entry.
func (r *Repo) Put(name string, doc *tree.Document, opts PutOptions) error {
	if err := store.ValidName(name); err != nil {
		return err
	}
	docData, err := tree.MarshalIndent(doc.Root)
	if err != nil {
		return fmt.Errorf("repo: marshal %s: %w", name, err)
	}
	docData = append(docData, '\n')

	g := opts.Guide
	if g != nil && (g.Doc() != doc || !fguide.Synced(g)) {
		return fmt.Errorf("repo: put %s: supplied guide does not describe the document", name)
	}
	if g == nil {
		g = fguide.Build(doc)
	}
	guideData, err := fguide.Encode(g)
	if err != nil {
		return fmt.Errorf("repo: put %s: %w", name, err)
	}

	man := &Manifest{
		Format: FormatVersion,
		Name:   name,
		Doc:    stamp(docData),
		Nodes:  countNodes(doc),
		Calls:  g.Calls(),
		Paths:  g.Paths(),
	}
	gs := stamp(guideData)
	man.Guide = &gs

	var schemaData []byte
	if opts.Schema != nil {
		schemaData = []byte(opts.Schema.String())
		ss := stamp(schemaData)
		man.Schema = &ss
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.b.WriteFile(name+DocExt, docData); err != nil {
		return fmt.Errorf("repo: put %s: %w", name, err)
	}
	if err := r.b.WriteFile(name+GuideExt, guideData); err != nil {
		return fmt.Errorf("repo: put %s: %w", name, err)
	}
	if opts.Schema != nil {
		if err := r.b.WriteFile(name+SchemaExt, schemaData); err != nil {
			return fmt.Errorf("repo: put %s: %w", name, err)
		}
	} else if err := r.b.Remove(name + SchemaExt); err != nil {
		return fmt.Errorf("repo: put %s: %w", name, err)
	}
	return r.writeManifest(name, man)
}

func (r *Repo) writeManifest(name string, man *Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("repo: manifest %s: %w", name, err)
	}
	data = append(data, '\n')
	if err := r.b.WriteFile(name+ManifestExt, data); err != nil {
		return fmt.Errorf("repo: manifest %s: %w", name, err)
	}
	return nil
}

// Get opens an entry. The document is load-bearing: if missing or
// unparseable, Get errors. Everything else degrades gracefully — a
// missing, stale or corrupt index is logged and counted, the guide
// rebuilt in memory, and the on-disk index repaired so the next open is
// warm again; a corrupt schema sidecar is logged and dropped. Get never
// fails a query because of index damage.
func (r *Repo) Get(name string) (*Opened, error) {
	if err := store.ValidName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	docData, err := r.b.ReadFile(name + DocExt)
	if err != nil {
		return nil, fmt.Errorf("repo: get %s: %w", name, err)
	}
	doc, err := tree.Unmarshal(docData)
	if err != nil {
		return nil, fmt.Errorf("repo: get %s: %w", name, err)
	}
	o := &Opened{Doc: doc}

	man, reason := r.loadManifest(name, docData)
	if man != nil {
		o.Schema = r.loadSchema(name, man)
		g, why := r.loadGuide(name, man, doc)
		if g != nil {
			o.Guide = g
			o.Warm = true
			r.warmOpens.Inc()
			return o, nil
		}
		reason = why
	}

	// Cold path: rebuild the index in memory and repair it on disk so
	// the next open is warm. Repair failures are logged, never fatal —
	// the caller still gets a correct, fully indexed document.
	if reason != "" {
		r.logf("get %s: %s; rebuilding index", name, reason)
	}
	o.Guide = fguide.Build(doc)
	r.rebuilds.Inc()
	if err := r.repair(name, docData, o); err != nil {
		r.logf("get %s: index repair failed: %v", name, err)
	} else {
		r.repairs.Inc()
	}
	return o, nil
}

// loadManifest reads and validates the manifest against the document
// bytes. A nil manifest with empty reason means no manifest at all (a
// flat entry — cold but not corrupt); a non-empty reason reports
// why the entry cannot be trusted.
func (r *Repo) loadManifest(name string, docData []byte) (*Manifest, string) {
	data, err := r.b.ReadFile(name + ManifestExt)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ""
	}
	if err != nil {
		r.corruptions.Inc()
		return nil, fmt.Sprintf("manifest unreadable (%v)", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		r.corruptions.Inc()
		return nil, fmt.Sprintf("manifest corrupt (%v)", err)
	}
	if man.Format != FormatVersion {
		// Not corruption: a format migration opens cold and rewrites.
		return nil, fmt.Sprintf("manifest format %d (want %d)", man.Format, FormatVersion)
	}
	if got := stamp(docData); man.Doc != got {
		// The document moved under the manifest (e.g. a bare file write
		// into an indexed directory). The document is authoritative.
		return nil, "index is stale (document checksum changed)"
	}
	return &man, ""
}

// loadSchema returns the persisted schema, or nil after logging any
// damage — schemas cannot be rebuilt from the document, so corruption
// here drops typed pruning rather than failing the open.
func (r *Repo) loadSchema(name string, man *Manifest) *schema.Schema {
	if man.Schema == nil {
		return nil
	}
	data, err := r.b.ReadFile(name + SchemaExt)
	if err != nil {
		r.corruptions.Inc()
		r.logf("get %s: schema sidecar unreadable (%v); typed pruning lost", name, err)
		return nil
	}
	if got := stamp(data); *man.Schema != got {
		r.corruptions.Inc()
		r.logf("get %s: schema sidecar checksum mismatch; typed pruning lost", name)
		return nil
	}
	s, err := schema.Parse(string(data))
	if err != nil {
		r.corruptions.Inc()
		r.logf("get %s: schema sidecar unparseable (%v); typed pruning lost", name, err)
		return nil
	}
	return s
}

// loadGuide decodes the persisted index against the document. Any
// failure is counted as corruption and explained in the reason.
func (r *Repo) loadGuide(name string, man *Manifest, doc *tree.Document) (*fguide.Guide, string) {
	if man.Guide == nil {
		return nil, "manifest has no index"
	}
	data, err := r.b.ReadFile(name + GuideExt)
	if err != nil {
		r.corruptions.Inc()
		return nil, fmt.Sprintf("index unreadable (%v)", err)
	}
	if got := stamp(data); *man.Guide != got {
		r.corruptions.Inc()
		return nil, "index checksum mismatch"
	}
	g, err := fguide.Decode(doc, data)
	if err != nil {
		r.corruptions.Inc()
		return nil, fmt.Sprintf("index decode failed (%v)", err)
	}
	return g, ""
}

// repair rewrites the index parts of an entry from an in-memory open:
// guide file, schema sidecar (when a valid schema survived), then the
// manifest over the document bytes already on disk. Caller holds mu.
func (r *Repo) repair(name string, docData []byte, o *Opened) error {
	guideData, err := fguide.Encode(o.Guide)
	if err != nil {
		return err
	}
	man := &Manifest{
		Format: FormatVersion,
		Name:   name,
		Doc:    stamp(docData),
		Nodes:  countNodes(o.Doc),
		Calls:  o.Guide.Calls(),
		Paths:  o.Guide.Paths(),
	}
	gs := stamp(guideData)
	man.Guide = &gs
	if err := r.b.WriteFile(name+GuideExt, guideData); err != nil {
		return err
	}
	if o.Schema != nil {
		schemaData := []byte(o.Schema.String())
		ss := stamp(schemaData)
		man.Schema = &ss
		if err := r.b.WriteFile(name+SchemaExt, schemaData); err != nil {
			return err
		}
	}
	return r.writeManifest(name, man)
}

// Delete removes an entry — document, index, schema and manifest.
// Deleting a missing document errors. The manifest goes first and the
// document last, so a crash part-way leaves
// either a cold-openable entry or sidecars the next Open sweeps; no
// ordering can surface an index without its document.
func (r *Repo) Delete(name string) error {
	if err := store.ValidName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.b.ReadFile(name + DocExt); err != nil {
		return fmt.Errorf("repo: delete %s: %w", name, err)
	}
	for _, ext := range []string{ManifestExt, GuideExt, SchemaExt, DocExt} {
		if err := r.b.Remove(name + ext); err != nil {
			return fmt.Errorf("repo: delete %s: %w", name, err)
		}
	}
	return nil
}

// Exists reports whether a document is stored under the name.
func (r *Repo) Exists(name string) bool {
	if store.ValidName(name) != nil {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, err := r.b.ReadFile(name + DocExt)
	return err == nil
}

// List returns the stored document names, sorted.
func (r *Repo) List() ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	files, err := r.b.List()
	if err != nil {
		return nil, fmt.Errorf("repo: list: %w", err)
	}
	var names []string
	for _, f := range files {
		if name, ok := strings.CutSuffix(f, DocExt); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Manifest returns an entry's manifest, or nil when the entry has none
// (flat entries before their first indexed open).
func (r *Repo) Manifest(name string) (*Manifest, error) {
	if err := store.ValidName(name); err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	data, err := r.b.ReadFile(name + ManifestExt)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("repo: manifest %s: %w", name, err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("repo: manifest %s: %w", name, err)
	}
	return &man, nil
}

// Stats summarises an entry's persisted index without the document:
// the manifest plus the serialised guide's per-path call counts. The
// data behind `axmlrepo index stats`.
func (r *Repo) Stats(name string) (*Manifest, *fguide.Summary, error) {
	man, err := r.Manifest(name)
	if err != nil {
		return nil, nil, err
	}
	if man == nil || man.Guide == nil {
		return man, nil, nil
	}
	r.mu.RLock()
	data, err := r.b.ReadFile(name + GuideExt)
	r.mu.RUnlock()
	if err != nil {
		return man, nil, fmt.Errorf("repo: stats %s: %w", name, err)
	}
	sum, err := fguide.Inspect(data)
	if err != nil {
		return man, nil, fmt.Errorf("repo: stats %s: %w", name, err)
	}
	return man, sum, nil
}

// Reindex rebuilds an entry's index from its document and rewrites the
// on-disk parts, preserving a valid schema sidecar. The force behind
// `axmlrepo index build`.
func (r *Repo) Reindex(name string) (*Manifest, error) {
	if err := store.ValidName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	docData, err := r.b.ReadFile(name + DocExt)
	if err != nil {
		return nil, fmt.Errorf("repo: reindex %s: %w", name, err)
	}
	doc, err := tree.Unmarshal(docData)
	if err != nil {
		return nil, fmt.Errorf("repo: reindex %s: %w", name, err)
	}
	o := &Opened{Doc: doc, Guide: fguide.Build(doc)}
	if man, _ := r.loadManifest(name, docData); man != nil {
		o.Schema = r.loadSchema(name, man)
	}
	if err := r.repair(name, docData, o); err != nil {
		return nil, fmt.Errorf("repo: reindex %s: %w", name, err)
	}
	return r.manifestLocked(name)
}

func (r *Repo) manifestLocked(name string) (*Manifest, error) {
	data, err := r.b.ReadFile(name + ManifestExt)
	if err != nil {
		return nil, fmt.Errorf("repo: manifest %s: %w", name, err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("repo: manifest %s: %w", name, err)
	}
	return &man, nil
}

// DropIndex removes an entry's index and manifest, leaving a flat
// entry that will open cold. Used by tooling and benchmarks to measure
// the cold path; a valid schema sidecar is left in place but unindexed
// (it is re-adopted by the repair on the next Get).
func (r *Repo) DropIndex(name string) error {
	if err := store.ValidName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.b.Remove(name + ManifestExt); err != nil {
		return fmt.Errorf("repo: drop index %s: %w", name, err)
	}
	if err := r.b.Remove(name + GuideExt); err != nil {
		return fmt.Errorf("repo: drop index %s: %w", name, err)
	}
	return nil
}

// VerifyReport is the result of VerifyIndex for one entry.
type VerifyReport struct {
	Name string
	// OK means the persisted index is present, checksummed, decodable
	// and semantically identical to a fresh build from the document.
	OK bool
	// Problems lists everything found wrong, empty when OK.
	Problems []string
	// Calls and Paths are the verified (or freshly built) index counts.
	Calls, Paths int
}

// VerifyIndex audits one entry without modifying it: checksums, codec
// round-trip against the document, and semantic agreement with a fresh
// build. The check behind `axmlrepo index verify`.
func (r *Repo) VerifyIndex(name string) (*VerifyReport, error) {
	if err := store.ValidName(name); err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	docData, err := r.b.ReadFile(name + DocExt)
	if err != nil {
		return nil, fmt.Errorf("repo: verify %s: %w", name, err)
	}
	doc, err := tree.Unmarshal(docData)
	if err != nil {
		return nil, fmt.Errorf("repo: verify %s: %w", name, err)
	}
	rep := &VerifyReport{Name: name}
	fresh := fguide.Build(doc)
	rep.Calls, rep.Paths = fresh.Calls(), fresh.Paths()

	manData, err := r.b.ReadFile(name + ManifestExt)
	if err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("manifest: %v", err))
		return rep, nil
	}
	var man Manifest
	if err := json.Unmarshal(manData, &man); err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("manifest: %v", err))
		return rep, nil
	}
	if man.Format != FormatVersion {
		rep.Problems = append(rep.Problems, fmt.Sprintf("manifest format %d (want %d)", man.Format, FormatVersion))
	}
	if got := stamp(docData); man.Doc != got {
		rep.Problems = append(rep.Problems, "document checksum mismatch (index is stale)")
	}
	if man.Schema != nil {
		if data, err := r.b.ReadFile(name + SchemaExt); err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("schema: %v", err))
		} else if got := stamp(data); *man.Schema != got {
			rep.Problems = append(rep.Problems, "schema checksum mismatch")
		} else if _, err := schema.Parse(string(data)); err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("schema: %v", err))
		}
	}
	if man.Guide == nil {
		rep.Problems = append(rep.Problems, "manifest has no index")
	} else if data, err := r.b.ReadFile(name + GuideExt); err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("index: %v", err))
	} else if got := stamp(data); *man.Guide != got {
		rep.Problems = append(rep.Problems, "index checksum mismatch")
	} else if g, err := fguide.Decode(doc, data); err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("index: %v", err))
	} else if g.String() != fresh.String() {
		rep.Problems = append(rep.Problems, "index disagrees with a fresh build")
	} else {
		rep.Calls, rep.Paths = g.Calls(), g.Paths()
	}
	rep.OK = len(rep.Problems) == 0
	return rep, nil
}
