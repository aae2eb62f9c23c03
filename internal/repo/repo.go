// Package repo is the persistent repository of AXML documents, the one
// storage engine of an ActiveXML peer. An entry is its document, an
// optional schema and a manifest carrying a format version and a
// checksum per part. The Section 6.2 F-guide is not stored: Get builds
// it from the document in one linear pass, and call expansion patches
// it in memory (fguide.ApplyExpansion). A stored copy could not open
// faster — decoding one walks the same tree to number its nodes before
// it reads the index.
//
// The manifest is the commit point: every part is written atomically
// and the manifest last, so a crash between writes leaves at worst a
// stale manifest, never a torn entry. Reads trust the document and
// check the rest — a missing, stale or unparseable manifest is logged
// and counted, the manifest rewritten, and the open still succeeds.
// Only the document itself is load-bearing: if it is missing or
// unparseable the repository cannot invent data and the error surfaces.
//
// Schemas ride along as a second part so restored masters keep typed
// pruning across restarts (they cannot be derived from the document, so
// a corrupt schema sidecar is dropped loudly rather than rebuilt).
package repo

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
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
// bare DocExt files (flat entries) upgrades in place: the first Get
// finds no manifest, opens cold, and writes one.
const (
	DocExt      = store.Extension
	SchemaExt   = ".schema"
	ManifestExt = ".manifest"
	// guideExt is the serialised F-guide a format-1 entry also stored.
	// Nothing reads it: the first Get of such an entry removes it, and
	// Put, Delete and the sweep at open remove any left over.
	guideExt = ".fguide"
)

// FormatVersion identifies the on-disk entry format. A format-1
// manifest (the format that also stored the guide) is read as the
// current one — the fields they share mean the same — and rewritten by
// the entry's first Get; any other version opens cold and is repaired.
const FormatVersion = 2

// FileStamp fingerprints one persisted part.
type FileStamp struct {
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
}

func stamp(data []byte) FileStamp {
	sum := sha256.Sum256(data)
	return FileStamp{Bytes: len(data), SHA256: hex.EncodeToString(sum[:])}
}

// stampWriter passes writes on to w and stamps the bytes w took.
type stampWriter struct {
	w io.Writer
	h hash.Hash
	n int
}

func (s *stampWriter) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	s.h.Write(p[:n])
	s.n += n
	return n, err
}

func (s *stampWriter) stamp() FileStamp {
	return FileStamp{Bytes: s.n, SHA256: hex.EncodeToString(s.h.Sum(nil))}
}

// Manifest describes one repository entry: which parts exist and their
// checksums. It is written last on every update, making it the entry's
// commit point.
type Manifest struct {
	Format int        `json:"format"`
	Name   string     `json:"name"`
	Doc    FileStamp  `json:"doc"`
	Schema *FileStamp `json:"schema,omitempty"`
}

// Opened is the result of Get: the document with everything persisted
// alongside it, and its F-guide.
type Opened struct {
	Doc *tree.Document
	// Guide is the document's F-guide, built at open. Always non-nil and
	// synced with Doc.
	Guide *fguide.Guide
	// Schema is the persisted schema, nil if none was stored (or its
	// sidecar was corrupt — logged, never fatal).
	Schema *schema.Schema
	// Warm reports an open that rewrote nothing: the manifest is at the
	// current format and every part it stamps is intact.
	Warm bool
}

// PutOptions carries the optional parts persisted with a document.
type PutOptions struct {
	// Guide is ignored: Get builds the guide from the document.
	//
	// Deprecated: nothing reads it; benchmark/ still sets it.
	Guide *fguide.Guide
	// Schema, when non-nil, is persisted alongside so a restart keeps
	// typed pruning.
	Schema *schema.Schema
}

// Repo is a persistent repository over one backend. It is safe for
// concurrent use within one process; cross-process safety relies on the
// backend's atomic replacement.
type Repo struct {
	b  Backend
	mu sync.RWMutex

	// Logger receives corruption and repair reports; defaults to stderr.
	// Replace before concurrent use.
	Logger *log.Logger

	warmOpens   *telemetry.Counter
	repairs     *telemetry.Counter
	corruptions *telemetry.Counter
}

// New returns a repository over the given backend, sweeping orphaned
// sidecar files (parts whose document is gone — the remains of a crash
// mid-Delete) as it opens.
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

// Instrument registers the repository's counters (warm opens, manifest
// repairs, corruption detections) with the registry. A nil registry
// detaches them.
func (r *Repo) Instrument(reg *telemetry.Registry) {
	r.warmOpens = reg.Counter(telemetry.MetricRepoWarmOpens)
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
		for _, ext := range []string{guideExt, SchemaExt, ManifestExt} {
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

// Put persists the document and its schema under the given name,
// atomically replacing any previous entry. The document is encoded
// straight into its file, in the compact form tree.Marshal returns plus
// a newline, and stamped as it is written. The manifest is written
// last, committing the entry; a failed write leaves the previous entry
// as it was.
func (r *Repo) Put(name string, doc *tree.Document, opts PutOptions) error {
	if err := store.ValidName(name); err != nil {
		return err
	}
	man := &Manifest{Format: FormatVersion, Name: name}
	var schemaData []byte
	if opts.Schema != nil {
		schemaData = []byte(opts.Schema.String())
		ss := stamp(schemaData)
		man.Schema = &ss
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.b.WriteFile(name+DocExt, func(w io.Writer) error {
		sw := &stampWriter{w: w, h: sha256.New()}
		if err := tree.Encode(sw, []*tree.Node{doc.Root}, false); err != nil {
			return err
		}
		if _, err := sw.Write([]byte{'\n'}); err != nil {
			return err
		}
		man.Doc = sw.stamp()
		return nil
	}); err != nil {
		return fmt.Errorf("repo: put %s: %w", name, err)
	}
	if opts.Schema != nil {
		if err := r.b.WriteFile(name+SchemaExt, writeBytes(schemaData)); err != nil {
			return fmt.Errorf("repo: put %s: %w", name, err)
		}
	} else if err := r.b.Remove(name + SchemaExt); err != nil {
		return fmt.Errorf("repo: put %s: %w", name, err)
	}
	if err := r.b.Remove(name + guideExt); err != nil {
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
	if err := r.b.WriteFile(name+ManifestExt, writeBytes(data)); err != nil {
		return fmt.Errorf("repo: manifest %s: %w", name, err)
	}
	return nil
}

// writeBytes is the Backend.WriteFile callback of content already in
// memory.
func writeBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// Get opens an entry and builds its F-guide. The document is
// load-bearing: if missing or unparseable, Get errors. Everything else
// degrades gracefully — a missing, stale or corrupt manifest is logged
// and counted and the manifest rewritten so the next open is warm again;
// a corrupt schema sidecar is logged and dropped, and the rewritten
// manifest no longer stamps it.
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
	o := &Opened{Doc: doc, Guide: fguide.Build(doc)}

	man, reason := r.loadManifest(name, docData)
	var schemaStamp *FileStamp
	if man != nil {
		if o.Schema = r.loadSchema(name, man); o.Schema != nil {
			schemaStamp = man.Schema
		} else if man.Schema != nil && reason == "" {
			reason = "schema sidecar dropped"
		}
		if reason == "" {
			o.Warm = true
			r.warmOpens.Inc()
			return o, nil
		}
	}

	// Cold path: rewrite the manifest so the next open is warm. A failed
	// repair is logged, never fatal — the caller still gets the document.
	if reason != "" {
		r.logf("get %s: %s; rewriting the manifest", name, reason)
	}
	if err := r.repair(name, docData, schemaStamp); err != nil {
		r.logf("get %s: repair failed: %v", name, err)
	} else {
		r.repairs.Inc()
	}
	return o, nil
}

// readManifest reads and parses an entry's manifest; a missing one is
// (nil, nil).
func (r *Repo) readManifest(name string) (*Manifest, error) {
	data, err := r.b.ReadFile(name + ManifestExt)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, err
	}
	return &man, nil
}

// loadManifest reads the manifest and checks it against the document
// bytes. It returns the manifest when its stamps can be trusted — at the
// current format (empty reason) or at format 1, whose reason asks for a
// rewrite — and otherwise nil: with an empty reason when there is no
// manifest at all (a flat entry — cold but not corrupt), else why the
// entry cannot be trusted.
func (r *Repo) loadManifest(name string, docData []byte) (*Manifest, string) {
	man, err := r.readManifest(name)
	if err != nil {
		r.corruptions.Inc()
		return nil, fmt.Sprintf("manifest corrupt (%v)", err)
	}
	if man == nil {
		return nil, ""
	}
	if got := stamp(docData); man.Doc != got {
		// The document moved under the manifest (e.g. a bare file write
		// into the directory). The document is authoritative.
		return nil, "manifest is stale (document checksum changed)"
	}
	switch man.Format {
	case FormatVersion:
		return man, ""
	case 1:
		// Not corruption: a format migration, which keeps the schema.
		return man, "manifest format 1 stores the guide"
	}
	return nil, fmt.Sprintf("manifest format %d (want %d)", man.Format, FormatVersion)
}

// loadSchema returns the persisted schema, or nil after logging any
// damage — schemas cannot be rebuilt from the document, so corruption
// here drops typed pruning rather than failing the open.
func (r *Repo) loadSchema(name string, man *Manifest) *schema.Schema {
	if man.Schema == nil {
		return nil
	}
	s, err := r.readSchema(name, *man.Schema)
	if err != nil {
		r.corruptions.Inc()
		r.logf("get %s: schema sidecar %v; typed pruning lost", name, err)
	}
	return s
}

// readSchema reads and parses the schema sidecar, checking it against
// its manifest stamp.
func (r *Repo) readSchema(name string, want FileStamp) (*schema.Schema, error) {
	data, err := r.b.ReadFile(name + SchemaExt)
	if err != nil {
		return nil, fmt.Errorf("unreadable (%v)", err)
	}
	if stamp(data) != want {
		return nil, errors.New("checksum mismatch")
	}
	s, err := schema.Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("unparseable (%v)", err)
	}
	return s, nil
}

// repair rewrites an entry's manifest over the document bytes already
// on disk, stamping the schema sidecar only when the open adopted it
// (schemaStamp), after removing a format-1 guide file. Caller holds mu.
func (r *Repo) repair(name string, docData []byte, schemaStamp *FileStamp) error {
	if err := r.b.Remove(name + guideExt); err != nil {
		return err
	}
	return r.writeManifest(name, &Manifest{
		Format: FormatVersion,
		Name:   name,
		Doc:    stamp(docData),
		Schema: schemaStamp,
	})
}

// Delete removes an entry — document, schema and manifest. Deleting a
// missing document errors. The manifest goes first and the document
// last, so a crash part-way leaves either a cold-openable entry or
// sidecars the next Open sweeps; no ordering can surface a manifest
// without its document.
func (r *Repo) Delete(name string) error {
	if err := store.ValidName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.b.ReadFile(name + DocExt); err != nil {
		return fmt.Errorf("repo: delete %s: %w", name, err)
	}
	for _, ext := range []string{ManifestExt, guideExt, SchemaExt, DocExt} {
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

// VerifyReport is the result of Verify for one entry.
type VerifyReport struct {
	Name string
	// OK means the manifest is at the current format and every part it
	// stamps is intact.
	OK bool
	// Problems lists everything found wrong, empty when OK.
	Problems []string
}

// Verify audits one entry without modifying it: the manifest's format,
// the document's and the schema's stamps, and that the schema parses.
// The check behind `axmlrepo verify`.
func (r *Repo) Verify(name string) (*VerifyReport, error) {
	if err := store.ValidName(name); err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	docData, err := r.b.ReadFile(name + DocExt)
	if err != nil {
		return nil, fmt.Errorf("repo: verify %s: %w", name, err)
	}
	rep := &VerifyReport{Name: name}
	problem := func(format string, a ...any) { rep.Problems = append(rep.Problems, fmt.Sprintf(format, a...)) }
	switch man, err := r.readManifest(name); {
	case err != nil:
		problem("manifest: %v", err)
	case man == nil:
		problem("no manifest")
	default:
		if man.Format != FormatVersion {
			problem("manifest format %d (want %d)", man.Format, FormatVersion)
		}
		if got := stamp(docData); man.Doc != got {
			problem("document checksum mismatch (manifest is stale)")
		}
		if man.Schema != nil {
			if _, err := r.readSchema(name, *man.Schema); err != nil {
				problem("schema sidecar %v", err)
			}
		}
	}
	rep.OK = len(rep.Problems) == 0
	return rep, nil
}
