package repo

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/activexml/axml/internal/store"
)

// Backend is the byte-level storage a Repo runs over: a flat namespace
// of files with atomic replacement. Implementations must make WriteFile
// all-or-nothing (readers see the old or the new content, never a mix)
// and Remove idempotent (removing a missing file is not an error) —
// that is what lets the repository treat the manifest as a commit point
// and recover from any crash between two writes.
type Backend interface {
	// ReadFile returns the content of a file, or an error wrapping
	// fs.ErrNotExist when it is absent.
	ReadFile(name string) ([]byte, error)
	// WriteFile atomically creates or replaces a file.
	WriteFile(name string, data []byte) error
	// Remove deletes a file; a missing file is a no-op.
	Remove(name string) error
	// List returns every file name in the namespace, sorted.
	List() ([]string, error)
}

// DirBackend stores files in one directory with the atomic temp-file +
// rename + fsync discipline of store.WriteFileAtomic.
type DirBackend struct {
	dir string
	// Sync makes writes durable (fsync file and directory); see
	// store.WriteFileAtomic. OpenDir sets it.
	Sync bool
}

// OpenDir prepares a directory backend, creating the directory if
// needed. Writes are durable by default.
func OpenDir(dir string) (*DirBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repo: open %s: %w", dir, err)
	}
	return &DirBackend{dir: dir, Sync: true}, nil
}

// Dir returns the backing directory.
func (b *DirBackend) Dir() string { return b.dir }

func (b *DirBackend) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(b.dir, name))
}

func (b *DirBackend) WriteFile(name string, data []byte) error {
	return store.WriteFileAtomic(b.dir, name, data, b.Sync)
}

func (b *DirBackend) Remove(name string) error {
	err := os.Remove(filepath.Join(b.dir, name))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func (b *DirBackend) List() ([]string, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || e.Name()[0] == '.' {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// MemBackend is an in-memory backend for tests and throwaway
// repositories. The zero value is not usable; call NewMemBackend.
type MemBackend struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{files: map[string][]byte{}}
}

func (b *MemBackend) ReadFile(name string) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	data, ok := b.files[name]
	if !ok {
		return nil, fmt.Errorf("mem: %s: %w", name, fs.ErrNotExist)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

func (b *MemBackend) WriteFile(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	b.files[name] = cp
	return nil
}

func (b *MemBackend) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.files, name)
	return nil
}

func (b *MemBackend) List() ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.files))
	for n := range b.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
