package repo

import (
	"bytes"
	"fmt"
	"io"
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
	// WriteFile atomically creates or replaces a file with what write
	// writes. If write fails, the file keeps its old content (or stays
	// absent) and WriteFile returns write's error.
	WriteFile(name string, write func(io.Writer) error) error
	// Remove deletes a file; a missing file is a no-op.
	Remove(name string) error
	// List returns every file name in the namespace, sorted.
	List() ([]string, error)
}

// DirBackend stores files in one directory with the atomic temp-file +
// rename + fsync discipline of store.WriteAtomic.
type DirBackend struct {
	dir string
	// Sync makes writes durable (fsync file and directory); see
	// store.WriteAtomic. OpenDir sets it.
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

func (b *DirBackend) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(b.dir, name))
}

func (b *DirBackend) WriteFile(name string, write func(io.Writer) error) error {
	return store.WriteAtomic(b.dir, name, write, b.Sync)
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

// WriteFile keeps the buffer write fills as the file's content.
func (b *MemBackend) WriteFile(name string, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.files[name] = buf.Bytes()
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
