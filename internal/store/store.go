// Package store holds the file-level persistence discipline every
// on-disk layer of an ActiveXML peer shares (the indexed repository of
// internal/repo, the statistics profiles, the benchmark's scratch
// files): writes are atomic (temp file + rename) and, when asked,
// durable (fsync of the file and its directory), and document names are
// validated so a repository cannot be escaped through path tricks.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// Extension is the file suffix of stored documents.
const Extension = ".axml"

// ValidName guards against path traversal and unusable names. It is the
// naming contract of every layer that maps document names to files
// (internal/repo).
func ValidName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty document name")
	}
	for _, c := range name {
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("store: invalid document name %q", name)
		}
	}
	if strings.Contains(name, "..") {
		return fmt.Errorf("store: invalid document name %q", name)
	}
	return nil
}

// WriteFileAtomic writes data to dir/filename through a temp file and a
// rename, so readers only ever see the old or the new content. With sync
// set the write is also durable: rename alone only orders the directory
// entry, not the data — after a crash the new name can point at an empty
// or partial file — so the temp file is fsynced before it becomes
// reachable and the directory after, putting the rename itself on stable
// storage.
func WriteFileAtomic(dir, filename string, data []byte, sync bool) error {
	tmp, err := os.CreateTemp(dir, "."+filename+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, filename)); err != nil {
		os.Remove(tmpName)
		return err
	}
	if sync {
		return syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Platforms whose directories reject fsync (it is optional in POSIX)
// degrade to the pre-sync behaviour rather than failing the write.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
