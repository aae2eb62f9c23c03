package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// noTempFiles fails the test if a write left a temp file behind.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestPutSyncDefaultsAndToggle: WriteFileAtomic round-trips with fsync
// both enabled and disabled — the sync path must not change what lands
// on disk, only when it is durable.
func TestPutSyncDefaultsAndToggle(t *testing.T) {
	dir := t.TempDir()
	data := []byte("<r><a>v</a></r>\n")
	for name, sync := range map[string]bool{"synced": true, "unsynced": false} {
		if err := WriteFileAtomic(dir, name+Extension, data, sync); err != nil {
			t.Fatal(err)
		}
		back, err := os.ReadFile(filepath.Join(dir, name+Extension))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("%s: round trip mismatch: %q", name, back)
		}
	}
	// No temp files may survive either path.
	noTempFiles(t, dir)
}

func TestOverwriteIsAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	for _, content := range []string{"<first/>", "<other/>"} {
		if err := WriteFileAtomic(dir, "d"+Extension, []byte(content), true); err != nil {
			t.Fatal(err)
		}
	}
	back, err := os.ReadFile(filepath.Join(dir, "d"+Extension))
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != "<other/>" {
		t.Fatalf("overwrite lost: %q", back)
	}
	noTempFiles(t, dir)
}

func TestNameValidation(t *testing.T) {
	for _, bad := range []string{"", "../escape", "a/b", "a b", "läbel", "x..y"} {
		if err := ValidName(bad); err == nil {
			t.Errorf("ValidName(%q): expected error", bad)
		}
	}
	for _, good := range []string{"hotels", "a-b_c.v2", "X9"} {
		if err := ValidName(good); err != nil {
			t.Errorf("ValidName(%q): %v", good, err)
		}
	}
}

// TestConcurrentPutsAndGets: with writers replacing a file while readers
// read it, and no lock between them, every read sees one writer's
// complete content — never a mix, a prefix or a missing file.
func TestConcurrentPutsAndGets(t *testing.T) {
	dir := t.TempDir()
	versions := [][]byte{
		bytes.Repeat([]byte("a"), 1<<16),
		bytes.Repeat([]byte("b"), 1<<15),
	}
	if err := WriteFileAtomic(dir, "d", versions[0], false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if err := WriteFileAtomic(dir, "d", versions[i/2%2], false); err != nil {
					t.Error(err)
				}
				return
			}
			got, err := os.ReadFile(filepath.Join(dir, "d"))
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, versions[0]) && !bytes.Equal(got, versions[1]) {
				t.Errorf("torn read: %d bytes starting %q", len(got), got[:1])
			}
		}(i)
	}
	wg.Wait()
	noTempFiles(t, dir)
}

func TestPutIntoUnwritableDir(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("root ignores permissions")
	}
	dir := t.TempDir() + "/ro"
	if err := os.Mkdir(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if err := WriteFileAtomic(dir, "d"+Extension, []byte("<r/>"), true); err == nil {
		t.Fatal("write into read-only dir must fail")
	}
}
