package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/activexml/axml/internal/bench"
	"github.com/activexml/axml/internal/telemetry/spantest"
)

func TestList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	// Exactly the surviving experiments, one per line, in order.
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("list prints %d experiments, want %v:\n%s", len(lines), want, out.String())
	}
	for i, id := range want {
		if got := strings.Fields(lines[i])[0]; got != id {
			t.Errorf("line %d lists %s, want %s", i, got, id)
		}
	}
	// -exp's help text names the same list.
	errOut.Reset()
	run([]string{"-h"}, &out, &errOut)
	if !strings.Contains(errOut.String(), "("+strings.Join(want, ", ")+")") {
		t.Errorf("-exp help does not list the experiments:\n%s", errOut.String())
	}
}

func TestSingleExperimentQuick(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-quick", "-exp", "E2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "speedup") {
		t.Fatalf("E2 table missing:\n%s", out.String())
	}
}

// TestUnknownExperiment: a bad -exp is a flag error, reported before any
// output file is created or the CPU profile started.
func TestUnknownExperiment(t *testing.T) {
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.jsonl")
	cpu := filepath.Join(dir, "cpu.pprof")
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "E99", "-trace-out", spans, "-cpuprofile", cpu}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Fatalf("stderr: %s", errOut.String())
	}
	for _, p := range []string{spans, cpu} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s exists after a flag error (stat err=%v)", p, err)
		}
	}
}

func TestBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestJSONOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut strings.Builder
	if code := run([]string{"-quick", "-exp", "E1", "-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tables []bench.Table
	if err := json.Unmarshal(data, &tables); err != nil {
		t.Fatalf("invalid JSON written: %v", err)
	}
	if len(tables) != 1 || tables[0].ID != "E1" {
		t.Fatalf("unexpected tables: %+v", tables)
	}
	if len(tables[0].Rows) == 0 || len(tables[0].Notes) == 0 {
		t.Fatal("E1 table missing rows or notes")
	}
	// The instrumented run must report latency quantiles for the phases
	// E1's lazy strategies exercise.
	for _, name := range []string{"axml_detect_seconds", "axml_invoke_virtual_seconds"} {
		h, ok := tables[0].Metrics[name]
		if !ok || h.Count == 0 {
			t.Fatalf("metrics summary misses %s: %+v", name, tables[0].Metrics)
		}
	}
}

// TestProfileAndTraceFlags runs a quick experiment with every profiling
// output enabled and checks the artifacts are produced and parseable.
func TestProfileAndTraceFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	heap := filepath.Join(dir, "heap.pprof")
	spans := filepath.Join(dir, "spans.jsonl")
	var out, errOut strings.Builder
	code := run([]string{
		"-quick", "-exp", "E1",
		"-cpuprofile", cpu, "-memprofile", heap, "-trace-out", spans,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, p := range []string{cpu, heap} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decoded, err := spantest.DecodeJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range decoded {
		names[s.Name] = true
	}
	for _, want := range []string{"evaluate", "detect", "invoke"} {
		if !names[want] {
			t.Errorf("trace JSONL misses %q spans", want)
		}
	}
}
