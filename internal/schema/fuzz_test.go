package schema

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzSchemaParse: Parse never panics, and a schema that parses prints
// (String) to text that parses back to the same String(). Seeds are
// doc/SCHEMA.md's running example, the paper's Figure 2 and the schema
// files the repository tests keep.
func FuzzSchemaParse(f *testing.F) {
	f.Add(figure2)
	doc, err := os.ReadFile("../../doc/SCHEMA.md")
	if err != nil {
		f.Fatal(err)
	}
	for i, block := range strings.Split(string(doc), "```") {
		if i%2 == 1 && strings.Contains(block, "elements:") {
			f.Add(block)
		}
	}
	fixtures, err := filepath.Glob("../repo/testdata/*/*.schema")
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no schema fixtures: %v", err)
	}
	for _, p := range fixtures {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, input string) {
		s, err := Parse(input)
		if err != nil {
			return
		}
		printed := s.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed schema does not parse: %v\n%s", err, printed)
		}
		if got := again.String(); got != printed {
			t.Fatalf("round trip changed the schema:\n%s\nbecame\n%s", printed, got)
		}
	})
}
