package fguide

import (
	"bytes"
	"errors"
	"testing"

	"github.com/activexml/axml/internal/regex"
	"github.com/activexml/axml/internal/tree"
)

// reparse runs the document through the tree codec, as a repository does
// between persisting and reopening: same bytes, fresh node identities.
func reparse(t *testing.T, d *tree.Document) *tree.Document {
	t.Helper()
	data, err := tree.Marshal(d.Root)
	if err != nil {
		t.Fatal(err)
	}
	return doc(t, string(data))
}

func candidatePaths(g *Guide, lin []regex.PathStep, descTail bool) []string {
	var out []string
	for _, c := range g.Candidates(lin, descTail) {
		out = append(out, c.PathString())
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	d := doc(t, sample)
	g := Build(d)
	data, err := Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	fresh := reparse(t, d)
	g2, err := Decode(fresh, data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.String() != g.String() {
		t.Fatalf("decoded guide differs:\n%s\nvs\n%s", g2, g)
	}
	if g2.Calls() != g.Calls() || g2.Paths() != g.Paths() {
		t.Fatalf("decoded counts = (%d, %d), want (%d, %d)", g2.Calls(), g2.Paths(), g.Calls(), g.Paths())
	}
	if !Synced(g2) {
		t.Fatal("decoded guide not synced with its document")
	}
	for _, tc := range []struct {
		lin      []regex.PathStep
		descTail bool
	}{
		{[]regex.PathStep{{Label: "hotels"}, {Label: "hotel"}, {Label: "rating"}}, false},
		{[]regex.PathStep{{Label: "hotels"}, {Label: "hotel"}}, true},
		{[]regex.PathStep{{Label: "hotels"}, {Label: regex.Any}, {Label: "nearby"}}, false},
		{[]regex.PathStep{{Label: "rating", AnyDepth: true}}, false},
	} {
		want := candidatePaths(g, tc.lin, tc.descTail)
		got := candidatePaths(g2, tc.lin, tc.descTail)
		if !equalStrings(got, want) {
			t.Fatalf("Candidates(%v, %v) = %v, want %v", tc.lin, tc.descTail, got, want)
		}
	}
	// Re-encoding the decoded guide is byte-identical: checksums over the
	// serialised index are stable across open/close cycles.
	data2, err := Encode(g2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding the decoded guide changed bytes")
	}
}

func TestCodecRoundTripAfterExpansion(t *testing.T) {
	d := doc(t, sample)
	g := Build(d)
	// Expand one getRating call into a result that itself carries a call,
	// maintaining the guide incrementally — the persisted-index patch path.
	var call *tree.Node
	d.Root.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.Call && n.Label == "getRating" && call == nil {
			call = n
		}
		return true
	})
	result := tree.NewElement("stars")
	result.Append(tree.NewCall("getReviews"))
	g.ApplyExpansion(d.ReplaceCall(call, []*tree.Node{result}))
	if !Synced(g) {
		t.Fatal("guide not synced after ApplyExpansion")
	}

	data, err := Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(reparse(t, d), data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.String() != g.String() {
		t.Fatalf("decoded patched guide differs:\n%s\nvs\n%s", g2, g)
	}
	// The patched guide equals a cold rebuild of the mutated document.
	if want := Build(d).String(); g2.String() != want {
		t.Fatalf("patched guide differs from cold rebuild:\n%s\nvs\n%s", g2, want)
	}
}

func TestEncodeRejectsUnsyncedGuide(t *testing.T) {
	d := doc(t, sample)
	g := Build(d)
	var call *tree.Node
	d.Root.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.Call && call == nil {
			call = n
		}
		return true
	})
	d.ReplaceCall(call, nil) // mutate behind the guide's back
	if _, err := Encode(g); err == nil {
		t.Fatal("Encode accepted a guide that missed a mutation")
	}
}

func TestDecodeRejectsWrongDocument(t *testing.T) {
	d := doc(t, sample)
	data, err := Encode(Build(d))
	if err != nil {
		t.Fatal(err)
	}
	other := doc(t, `<hotels><axml:call service="getHotels"/></hotels>`)
	if _, err := Decode(other, data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode against wrong document: err = %v, want ErrCorrupt", err)
	}
	// Same shape, different service name at one call site.
	renamed := doc(t, sample)
	renamed.Root.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.Call && n.Label == "getHotels" {
			n.Label = "getMotels"
		}
		return true
	})
	if _, err := Decode(renamed, data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode against renamed service: err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsTruncationAndNoise(t *testing.T) {
	d := doc(t, sample)
	data, err := Encode(Build(d))
	if err != nil {
		t.Fatal(err)
	}
	fresh := reparse(t, d)
	for k := 0; k < len(data); k++ {
		if _, err := Decode(fresh, data[:k]); err == nil {
			t.Fatalf("Decode accepted truncation to %d/%d bytes", k, len(data))
		}
	}
	if _, err := Decode(fresh, append(append([]byte{}, data...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode accepted trailing bytes: %v", err)
	}
	if _, err := Decode(fresh, []byte("not a guide")); !errors.Is(err, ErrCorrupt) {
		t.Fatal("Decode accepted garbage")
	}
}

func TestInspect(t *testing.T) {
	d := doc(t, sample)
	g := Build(d)
	data, err := Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Calls != g.Calls() || s.Paths != g.Paths() {
		t.Fatalf("Inspect counts = (%d, %d), want (%d, %d)", s.Calls, s.Paths, g.Calls(), g.Paths())
	}
	var nodes int
	d.Root.Walk(func(*tree.Node) bool { nodes++; return true })
	if s.DocNodes != nodes {
		t.Fatalf("Inspect.DocNodes = %d, want %d", s.DocNodes, nodes)
	}
	per, ok := s.PerPath["hotels/hotel/rating"]
	if !ok || per["getRating"] != 2 {
		t.Fatalf("Inspect.PerPath = %v, want hotels/hotel/rating → getRating:2", s.PerPath)
	}
	if per := s.PerPath["hotels"]; per["getHotels"] != 1 {
		t.Fatalf("Inspect.PerPath[hotels] = %v", per)
	}
	if _, err := Inspect(data[:len(data)-1]); err == nil {
		t.Fatal("Inspect accepted truncated data")
	}
}
