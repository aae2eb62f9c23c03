package tree_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// wireInput is one input of the scanner/decoder differential. wire marks
// what Marshal or MarshalIndent wrote: the scanner must take it, or the
// fast path has silently stopped covering our own output.
type wireInput struct {
	name string
	data []byte
	wire bool
}

// seededSpec derives a hotels world from a seed: every structural knob of
// the generator moves, the sizes stay small.
func seededSpec(seed int) workload.HotelSpec {
	spec := workload.DefaultSpec()
	spec.Latency = 0
	spec.Hotels = 2 + seed%9
	spec.HiddenHotels = seed % 3
	spec.TargetEvery = 1 + seed%4
	spec.FiveStarEvery = 1 + seed%3
	spec.IntensionalRatingEvery = seed % 4
	spec.RatingChainDepth = seed % 3
	spec.RestosPerCall = 1 + seed%4
	spec.FiveStarRestos = seed % 2
	spec.MaterializedRestos = seed % 5
	spec.MuseumsPerCall = seed % 3
	spec.TeaserKinds = seed % 3
	spec.TagJoinEvery = seed % 3
	spec.ExtrasPerCall = seed % 4
	spec.PushCapable = seed%2 == 0
	return spec
}

// wireCorpus is what the differential walks and the fuzzer starts from.
// Documents appear as generated and again after a full evaluation has
// spliced result forests (and, with push, Tuples nodes) into them, each
// in compact and indented form.
func wireCorpus(tb testing.TB, seeds int) []wireInput {
	tb.Helper()
	var corpus []wireInput
	addDoc := func(name string, root *tree.Node) {
		for form, marshal := range map[string]func(*tree.Node) ([]byte, error){
			"compact": tree.Marshal, "indent": tree.MarshalIndent,
		} {
			b, err := marshal(root)
			if err != nil {
				tb.Fatalf("%s: %v", name, err)
			}
			corpus = append(corpus, wireInput{name + "/" + form, b, true})
		}
	}
	addEvaluated := func(name string, doc *tree.Document, q *pattern.Pattern, w *workload.World, opt core.Options) {
		doc = doc.Clone()
		if _, err := core.Evaluate(doc, q, w.Registry, opt); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		addDoc(name, doc.Root)
	}
	for seed := 0; seed < seeds; seed++ {
		spec := seededSpec(seed)
		w := workload.Hotels(spec)
		name := fmt.Sprintf("hotels-%d", seed)
		addDoc(name, w.Doc.Root)
		addEvaluated(name+"/naive", w.Doc, w.Query, w, core.Options{Strategy: core.NaiveFixpoint})
		addEvaluated(name+"/lazy-push", w.Doc, w.Query, w,
			core.Options{Strategy: core.LazyNFQTyped, Schema: w.Schema, Push: true})
	}
	reg, scenarios := workload.Suite(seededSpec(4))
	for _, sc := range scenarios {
		addDoc("suite-"+sc.Name, sc.Doc.Root)
		for i, src := range sc.Queries {
			doc := sc.Doc.Clone()
			if _, err := core.Evaluate(doc, pattern.MustParse(src), reg, core.Options{Strategy: core.NaiveFixpoint}); err != nil {
				tb.Fatalf("%s: %v", sc.Name, err)
			}
			addDoc(fmt.Sprintf("suite-%s/q%d", sc.Name, i), doc.Root)
		}
	}

	// Every character xml.EscapeText rewrites, in text, in a service name
	// and in a pushed payload, beside text that needs no escape at all.
	awkward := "a<b>&\"'\t\n\r]]> é世\U0001F600�  "
	r := tree.NewElement("r")
	r.Append(tree.NewText(awkward))
	r.Append(tree.NewCall("svc "+awkward, tree.NewElement("p"), tree.NewText(awkward), tree.NewCall("inner")))
	r.Append(tree.NewTuples(`//q[a="x"]`+awkward, []tree.Binding{{"X": awkward, "Y": ""}, {}}))
	r.Append(tree.NewTuples("", nil))
	r.Append(tree.NewElement("e")).Append(tree.NewText("plain"))
	addDoc("escapes", r)

	for i, s := range tree.CodecSeeds {
		corpus = append(corpus, wireInput{fmt.Sprintf("codec-seed-%d", i), []byte(s), false})
	}
	for i, s := range tree.NearMissInputs() {
		corpus = append(corpus, wireInput{fmt.Sprintf("near-miss-%d", i), []byte(s), false})
	}
	files, err := filepath.Glob("testdata/fuzz/*/*")
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range files {
		corpus = append(corpus, wireInput{f, fuzzFileInput(tb, f), false})
	}
	return corpus
}

// fuzzFileInput reads the []byte argument of a "go test fuzz v1" file.
func fuzzFileInput(tb testing.TB, path string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		tb.Fatalf("%s: not a one-argument []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// sameTree reports the first difference between two subtrees, IDs and
// parent links included ("" when there is none).
func sameTree(a, b *tree.Node) string {
	if a.Kind != b.Kind || a.Label != b.Label || a.ID != b.ID || a.PushedQuery != b.PushedQuery {
		return fmt.Sprintf("%v %q id %d query %q vs %v %q id %d query %q",
			a.Kind, a.Label, a.ID, a.PushedQuery, b.Kind, b.Label, b.ID, b.PushedQuery)
	}
	if fmt.Sprint(a.PushedBindings) != fmt.Sprint(b.PushedBindings) || (a.PushedBindings == nil) != (b.PushedBindings == nil) {
		return fmt.Sprintf("bindings %v vs %v", a.PushedBindings, b.PushedBindings)
	}
	if len(a.Children) != len(b.Children) {
		return fmt.Sprintf("%q: %d vs %d children", a.Label, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if a.Children[i].Parent != a || b.Children[i].Parent != b {
			return fmt.Sprintf("%q: child %d has the wrong parent", a.Label, i)
		}
		if d := sameTree(a.Children[i], b.Children[i]); d != "" {
			return d
		}
	}
	return ""
}

func sameForest(a, b []*tree.Node) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d roots", len(a), len(b))
	}
	for i := range a {
		if a[i].Parent != nil || b[i].Parent != nil {
			return fmt.Sprintf("root %d is attached", i)
		}
		if d := sameTree(a[i], b[i]); d != "" {
			return d
		}
	}
	return ""
}

// checkScanMatchesDecode is the contract of the wire scanner on one
// input: it either declines, or yields exactly the decoder's forest —
// and through the public entry points the result (forest, document IDs,
// Version, the next ID handed out) or the failure is the decoder's
// either way, and so are the document's node, call and service counts.
// It reports whether the scanner took the input.
func checkScanMatchesDecode(t *testing.T, data []byte) bool {
	t.Helper()
	want, wantErr := tree.DecodeForest(data)
	got, scanned := tree.ScanForest(data)
	if scanned {
		if wantErr != nil {
			t.Fatalf("scanner accepted what the decoder rejects (%v): %q", wantErr, data)
		}
		if d := sameForest(got, want); d != "" {
			t.Fatalf("scanner and decoder disagree (%s): %q", d, data)
		}
	}
	forest, err := tree.UnmarshalForest(data)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("UnmarshalForest: err %v, decoder %v: %q", err, wantErr, data)
	}
	if d := sameForest(forest, want); err == nil && d != "" {
		t.Fatalf("UnmarshalForest differs from the decoder (%s): %q", d, data)
	}

	doc, err := tree.Unmarshal(data)
	if wantErr != nil || len(want) != 1 || want[0].Kind != tree.Element {
		if err == nil {
			t.Fatalf("Unmarshal accepted a non-document: %q", data)
		}
		return scanned
	}
	if err != nil {
		t.Fatalf("Unmarshal: %v: %q", err, data)
	}
	ref := tree.NewDocument(want[0])
	if d := sameTree(doc.Root, ref.Root); d != "" || doc.Version() != ref.Version() {
		t.Fatalf("Unmarshal differs from NewDocument(decoded) (%s; version %d vs %d): %q",
			d, doc.Version(), ref.Version(), data)
	}
	if doc.Size() != ref.Size() || doc.Pending() != ref.Pending() || !slices.Equal(tree.ServiceNames(doc), tree.ServiceNames(ref)) {
		t.Fatalf("Unmarshal counts %d nodes, %d calls of %v; NewDocument(decoded) %d, %d of %v: %q",
			doc.Size(), doc.Pending(), tree.ServiceNames(doc), ref.Size(), ref.Pending(), tree.ServiceNames(ref), data)
	}
	a, b := tree.NewElement("next"), tree.NewElement("next")
	doc.Adopt(a)
	ref.Adopt(b)
	if a.ID != b.ID {
		t.Fatalf("next ID %d vs %d: %q", a.ID, b.ID, data)
	}
	return scanned
}

// TestScanMatchesDecode is the licence for the scanner: over generated
// and evaluated documents in both serialised forms, awkward labels, the
// fuzz seeds and the near misses, both parsers build the same forest with
// the same IDs or both fail.
func TestScanMatchesDecode(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for _, in := range wireCorpus(t, seeds) {
		if scanned := checkScanMatchesDecode(t, in.data); in.wire && !scanned {
			t.Errorf("%s: the scanner declined Marshal's own output", in.name)
		}
	}
}

// TestScanSubsetBoundary pins the fallback rule from both sides. Every
// input parses; outside the subset the scanner must not have been the one
// to take it, inside it must (or the fast path quietly narrows).
func TestScanSubsetBoundary(t *testing.T) {
	const ns = `"http://activexml.net/2004/calls"`
	for in, inside := range map[string]bool{
		`<?xml version="1.0"?><a/>`:       false,
		`<a><!-- c --></a>`:               false,
		`<a><?pi x?></a>`:                 false,
		`<a><![CDATA[x]]></a>`:            false,
		`<!DOCTYPE a><a/>`:                false,
		`<a b="c"/>`:                      false,
		`<a xmlns="urn:x"/>`:              false,
		`<a xmlns=` + ns + `/>`:           false,
		`<p:a xmlns:p="urn:x"/>`:          false,
		`<r><axml:other/></r>`:            false,
		`<r><call service="f"/></r>`:      false,
		`<r><tuple/></r>`:                 false,
		`<r><axml:call service='f'/></r>`: false,
		"<a>x\r\n</a>":                    false,
		"<a>&#x000000041;</a>":            false,
		"<a>x</a >":                       false,
		"<é/>":                            false,
		`<a>&#xD800;</a>`:                 false,
		`<r><axml:call xmlns:axml="urn:x" service="f"/></r>`:                   false,
		`<r><axml:call service="f" service="g"/></r>`:                          false,
		`<r><axml:call service="f" query="q"/></r>`:                            false,
		`<r><call xmlns=` + ns + ` service="f"><call service="g"/></call></r>`: false,

		"":                                      true,
		" \n\t":                                 true,
		"text only":                             true,
		"\ufeff<a/>":                            true,
		`<a/>text<b/>`:                          true,
		`<a.b-c_9/>`:                            true,
		`<a>x &gt; y ]] &#62; &#x10FFFF; é</a>`: true,
		"<r>\n  <call xmlns=" + ns + "\n\tservice=\"f\" />\n</r>":                                                true,
		`<r><axml:tuples query="q"/></r>`:                                                                        true,
		`<r><axml:call service="a&#xA;b` + "\n\t" + `c" xmlns:axml=` + ns + `><p>1</p></axml:call></r>`:          true,
		`<r><tuples xmlns=` + ns + ` query="q"><tuple><call>v</call><tuples/></tuple><axml:tuple/></tuples></r>`: true,
	} {
		if _, err := tree.DecodeForest([]byte(in)); err != nil {
			t.Errorf("%q: not even the decoder takes it: %v", in, err)
		}
		if scanned := checkScanMatchesDecode(t, []byte(in)); scanned != inside {
			t.Errorf("%q: taken by the scanner: %t, in the subset: %t", in, scanned, inside)
		}
	}
}

// FuzzScanMatchesDecode throws arbitrary bytes at both parsers: the
// contract of checkScanMatchesDecode must hold, nothing may panic, and
// what parses must marshal to the same bytes from either forest.
func FuzzScanMatchesDecode(f *testing.F) {
	for _, in := range wireCorpus(f, 6) {
		if len(in.data) <= 4<<10 { // minimising a mutated large document stalls the run
			f.Add(in.data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !checkScanMatchesDecode(t, data) {
			return
		}
		scanned, _ := tree.ScanForest(data)
		decoded, _ := tree.DecodeForest(data)
		var a, b bytes.Buffer
		for i := range scanned {
			x, errX := tree.Marshal(scanned[i])
			y, errY := tree.Marshal(decoded[i])
			if errX != nil || errY != nil {
				t.Fatalf("parsed forest does not marshal: %v, %v: %q", errX, errY, data)
			}
			a.Write(x)
			b.Write(y)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("same forest, different bytes:\n scanned %q\n decoded %q", a.Bytes(), b.Bytes())
		}
	})
}

// hotelsDocument is the 1000+200-hotel document of the benchmark's
// open-query-persist workload, as repo.Put stores it: tree.Marshal's
// bytes and a newline.
func hotelsDocument(tb testing.TB) (data []byte, nodes int) {
	tb.Helper()
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 1000, 200
	doc := workload.Hotels(spec).Doc
	data, err := tree.Marshal(doc.Root)
	if err != nil {
		tb.Fatal(err)
	}
	return append(data, '\n'), doc.Size()
}

// TestUnmarshalAllocationCeiling pins what the slab and intern design
// buys: loading a stored document costs a few allocations per slab, not
// several per node (the decoder: 9.3 per node).
func TestUnmarshalAllocationCeiling(t *testing.T) {
	data, nodes := hotelsDocument(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := tree.Unmarshal(data); err != nil {
			t.Fatal(err)
		}
	})
	if perNode := allocs / float64(nodes); perNode > 0.1 {
		t.Fatalf("tree.Unmarshal: %.0f allocations for %d nodes = %.2f per node, ceiling 0.1", allocs, nodes, perNode)
	} else {
		t.Logf("tree.Unmarshal: %.0f allocations for %d nodes = %.4f per node", allocs, nodes, perNode)
	}
}

// BenchmarkUnmarshal loads the stored form of the 1000+200-hotel
// document. fallback is the same bytes behind an XML declaration, which
// sends them through the encoding/xml decoder.
func BenchmarkUnmarshal(b *testing.B) {
	data, _ := hotelsDocument(b)
	for name, in := range map[string][]byte{
		"wire":     data,
		"fallback": append([]byte("<?xml version=\"1.0\"?>\n"), data...),
	} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Unmarshal(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
