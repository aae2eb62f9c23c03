package tree

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// hotelDoc builds a small version of the paper's Figure 1 document: a
// hotels list with extensional and intensional parts.
func hotelDoc() *Document {
	root := NewElement("hotels")
	h := root.Append(NewElement("hotel"))
	h.Append(NewElement("name")).Append(NewText("Best Western"))
	addr := h.Append(NewElement("address"))
	addr.Append(NewText("75, 2nd Av."))
	rating := h.Append(NewElement("rating"))
	rating.Append(NewCall("getRating", NewText("Best Western")))
	nearby := h.Append(NewElement("nearby"))
	nearby.Append(NewCall("getNearbyRestos", NewText("75, 2nd Av.")))
	nearby.Append(NewCall("getNearbyMuseums", NewText("75, 2nd Av.")))
	root.Append(NewCall("getHotels", NewText("NY")))
	return NewDocument(root)
}

func TestConstructorsAndKinds(t *testing.T) {
	e := NewElement("hotel")
	if !e.IsData() || e.Kind != Element || e.Label != "hotel" {
		t.Fatalf("NewElement: got %+v", e)
	}
	x := NewText("v")
	if !x.IsData() || x.Kind != Text {
		t.Fatalf("NewText: got %+v", x)
	}
	c := NewCall("f", NewText("p"))
	if c.IsData() || c.Kind != Call || len(c.Children) != 1 {
		t.Fatalf("NewCall: got %+v", c)
	}
	tu := NewTuples("q", []Binding{{"X": "a"}})
	if tu.Kind != Tuples || tu.PushedQuery != "q" {
		t.Fatalf("NewTuples: got %+v", tu)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Element: "element", Text: "text", Call: "call", Tuples: "tuples", Kind(9): "kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestAppendPanicsOnReparent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Append of attached node did not panic")
		}
	}()
	p1, p2, c := NewElement("a"), NewElement("b"), NewElement("c")
	p1.Append(c)
	p2.Append(c)
}

func TestDepthPathAndSize(t *testing.T) {
	d := hotelDoc()
	call := d.Calls()[0] // getRating
	if call.Label != "getRating" {
		t.Fatalf("document order of Calls: first is %s", call.Label)
	}
	if depth := len(call.Path()) - 1; depth != 3 {
		t.Fatalf("depth = %d, want 3", depth)
	}
	if got := call.PathString(); got != "/hotels/hotel/rating/getRating" {
		t.Fatalf("PathString = %q", got)
	}
	if d.Size() < 10 {
		t.Fatalf("Size = %d, implausibly small", d.Size())
	}
}

func TestDocumentIDsAreUniqueAndStable(t *testing.T) {
	d := hotelDoc()
	seen := map[uint64]bool{}
	d.Root.Walk(func(n *Node) bool {
		if n.ID == 0 {
			t.Errorf("node %q has zero ID", n.Label)
		}
		if seen[n.ID] {
			t.Errorf("duplicate ID %d", n.ID)
		}
		seen[n.ID] = true
		return true
	})
	call := d.Calls()[0]
	parent := call.Parent
	id := parent.ID
	d.ReplaceCall(call, []*Node{NewText("*****")})
	if call.Parent != nil {
		t.Error("replaced call still has a parent")
	}
	if parent.ID != id {
		t.Error("parent ID changed by ReplaceCall")
	}
}

func TestReplaceCallPreservesOrder(t *testing.T) {
	root := NewElement("r")
	root.Append(NewElement("a"))
	call := root.Append(NewCall("f"))
	root.Append(NewElement("z"))
	d := NewDocument(root)
	v := d.Version()
	d.ReplaceCall(call, []*Node{NewElement("b"), NewElement("c")})
	var got []string
	for _, c := range root.Children {
		got = append(got, c.Label)
	}
	if strings.Join(got, "") != "abcz" {
		t.Fatalf("sibling order after ReplaceCall = %v", got)
	}
	if d.Version() <= v {
		t.Error("ReplaceCall did not bump the version")
	}
	for _, c := range root.Children {
		if c.ID == 0 {
			t.Errorf("inserted node %q not adopted", c.Label)
		}
	}
}

func TestReplaceCallEmptyForest(t *testing.T) {
	root := NewElement("r")
	root.Append(NewElement("a"))
	call := root.Append(NewCall("f"))
	root.Append(NewElement("z"))
	d := NewDocument(root)
	d.ReplaceCall(call, nil)
	if len(root.Children) != 2 {
		t.Fatalf("empty forest should just delete the call, children=%d", len(root.Children))
	}
}

func TestReplaceCallPanics(t *testing.T) {
	d := hotelDoc()
	for name, fn := range map[string]func(){
		"non-call": func() { d.ReplaceCall(d.Root, nil) },
		"detached": func() { d.ReplaceCall(NewCall("f"), nil) },
		"attached result": func() {
			owned := NewElement("x")
			NewElement("p").Append(owned)
			d.ReplaceCall(d.Calls()[0], []*Node{owned})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// checkCounts fails unless the document's node, call and service counts
// are the ones a walk of it finds, and the ones expected.
func checkCounts(t *testing.T, d *Document, size, pending int, services ...string) {
	t.Helper()
	if d.Size() != d.Root.Size() || len(d.Calls()) != d.Pending() {
		t.Fatalf("counts %d nodes, %d calls; a walk finds %d, %d", d.Size(), d.Pending(), d.Root.Size(), len(d.Calls()))
	}
	if d.Size() != size || d.Pending() != pending || !slices.Equal(ServiceNames(d), services) {
		t.Fatalf("counts %d nodes, %d calls of %v; want %d, %d of %v", d.Size(), d.Pending(), ServiceNames(d), size, pending, services)
	}
}

// TestSpliceRecords: ReplaceCall records each splice — parent, removed call,
// the inserted calls outside other calls' parameters and those inside —
// and keeps the document's counts, and SplicesSince hands out the records
// past a version, until a mutation that is not a splice makes the document
// unable to say what happened before it.
func TestSpliceRecords(t *testing.T) {
	root := NewElement("r")
	call := root.Append(NewCall("f", NewText("p")))
	d := NewDocument(root)
	checkCounts(t, d, 3, 1, "f")
	v0 := d.Version()
	if ss, ok := d.SplicesSince(v0); !ok || len(ss) != 0 {
		t.Fatalf("SplicesSince(now) = %v, %v; want none, true", ss, ok)
	}
	inner := NewCall("h")
	g := NewCall("g", inner)
	d.ReplaceCall(call, []*Node{NewElement("a"), g})
	ss, ok := d.SplicesSince(v0)
	if !ok || len(ss) != 1 {
		t.Fatalf("SplicesSince after one splice: %d records, ok=%v", len(ss), ok)
	}
	s := ss[0]
	if s.Parent != root || s.Removed != call || len(s.Calls) != 1 || s.Calls[0] != g ||
		len(s.Nested) != 1 || s.Nested[0] != inner {
		t.Fatalf("record %+v: want parent r, removed f, calls [g], nested [h]", s)
	}
	checkCounts(t, d, 4, 2, "g", "h")
	if ss, ok := d.SplicesSince(d.Version() + 1); ok || ss != nil {
		t.Fatal("SplicesSince a future version answered")
	}
	v1 := d.Version()
	d.ReplaceCall(g, nil)
	if ss, ok := d.SplicesSince(v0); !ok || len(ss) != 2 || ss[1].Removed != g {
		t.Fatalf("SplicesSince after two splices: %v, %v", ss, ok)
	}
	checkCounts(t, d, 2, 0)
	d.Adopt(root.Append(NewElement("b")))
	d.Adopt(root.Append(NewCall("k", NewCall("k"))))
	checkCounts(t, d, 5, 2, "k")
	if _, ok := d.SplicesSince(v1); ok {
		t.Fatal("SplicesSince reached back across Adopt")
	}
	if ss, ok := d.SplicesSince(d.Version()); !ok || len(ss) != 0 {
		t.Fatalf("SplicesSince(now) after Adopt = %v, %v", ss, ok)
	}
}

// TestSpliceRecordsBounded: a document spliced more times than MaxSplices
// keeps at most MaxSplices records, the latest ones, and cannot describe
// what came before them.
func TestSpliceRecordsBounded(t *testing.T) {
	root := NewElement("r")
	n := MaxSplices + MaxSplices/2 + 3
	for i := 0; i < n; i++ {
		root.Append(NewCall("f"))
	}
	d := NewDocument(root)
	v0 := d.Version()
	calls := d.Calls()
	for i, c := range calls {
		d.ReplaceCall(c, nil)
		if len(d.splices) > MaxSplices {
			t.Fatalf("after %d splices the document keeps %d records, bound %d", i+1, len(d.splices), MaxSplices)
		}
	}
	if _, ok := d.SplicesSince(v0); ok {
		t.Fatalf("SplicesSince reached back over %d splices", n)
	}
	ss, ok := d.SplicesSince(d.Version() - MaxSplices/2)
	if !ok || len(ss) != MaxSplices/2 || ss[len(ss)-1].Removed != calls[n-1] || ss[0].Removed != calls[n-MaxSplices/2] {
		t.Fatalf("the latest MaxSplices/2 records: %d of them, ok=%v", len(ss), ok)
	}
}

// TestVersionReadDuringReplaceCall reads Version, under -race, while another
// goroutine splices every call of the document: the reads are race-free, they
// never go back, and the version ends one step per splice past where it began.
func TestVersionReadDuringReplaceCall(t *testing.T) {
	root := NewElement("r")
	const n = 500
	for i := 0; i < n; i++ {
		root.Append(NewCall("f"))
	}
	d := NewDocument(root)
	v0 := d.Version()
	calls := d.Calls()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, c := range calls {
			v := NewElement("v")
			v.Append(NewCall("g"))
			d.ReplaceCall(c, []*Node{v})
		}
	}()
	last := v0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		v := d.Version()
		if v < last || v > v0+n {
			t.Fatalf("Version read %d after %d, from %d with %d splices", v, last, v0, n)
		}
		last = v
	}
	if last != v0+n {
		t.Fatalf("Version %d after %d splices from %d, want %d", last, n, v0, v0+n)
	}
}

func TestCloneEqual(t *testing.T) {
	d := hotelDoc()
	c := d.Clone()
	if !d.Root.Equal(c.Root) {
		t.Fatal("clone not Equal to original")
	}
	// Mutating the clone must not affect the original.
	c.Root.Children[0].Label = "motel"
	if d.Root.Equal(c.Root) {
		t.Fatal("Equal ignored a label difference")
	}
}

func TestEqualCoversPayloads(t *testing.T) {
	a := NewTuples("q", []Binding{{"X": "1"}})
	b := NewTuples("q", []Binding{{"X": "1"}})
	if !a.Equal(b) {
		t.Fatal("identical tuples nodes not Equal")
	}
	b.PushedBindings[0]["X"] = "2"
	if a.Equal(b) {
		t.Fatal("Equal ignored binding difference")
	}
	if a.Equal(NewTuples("other", []Binding{{"X": "1"}})) {
		t.Fatal("Equal ignored query fingerprint")
	}
	if a.Equal(NewTuples("q", nil)) {
		t.Fatal("Equal ignored binding count")
	}
	if a.Equal(nil) {
		t.Fatal("Equal(nil) must be false for non-nil receiver")
	}
}

func TestTextAndValue(t *testing.T) {
	d := hotelDoc()
	name := d.Root.Children[0].Child("name")
	if name.Value() != "Best Western" {
		t.Fatalf("Value = %q", name.Value())
	}
	if got := name.Text(); got != "Best Western" {
		t.Fatalf("Text = %q", got)
	}
	if d.Root.Child("nosuch") != nil {
		t.Fatal("Child of missing name should be nil")
	}
	if NewCall("f").Value() != "" {
		t.Fatal("Value of a call should be empty")
	}
}

func TestBindingCloneAndString(t *testing.T) {
	b := Binding{"Y": "2", "X": "1"}
	if b.String() != "{X=1, Y=2}" {
		t.Fatalf("Binding.String = %q", b.String())
	}
	c := b.Clone()
	c["X"] = "9"
	if b["X"] != "1" {
		t.Fatal("Clone is not independent")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	d := hotelDoc()
	data, err := Marshal(d.Root)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v\n%s", err, data)
	}
	if !d.Root.Equal(d2.Root) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", d.Root, d2.Root)
	}
}

func TestMarshalIndentParsesBack(t *testing.T) {
	d := hotelDoc()
	data, err := MarshalIndent(d.Root)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal of indented output: %v", err)
	}
	if !d.Root.Equal(d2.Root) {
		t.Fatal("indented round trip mismatch")
	}
}

func TestTuplesRoundTrip(t *testing.T) {
	root := NewElement("r")
	root.Append(NewTuples("//restaurant[rating=\"*****\"]", []Binding{
		{"X": "In Delis", "Y": "2nd Ave."},
		{"X": "The Capital", "Y": "2nd Ave."},
	}))
	data, err := Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v\n%s", err, data)
	}
	tu := d2.Root.Children[0]
	if tu.Kind != Tuples || len(tu.PushedBindings) != 2 {
		t.Fatalf("tuples round trip: %+v", tu)
	}
	if tu.PushedBindings[0]["X"] != "In Delis" {
		t.Fatalf("binding lost: %v", tu.PushedBindings[0])
	}
	if !root.Equal(d2.Root) {
		t.Fatal("Equal mismatch after tuples round trip")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for name, in := range map[string]string{
		"two roots":        "<a/><b/>",
		"call root":        `<call xmlns="http://activexml.net/2004/calls" service="f"/>`,
		"call w/o service": `<x><call xmlns="http://activexml.net/2004/calls"/></x>`,

		"malformed":      "<a><b></a>",
		"junk in tuples": `<x><tuples xmlns="http://activexml.net/2004/calls"><y/></tuples></x>`,
		"empty":          "",
	} {
		if _, err := Unmarshal([]byte(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestUnmarshalLenientNamespacePrefix(t *testing.T) {
	// Documents written by hand often use the axml prefix without binding
	// the full namespace URI; the decoder accepts Space == "axml" too.
	in := `<r><axml:call service="f"><p>1</p></axml:call></r>`
	d, err := Unmarshal([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	c := d.Root.Children[0]
	if c.Kind != Call || c.Label != "f" || c.Children[0].Label != "p" {
		t.Fatalf("lenient parse: %+v", c)
	}
}

func TestUnmarshalForestAndWhitespace(t *testing.T) {
	roots, err := UnmarshalForest([]byte("\n  <a>1</a>\n  <b> x y </b>\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 {
		t.Fatalf("forest size = %d", len(roots))
	}
	if roots[1].Value() != "x y" {
		t.Fatalf("trimmed text = %q", roots[1].Value())
	}
}

// TestRoundTripProperty checks, for randomly generated trees, that
// Marshal∘Unmarshal is the identity up to Equal.
func TestRoundTripProperty(t *testing.T) {
	gen := func(seed int64) bool {
		root := randomTree(seed)
		data, err := Marshal(root)
		if err != nil {
			return false
		}
		d, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return root.Equal(d.Root)
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomTree builds a deterministic pseudo-random AXML tree from a seed.
// Labels avoid characters that are not valid in XML names.
func randomTree(seed int64) *Node {
	state := uint64(seed)*2654435761 + 12345
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	labels := []string{"a", "b", "hotel", "name", "rating"}
	services := []string{"f", "g", "getRating"}
	var build func(depth int) *Node
	build = func(depth int) *Node {
		if depth <= 0 || next(4) == 0 {
			switch next(3) {
			case 0:
				return NewText("v" + labels[next(len(labels))])
			case 1:
				return NewCall(services[next(len(services))])
			default:
				return NewElement(labels[next(len(labels))])
			}
		}
		n := NewElement(labels[next(len(labels))])
		for i := 0; i < next(4); i++ {
			c := build(depth - 1)
			// Adjacent text siblings merge into one CharData token on
			// reparse, so the generator never produces them.
			if c.Kind == Text && len(n.Children) > 0 && n.Children[len(n.Children)-1].Kind == Text {
				continue
			}
			n.Append(c)
		}
		return n
	}
	root := NewElement("root")
	for i := 0; i <= next(3); i++ {
		c := build(3)
		if c.Kind == Text && len(root.Children) > 0 && root.Children[len(root.Children)-1].Kind == Text {
			continue
		}
		root.Append(c)
	}
	return root
}

func TestWalkPruning(t *testing.T) {
	d := hotelDoc()
	count := 0
	d.Root.Walk(func(n *Node) bool {
		count++
		return n.Label != "hotel" // do not descend into the hotel
	})
	if count >= d.Size() {
		t.Fatalf("Walk did not prune: visited %d of %d", count, d.Size())
	}
}

func TestCallElementParametersRoundTrip(t *testing.T) {
	// Element-shaped call parameters inherit the serialiser's default
	// AXML namespace; they must reparse as plain data.
	root := NewElement("r")
	root.Append(NewCall("f", NewElement("p"), NewText("v")))
	data, err := Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, data)
	}
	if !root.Equal(back.Root) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", root, back.Root)
	}
	// Nested calls in parameters stay calls.
	root2 := NewElement("r")
	root2.Append(NewCall("outer", NewCall("inner")))
	data2, _ := Marshal(root2)
	back2, err := Unmarshal(data2)
	if err != nil {
		t.Fatal(err)
	}
	if !root2.Equal(back2.Root) {
		t.Fatal("nested call round trip mismatch")
	}
}
