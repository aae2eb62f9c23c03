package tree

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// TestUnmarshalNeverPanics feeds the decoder random bytes: errors are
// fine, panics are not.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(input []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("Unmarshal(%q) panicked: %v", input, r)
				ok = false
			}
		}()
		_, _ = Unmarshal(input)
		_, _ = UnmarshalForest(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// nearMisses are inputs just outside well-formed AXML, with whether
// Unmarshal must refuse them. They also feed the scanner/decoder
// differential and FuzzScanMatchesDecode.
var nearMisses = []struct {
	in      string
	mustErr bool
}{
	{"<", true},
	{"<a", true}, {"<a>", true}, {"</a>", true}, {"<a></b>", true}, {"<a/><b", true},
	{`<a attr=">`, true},
	{`<axml:call/>`, true},
	{`<r><call xmlns="http://activexml.net/2004/calls"/></r>`, true},
	{"<a>&nonsense;</a>", true},
	{"<?xml bad", true},
	{"<!-- unterminated", true},
	{"<a>]]></a>", true},
	{"<a>\x00</a>", true},
	{"<a>\xff</a>", true},
	{"<a>&#0;</a>", true},
	{"<a>&#xFFFE;</a>", true},
	{`<r><axml:call service=""/></r>`, true},
	// A binding is a match the remote side claims: a payload that is not
	// <tuple> elements of <Var>value</Var> must not yield one.
	{`<r><axml:tuples query="q">tuple</axml:tuples></r>`, true},
	{`<r><axml:tuples query="q"><axml:tuple><X>a<b/>c</X></axml:tuple></axml:tuples></r>`, true},
	{`<r><tuples xmlns="http://activexml.net/2004/calls"><tuple><x><y/></x></tuple></tuples></r>`, true},
	{`<r><axml:tuples query="q"><axml:tuple>X</axml:tuple></axml:tuples></r>`, true},
	{`<r><axml:tuples query="q"><axml:tuples/></axml:tuples></r>`, true},
	// Well-formed neighbours of the above.
	{`<r><axml:tuples query="q"><axml:tuple><X/><Y>v</Y></axml:tuple><axml:tuple/></axml:tuples></r>`, false},
	{`<r><call xmlns="http://activexml.net/2004/calls" service="f"><call service="g"/><p/></call></r>`, false},
	{`<r><call>data named call</call><tuple/></r>`, false},
	{"<a>&#xD;&#x9; x &#xA;</a>", false},
	{"<a>\u00a0\u3000x\u2003</a>", false},
	{"<a>a\r\nb\rc</a>", false},
	{"\ufeff<a/>", true},
	{"<a>]]&gt;&#x10FFFF;&#1114111;</a>", false},
	{"<a>&#xD800;&#x110000;</a>", true},
	{"<a\n>x</a\n>", false},
	{strings.Repeat("<a>", 2000) + strings.Repeat("</a>", 2000), false},
}

func TestUnmarshalNearMisses(t *testing.T) {
	for _, c := range nearMisses {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Unmarshal(%.40q) panicked: %v", c.in, r)
				}
			}()
			if _, err := Unmarshal([]byte(c.in)); (err != nil) != c.mustErr {
				t.Errorf("Unmarshal(%.60q): err = %v, want error: %t", c.in, err, c.mustErr)
			}
		}()
	}
}

// TestDeepNestingIsLinear parses a 40 000-deep chain — a 280 KB SOAP
// response is enough to carry one — on both paths. Recomputing "inside a
// payload?" from the open-element stack at every start tag made this
// take seconds; the bound is some thirty times what a linear parse
// needs on the reference box.
func TestDeepNestingIsLinear(t *testing.T) {
	const depth = 40000
	chain := strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
	for name, in := range map[string]string{
		"wire":     chain,
		"fallback": "<?xml version=\"1.0\"?>" + chain,
		"payload":  `<r><axml:tuples query="q">` + chain + `</axml:tuples></r>`,
	} {
		start := time.Now()
		roots, err := UnmarshalForest([]byte(in))
		took := time.Since(start)
		if name == "payload" {
			if err == nil {
				t.Errorf("%s: a chain is not a <tuple>", name)
			}
		} else if err != nil || len(roots) != 1 || roots[0].Size() != depth {
			t.Errorf("%s: %d roots, err %v", name, len(roots), err)
		}
		if took > time.Second {
			t.Errorf("%s: %d-deep chain took %v", name, depth, took)
		}
	}
}

func TestDeepDocumentOperations(t *testing.T) {
	// A 2000-deep chain must survive parse, walk, marshal and clone.
	in := strings.Repeat("<a>", 2000) + "<axml:call service=\"f\"/>" + strings.Repeat("</a>", 2000)
	d, err := Unmarshal([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Size(); got != 2001 {
		t.Fatalf("size = %d", got)
	}
	c := d.Calls()
	if len(c) != 1 || len(c[0].Path())-1 != 2000 {
		t.Fatalf("calls %d, first at depth %d", len(c), len(c[0].Path())-1)
	}
	if _, err := Marshal(d.Root); err != nil {
		t.Fatal(err)
	}
	if !d.Root.Equal(d.Clone().Root) {
		t.Fatal("deep clone mismatch")
	}
}
