package tree

import (
	"bytes"
	"testing"
)

// codecSeeds seed both fuzz targets and the scanner/decoder differential.
var codecSeeds = []string{
	`<hotels><hotel><name>Best Western</name><rating>*****</rating></hotel></hotels>`,
	`<hotel><name>Ritz</name><axml:call xmlns:axml="http://activexml.net/2004/calls" service="getNearbyRestos"><address>addr-1</address></axml:call></hotel>`,
	`<r><axml:tuples xmlns:axml="http://activexml.net/2004/calls" query="/restaurant[name=$X]"><axml:tuple><X>Chez Net</X></axml:tuple></axml:tuples></r>`,
	`<a>one</a><b>two</b>`,
	`<a>&lt;escaped &amp; entities&gt;</a>`,
	`<call service="plain-data-call-lookalike"></call>`,
	`<a><!-- comment --><?pi data?>text</a>`,
	`<deep><deep><deep><leaf/></deep></deep></deep>`,
	// What liftTuples must refuse: a text child that reads "tuple", and a
	// variable with mixed content.
	`<r><axml:tuples query="q">tuple</axml:tuples></r>`,
	`<r><axml:tuples query="q"><axml:tuple><X>a<b/>c</X></axml:tuple></axml:tuples></r>`,
	// Every character the encoder escapes, in text and in both attribute
	// positions (a call's service, a tuples node's query) and in a tuple
	// binding: quotes, markup, tab, CR, LF and U+FFFD. The parsers refuse
	// the same input with one invalid UTF-8 byte; it stays a seed for the
	// fuzzer to mutate, and TestEncodedLenMatchesMarshal covers the byte.
	escapesSeed,
	escapesSeed[:4] + "\xff" + escapesSeed[4:],
}

const escapesSeed = "<r>t \"'&amp;&lt;&gt;\t&#xD;\n&#xA;\uFFFD t" +
	`<axml:call xmlns:axml="http://activexml.net/2004/calls" service="s &#34;&#39;&amp;&lt;&gt;&#x9;&#xD;&#xA;` + "\n\t\uFFFD" + `">` +
	"<p>p \"'&amp;&lt;&gt;\t&#xD;\n\uFFFD p</p></axml:call>" +
	`<axml:tuples xmlns:axml="http://activexml.net/2004/calls" query="/q[n=$X] &#34;&#39;&amp;&lt;&gt;&#x9;&#xD;&#xA;` + "\n\uFFFD" + `">` +
	"<axml:tuple><X>x \"'&amp;&lt;&gt;\t&#xD;\n\uFFFD x</X><Y>&amp;</Y></axml:tuple></axml:tuples></r>"

// FuzzCodecRoundTrip checks the AXML wire codec on arbitrary XML: any
// forest UnmarshalForest accepts must marshal, re-parse, and marshal
// again to the same bytes. The first marshal canonicalises (namespace
// prefixes, whitespace trimming, tuple lifting); after that the codec
// must be a fixed point, because pushed results and the SOAP envelope
// both rely on re-serialising parsed trees verbatim. Marshal is also the
// reference of the two other ways out: EncodedLen must count each root's
// Marshal bytes exactly, and Encode must write the forest as the
// concatenation of them.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, seed := range codecSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		forest, err := UnmarshalForest(data)
		if err != nil {
			return
		}
		first := marshalForest(t, forest)
		again, err := UnmarshalForest(first)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %q: %v", first, err)
		}
		second := marshalForest(t, again)
		if !bytes.Equal(first, second) {
			t.Fatalf("codec is not a fixed point:\n input  %q\n first  %q\n second %q", data, first, second)
		}
	})
}

func marshalForest(t *testing.T, forest []*Node) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, n := range forest {
		b, err := Marshal(n)
		if err != nil {
			t.Fatalf("parsed node does not marshal: %v", err)
		}
		if size, err := EncodedLen(n); err != nil || size != len(b) {
			t.Fatalf("EncodedLen = %d, %v; Marshal wrote %d bytes: %q", size, err, len(b), b)
		}
		buf.Write(b)
	}
	var enc bytes.Buffer
	if err := Encode(&enc, forest, false); err != nil {
		t.Fatalf("parsed forest does not encode: %v", err)
	}
	if !bytes.Equal(enc.Bytes(), buf.Bytes()) {
		t.Fatalf("Encode of the forest differs from its roots' Marshal:\n encode  %q\n marshal %q", enc.Bytes(), buf.Bytes())
	}
	return buf.Bytes()
}

// TestEncodedLenMatchesMarshal holds EncodedLen to Marshal on trees no
// parse produces: names no parser accepts, an unknown kind, and values
// with bytes the encoder replaces. Both succeed with the same length or
// fail with the same error.
func TestEncodedLenMatchesMarshal(t *testing.T) {
	withChild := func(n, c *Node) *Node { n.Append(c); return n }
	cases := map[string]*Node{
		"empty element":          NewElement(""),
		"empty element below":    withChild(NewElement("r"), NewElement("")),
		"empty element in call":  withChild(NewCall("f"), NewElement("")),
		"empty call name":        NewCall(""),
		"empty binding key":      NewTuples("q", []Binding{{"X": "x"}, {"": "v", "Y": "y"}}),
		"unknown kind":           {Kind: Tuples + 1, Label: "k"},
		"unknown kind below":     withChild(NewElement("r"), &Node{Kind: 7}),
		"control label":          withChild(NewElement("a\x01b\tc\n"), NewText("v")),
		"control text":           NewText("a\x01\x1fb\x00"),
		"control attribute":      NewCall("s\x01\n\r\t"),
		"invalid utf8 text":      NewText("a\xffb\xed\xa0\x80c"),
		"invalid utf8 attribute": NewTuples("q\xff\n", []Binding{{"X": "\xfe\uFFFD\uFFFE\uFFFF"}}),
		"escapes everywhere": withChild(NewCall("\"'&<>\t\r\n\uFFFD"),
			withChild(NewElement("p"), NewText("\"'&<>\t\r\n\uFFFD\U0001F600"))),
		"escaped binding": NewTuples("\"'&<>\t\r\n", []Binding{{"X": "\"'&<>\t\r\n\uFFFD", "Y": ""}}),
		"empty":           NewTuples("", nil),
	}
	for name, n := range cases {
		b, merr := Marshal(n)
		size, err := EncodedLen(n)
		switch {
		case (merr == nil) != (err == nil) || merr != nil && merr.Error() != err.Error():
			t.Errorf("%s: Marshal error %v, EncodedLen error %v", name, merr, err)
		case merr == nil && size != len(b):
			t.Errorf("%s: EncodedLen = %d, Marshal wrote %d bytes: %q", name, size, len(b), b)
		}
	}
}
