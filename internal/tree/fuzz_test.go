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
}

// FuzzCodecRoundTrip checks the AXML wire codec on arbitrary XML: any
// forest UnmarshalForest accepts must marshal, re-parse, and marshal
// again to the same bytes. The first marshal canonicalises (namespace
// prefixes, whitespace trimming, tuple lifting); after that the codec
// must be a fixed point, because pushed results and the SOAP envelope
// both rely on re-serialising parsed trees verbatim.
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
		buf.Write(b)
	}
	return buf.Bytes()
}
