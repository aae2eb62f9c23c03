package fguide

import (
	"bytes"
	"testing"

	"github.com/activexml/axml/internal/tree"
)

// FuzzGuideCodecRoundTrip drives the guide codec from both ends: any
// parseable document must round-trip its guide bit-stably through
// Encode/Decode against a fresh parse of the same bytes, and arbitrary
// bytes fed to Decode must be rejected cleanly, never crash.
func FuzzGuideCodecRoundTrip(f *testing.F) {
	f.Add([]byte(`<hotels><hotel><rating><axml:call service="getRating"/></rating></hotel><axml:call service="getHotels"/></hotels>`), []byte("AXFG1\n"))
	f.Add([]byte(`<r><a><axml:call service="s"/></a><a><b><axml:call service="s"/></b></a></r>`), []byte{})
	f.Add([]byte(`<r>text<axml:call service="s"><axml:call service="nested"/></axml:call></r>`), []byte("AXFG1\n\x05\x01\x01"))
	f.Fuzz(func(t *testing.T, xml, raw []byte) {
		if d, err := tree.Unmarshal(xml); err == nil {
			// Parse the document's canonical form twice: the guide is
			// encoded against one parse and decoded against the other.
			canon, err := tree.Marshal(d.Root)
			if err != nil {
				t.Skip()
			}
			d1, err1 := tree.Unmarshal(canon)
			d2, err2 := tree.Unmarshal(canon)
			if err1 != nil || err2 != nil {
				t.Skip()
			}
			g := Build(d1)
			data, err := Encode(g)
			if err != nil {
				t.Fatalf("Encode of a fresh guide: %v", err)
			}
			g2, err := Decode(d2, data)
			if err != nil {
				t.Fatalf("Decode against identical parse: %v", err)
			}
			if g2.String() != g.String() {
				t.Fatalf("round trip changed guide:\n%s\nvs\n%s", g2, g)
			}
			if g2.Calls() != g.Calls() || g2.Paths() != g.Paths() {
				t.Fatalf("round trip changed counts: (%d,%d) vs (%d,%d)",
					g2.Calls(), g2.Paths(), g.Calls(), g.Paths())
			}
			data2, err := Encode(g2)
			if err != nil {
				t.Fatalf("re-Encode: %v", err)
			}
			if !bytes.Equal(data, data2) {
				t.Fatal("encoding not byte-stable across a round trip")
			}
			// Decoding arbitrary bytes against a real document must fail
			// cleanly or produce a self-consistent guide — never panic.
			if gr, err := Decode(d2, raw); err == nil {
				_ = gr.String()
			}
		}
	})
}
