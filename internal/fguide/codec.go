// F-guide serialisation: a pre-order dump of the guide trie — label
// paths, per-path call annotations (document positions and service
// names of the extent) and node counts — in the spirit of an annotated
// strong dataguide. The repository does not store it (internal/repo
// builds the guide at open, which costs less than a Decode); the codec
// stays because benchmark/replay.go times Encode and Decode.
//
// Extents are addressed by document-order position (the index of the
// call node in a pre-order traversal of the whole tree), not by node ID:
// IDs are assigned in splice order and do not survive a marshal/parse
// round trip, while document order does. Decode therefore requires the
// freshly parsed document the guide was encoded against; any mismatch —
// wrong node count, a position that is not a call, a service name that
// moved — is reported as corruption.
package fguide

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/activexml/axml/internal/tree"
)

// codecMagic identifies (and versions) the serialised guide format.
const codecMagic = "AXFG1\n"

// maxCodecString bounds label and service-name lengths during decode so
// corrupted or adversarial inputs cannot demand absurd allocations.
const maxCodecString = 1 << 20

// ErrCorrupt reports that serialised guide data is not a well-formed
// encoding, or does not describe the document it was decoded against.
// Callers holding the document fall back to Build.
var ErrCorrupt = errors.New("fguide: corrupt serialised guide")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Encode serialises the guide. The guide must be synced with its
// document (Synced): encoding addresses extents by current document
// positions, which a pending mutation would invalidate.
func Encode(g *Guide) ([]byte, error) {
	if !Synced(g) {
		return nil, fmt.Errorf("fguide: encode of an unsynced guide (guide %d, document %d)", g.version, g.doc.Version())
	}
	pos := map[*tree.Node]uint64{}
	var nodes uint64
	g.doc.Root.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.Call {
			pos[n] = nodes
		}
		nodes++
		return true
	})
	var buf bytes.Buffer
	buf.WriteString(codecMagic)
	writeUvarint(&buf, nodes)
	writeUvarint(&buf, uint64(len(g.where)))
	writeUvarint(&buf, uint64(g.paths))
	if err := encodeNode(&buf, g.root, pos); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodeNode(buf *bytes.Buffer, n *gnode, pos map[*tree.Node]uint64) error {
	writeString(buf, n.label)
	// Extents in ascending document position: deterministic, and the
	// decoded extent order matches document order (which Candidates
	// relies on only up to its own final sort, but determinism makes the
	// encoding byte-stable for checksums).
	ext := make([]*tree.Node, len(n.extent))
	copy(ext, n.extent)
	for _, c := range ext {
		if _, ok := pos[c]; !ok {
			return fmt.Errorf("fguide: encode: extent call %q is not attached to the document", c.Label)
		}
	}
	sort.Slice(ext, func(i, j int) bool { return pos[ext[i]] < pos[ext[j]] })
	writeUvarint(buf, uint64(len(ext)))
	for _, c := range ext {
		writeUvarint(buf, pos[c])
		writeString(buf, c.Label)
	}
	labels := make([]string, 0, len(n.children))
	for l := range n.children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	writeUvarint(buf, uint64(len(labels)))
	for _, l := range labels {
		if err := encodeNode(buf, n.children[l], pos); err != nil {
			return err
		}
	}
	return nil
}

// Decode reconstructs a guide from its serialised form against the
// document it summarises. The document must be the same tree the guide
// was encoded over, typically freshly parsed from the bytes persisted
// alongside: positions, node count and service names are all verified,
// and any disagreement returns ErrCorrupt.
func Decode(doc *tree.Document, data []byte) (*Guide, error) {
	r := &codecReader{data: data}
	if err := r.expect(codecMagic); err != nil {
		return nil, err
	}
	wantNodes, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	wantCalls, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	wantPaths, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	calls := map[uint64]*tree.Node{}
	var nodes uint64
	doc.Root.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.Call {
			calls[nodes] = n
		}
		nodes++
		return true
	})
	if nodes != wantNodes {
		return nil, corruptf("document has %d nodes, index expects %d", nodes, wantNodes)
	}
	g := &Guide{
		doc:     doc,
		where:   map[*tree.Node]*gnode{},
		version: doc.Version(),
	}
	root, err := decodeNode(r, g, nil, calls, 0)
	if err != nil {
		return nil, err
	}
	g.root = root
	if r.rest() != 0 {
		return nil, corruptf("%d trailing bytes", r.rest())
	}
	if uint64(len(g.where)) != wantCalls {
		return nil, corruptf("index holds %d calls, header says %d", len(g.where), wantCalls)
	}
	if uint64(g.paths) != wantPaths {
		return nil, corruptf("index holds %d paths, header says %d", g.paths, wantPaths)
	}
	return g, nil
}

// maxCodecDepth bounds trie nesting during decode; label paths deeper
// than any sane document indicate corruption (and would otherwise let a
// crafted input exhaust the stack).
const maxCodecDepth = 1 << 16

func decodeNode(r *codecReader, g *Guide, parent *gnode, calls map[uint64]*tree.Node, depth int) (*gnode, error) {
	if depth > maxCodecDepth {
		return nil, corruptf("trie deeper than %d", maxCodecDepth)
	}
	label, err := r.str()
	if err != nil {
		return nil, err
	}
	n := &gnode{label: label, parent: parent, children: map[string]*gnode{}}
	extents, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < extents; i++ {
		pos, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		svc, err := r.str()
		if err != nil {
			return nil, err
		}
		c, ok := calls[pos]
		if !ok {
			return nil, corruptf("position %d is not a call node", pos)
		}
		if c.Label != svc {
			return nil, corruptf("position %d calls %q, index says %q", pos, c.Label, svc)
		}
		if _, dup := g.where[c]; dup {
			return nil, corruptf("position %d indexed twice", pos)
		}
		n.extent = append(n.extent, c)
		g.where[c] = n
	}
	if len(n.extent) > 0 {
		g.paths++
	}
	kids, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	prev := ""
	for i := uint64(0); i < kids; i++ {
		c, err := decodeNode(r, g, n, calls, depth+1)
		if err != nil {
			return nil, err
		}
		if i > 0 && c.label <= prev {
			return nil, corruptf("child labels out of order at %q", c.label)
		}
		prev = c.label
		n.children[c.label] = c
	}
	return n, nil
}

// codecReader is a bounds-checked cursor over serialised guide bytes.
type codecReader struct {
	data []byte
	off  int
}

func (r *codecReader) rest() int { return len(r.data) - r.off }

func (r *codecReader) expect(magic string) error {
	if r.rest() < len(magic) || string(r.data[r.off:r.off+len(magic)]) != magic {
		return corruptf("bad magic")
	}
	r.off += len(magic)
	return nil
}

func (r *codecReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, corruptf("truncated varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *codecReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxCodecString {
		return "", corruptf("string of %d bytes exceeds the %d limit", n, maxCodecString)
	}
	if uint64(r.rest()) < n {
		return "", corruptf("truncated string at offset %d", r.off)
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}
