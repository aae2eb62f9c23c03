package tree

import (
	"bytes"
	"strings"
	"unicode/utf8"
)

// scanForest parses data when it lies in the wire subset — the XML that
// Marshal and MarshalIndent emit, plus the axml:-prefixed spelling of
// the three AXML elements (DESIGN.md §S1 has the grammar). It returns
// the forest the decoder would build, node for node, or ok == false
// without having produced anything: every construct outside the subset
// and every malformation is left to decodeForest, which then defines
// the result or the error. When in doubt it says no.
//
// With withIDs set, nodes are numbered 1..ids in document order, skipping
// the content of <tuples> payloads (liftTuples drops it) — the numbering
// NewDocument would give the finished forest. Otherwise IDs stay zero.
func scanForest(data []byte, withIDs bool) (roots []*Node, ids uint64, ok bool) {
	s := scanner{data: data, withIDs: withIDs}
	for i := 0; i < len(data); {
		if data[i] != '<' {
			i = s.charData(i)
		} else if i+1 < len(data) && data[i+1] == '/' {
			i = s.endTag(i + 2)
		} else {
			i = s.startTag(i + 1)
		}
		if i < 0 {
			return nil, 0, false
		}
	}
	if len(s.open) != 0 {
		return nil, 0, false
	}
	return append(roots, s.pending...), s.ids, true
}

// scanner is the state of one scanForest run. Nodes, child slices and
// text values are cut from slabs so that a parse costs a few allocations
// per slab, not several per node.
type scanner struct {
	data    []byte
	withIDs bool
	ids     uint64

	open    []frame // open elements, outermost first
	pending []*Node // roots, then the children so far of each open element
	tuples  int     // open Tuples frames; inside one every element is plain data

	nodes []Node            // unused rest of the current node slab
	kids  []*Node           // unused rest of the current child-slice slab
	text  strings.Builder   // current text slab: labels are substrings of it
	names map[string]string // element and service names seen, one string each
	attr  []byte            // scratch for an attribute value that has escapes
}

type frame struct {
	node  *Node
	name  []byte // as written in the start tag; the end tag must repeat it
	first int    // index in pending of the element's first child
}

// byte classes of the subset; anything else sends the parse to the decoder.
const (
	cText  = 1 << iota // may stand unescaped in character data and attribute values
	cSpace             // ' ', '\t', '\n' ('\r' is rewritten by the decoder: not ours)
	cName0             // may start a name
	cName              // may continue a name
)

// The attributes of the subset, as written up to the value. Only the
// three AXML elements carry any: the namespace declarations must name
// CallNamespace, service belongs to call and query to tuples.
var wireAttrs = [...]string{attrXMLNS: `xmlns="`, attrXMLNSAXML: `xmlns:axml="`, attrService: serviceAttr + `="`, attrQuery: queryAttribute + `="`}

const (
	attrXMLNS = iota
	attrXMLNSAXML
	attrService
	attrQuery
)

var class = func() (t [256]uint8) {
	for c := 0x20; c <= 0x7f; c++ {
		t[c] = cText
	}
	t['<'], t['&'] = 0, 0
	for _, c := range " \t\n" {
		t[c] = cText | cSpace
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] |= cName0 | cName
		t[c-'a'+'A'] |= cName0 | cName
	}
	t['_'] |= cName0 | cName
	for _, c := range "0123456789.-" {
		t[c] |= cName
	}
	return t
}()

// node returns a zeroed node from the slab. Slabs are sized from the
// input still to scan, so a small forest does not pin a large slab.
func (s *scanner) node(at int) *Node {
	if len(s.nodes) == 0 {
		s.nodes = make([]Node, slabLen(len(s.data)-at, 16, 512))
	}
	n := &s.nodes[0]
	s.nodes = s.nodes[1:]
	return n
}

func slabLen(bytesLeft, bytesPerItem, max int) int {
	n := bytesLeft/bytesPerItem + 1
	if n > max {
		n = max
	}
	return n
}

// attach makes n the next child of the innermost open element (or the
// next root) and numbers it.
func (s *scanner) attach(n *Node) {
	if len(s.open) > 0 {
		n.Parent = s.open[len(s.open)-1].node
	}
	if s.withIDs && s.tuples == 0 {
		s.ids++
		n.ID = s.ids
	}
	s.pending = append(s.pending, n)
}

// close gives n the children gathered since its start tag, as a slice of
// exactly that capacity: a later Append must reallocate, never write into
// a sibling's slice.
func (s *scanner) close(n *Node, first, at int) bool {
	if k := len(s.pending) - first; k > 0 {
		if len(s.kids) < k {
			s.kids = make([]*Node, k+slabLen(len(s.data)-at, 32, 512))
		}
		n.Children = s.kids[:k:k]
		s.kids = s.kids[k:]
		copy(n.Children, s.pending[first:])
		s.pending = s.pending[:first]
	}
	if n.Kind == Tuples {
		s.tuples--
		return liftTuples(n) == nil
	}
	return true
}

// intern returns the one string this parse keeps for the name b.
func (s *scanner) intern(b []byte) string {
	if v, ok := s.names[string(b)]; ok {
		return v
	}
	if s.names == nil {
		s.names = make(map[string]string)
	}
	v := string(b)
	s.names[v] = v
	return v
}

// startTag scans the tag whose name starts at i and returns the index
// after its '>', or -1.
func (s *scanner) startTag(i int) int {
	data := s.data
	nameAt := i
	prefixed := bytes.HasPrefix(data[i:], []byte("axml:"))
	if prefixed {
		i += len("axml:")
	}
	localAt := i
	if i >= len(data) || class[data[i]]&cName0 == 0 {
		return -1
	}
	for i++; i < len(data) && class[data[i]]&cName != 0; i++ {
	}
	name, local := data[nameAt:i], data[localAt:i]
	// The three AXML names take the attributes Marshal writes on them;
	// every other element takes none and no prefix.
	var special string
	switch string(local) {
	case callElement:
		special = callElement
	case tuplesElement:
		special = tuplesElement
	case tupleElement:
		special = tupleElement
	}
	if prefixed && special == "" {
		return -1
	}
	var service, query string
	var seen [len(wireAttrs)]bool
	selfClosing := false
	for {
		for i < len(data) && class[data[i]]&cSpace != 0 {
			i++
		}
		if i >= len(data) {
			return -1
		}
		if data[i] == '>' {
			i++
			break
		}
		if data[i] == '/' {
			if i+1 >= len(data) || data[i+1] != '>' {
				return -1
			}
			i += 2
			selfClosing = true
			break
		}
		if special == "" {
			return -1
		}
		a := 0
		for a < len(wireAttrs) && !bytes.HasPrefix(data[i:], []byte(wireAttrs[a])) {
			a++
		}
		if a == len(wireAttrs) {
			return -1
		}
		if seen[a] || a == attrService && special != callElement || a == attrQuery && special != tuplesElement {
			return -1
		}
		seen[a] = true
		var val []byte
		if val, i = s.attrValue(i + len(wireAttrs[a])); i < 0 {
			return -1
		}
		switch a {
		case attrService:
			service = s.intern(val)
		case attrQuery:
			query = string(val)
		default:
			if string(val) != CallNamespace {
				return -1
			}
		}
	}
	// An unprefixed AXML name is AXML markup only under the default
	// namespace, which the scanner does not track: it must declare it
	// itself, as Marshal's output does. (Inside a payload the name is
	// plain data either way.)
	isAXML := prefixed || seen[attrXMLNS]
	if special != "" && !isAXML && s.tuples == 0 {
		return -1
	}
	label := special
	if label == "" {
		label = s.intern(local)
	}
	n := s.node(i)
	if initNode(n, s.tuples > 0, isAXML, label, service, query) != nil {
		return -1
	}
	s.attach(n)
	if selfClosing {
		return i // nothing to gather, and no tuples to lift
	}
	if n.Kind == Tuples {
		s.tuples++
	}
	s.open = append(s.open, frame{node: n, name: name, first: len(s.pending)})
	return i
}

// endTag scans "name>" at i against the innermost open element.
func (s *scanner) endTag(i int) int {
	if len(s.open) == 0 {
		return -1
	}
	f := s.open[len(s.open)-1]
	end := i + len(f.name)
	if end >= len(s.data) || s.data[end] != '>' || !bytes.Equal(s.data[i:end], f.name) {
		return -1
	}
	s.open = s.open[:len(s.open)-1]
	if !s.close(f.node, f.first, end) {
		return -1
	}
	return end + 1
}

// attrValue scans a double-quoted value whose first byte is at i and
// returns it unescaped (aliasing the input or s.attr) with the index
// after the closing quote.
func (s *scanner) attrValue(i int) ([]byte, int) {
	data := s.data
	start := i
	escaped := false
	for i < len(data) && data[i] != '"' {
		c := data[i]
		switch {
		case class[c]&cText != 0:
			i++
		case c == '&':
			r, n := entity(data[i:])
			if n == 0 {
				return nil, -1
			}
			if !escaped {
				escaped = true
				s.attr = s.attr[:0]
			}
			s.attr = append(s.attr, data[start:i]...)
			s.attr = utf8.AppendRune(s.attr, r)
			i += n
			start = i
		case c >= utf8.RuneSelf:
			n := wireRune(data[i:])
			if n == 0 {
				return nil, -1
			}
			i += n
		default: // '<', '\r' or a control character
			return nil, -1
		}
	}
	if i >= len(data) {
		return nil, -1
	}
	if !escaped {
		return data[start:i], i + 1
	}
	s.attr = append(s.attr, data[start:i]...)
	return s.attr, i + 1
}

// charData scans the character data starting at i up to the next '<' or
// the end of input, adds a text node for it unless it is all white space,
// and returns where it stopped, or -1.
func (s *scanner) charData(i int) int {
	data := s.data
	end := len(data)
	if k := bytes.IndexByte(data[i:], '<'); k >= 0 {
		end = i + k
	}
	// The decoder's value is TrimSpace of the unescaped run. White space
	// written as itself can go first: it is at the edges afterwards too.
	a, b := i, end
	for a < b && class[data[a]]&cSpace != 0 {
		a++
	}
	for b > a && class[data[b-1]]&cSpace != 0 {
		b--
	}
	if a == b {
		return end
	}
	// Unescaping never lengthens, so b-a bytes of slab always suffice.
	if s.text.Cap()-s.text.Len() < b-a {
		s.text = strings.Builder{}
		s.text.Grow(b - a + slabLen(len(data)-b, 4, 32<<10))
	}
	at := s.text.Len()
	lit := a
	for k := a; k < b; {
		c := data[k]
		switch {
		case c == '>':
			if k >= a+2 && data[k-1] == ']' && data[k-2] == ']' {
				return -1 // "]]>" may not stand in character data
			}
			k++
		case class[c]&cText != 0:
			k++
		case c == '&':
			r, n := entity(data[k:b])
			if n == 0 {
				return -1
			}
			s.text.Write(data[lit:k])
			s.text.WriteRune(r)
			k += n
			lit = k
		case c >= utf8.RuneSelf:
			n := wireRune(data[k:b])
			if n == 0 {
				return -1
			}
			k += n
		default: // '\r' or a control character
			return -1
		}
	}
	s.text.Write(data[lit:b])
	// Escaped or non-ASCII white space only shows now. What TrimSpace
	// drops stays in the slab, unreferenced; Marshal writes no such text.
	value := strings.TrimSpace(s.text.String()[at:])
	if value == "" {
		return end
	}
	n := s.node(end)
	n.Kind, n.Label = Text, value
	s.attach(n)
	return end
}

// entity decodes the reference at the head of p — one of the five
// predefined entities or a numeric character reference to a character
// XML allows — and returns it with the reference's length, or 0, 0.
func entity(p []byte) (rune, int) {
	if len(p) < 2 || p[1] != '#' {
		for _, e := range [...]struct {
			ref string
			r   rune
		}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&quot;", '"'}, {"&apos;", '\''}} {
			if bytes.HasPrefix(p, []byte(e.ref)) {
				return e.r, len(e.ref)
			}
		}
		return 0, 0
	}
	i, base := 2, rune(10)
	if i < len(p) && p[i] == 'x' {
		i, base = 3, 16
	}
	var r rune
	for digits := i; i < len(p); i++ {
		d := rune(p[i])
		switch {
		case d == ';':
			if i == digits || !inCharacterRange(r) {
				return 0, 0
			}
			return r, i + 1
		case i-digits == 7: // U+10FFFF has seven decimal digits; more is the decoder's
			return 0, 0
		case '0' <= d && d <= '9':
			d -= '0'
		case base == 16 && 'a' <= d && d <= 'f':
			d -= 'a' - 10
		case base == 16 && 'A' <= d && d <= 'F':
			d -= 'A' - 10
		default:
			return 0, 0
		}
		r = r*base + d
	}
	return 0, 0
}

// wireRune returns the length of the UTF-8 sequence at the head of p if
// it encodes a character XML allows, else 0.
func wireRune(p []byte) int {
	r, n := utf8.DecodeRune(p)
	if r == utf8.RuneError && n == 1 || !inCharacterRange(r) {
		return 0
	}
	return n
}

// inCharacterRange is the XML Char production, as encoding/xml applies
// it to unescaped text.
func inCharacterRange(r rune) bool {
	return r == 0x9 || r == 0xA || r == 0xD ||
		0x20 <= r && r <= 0xD7FF ||
		0xE000 <= r && r <= 0xFFFD ||
		0x10000 <= r && r <= 0x10FFFF
}
