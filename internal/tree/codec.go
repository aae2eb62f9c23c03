package tree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// CallNamespace is the XML namespace used to mark function nodes, in the
// style of the ActiveXML system's axml:call elements.
const CallNamespace = "http://activexml.net/2004/calls"

// Names of the special elements of the AXML wire format.
const (
	callElement    = "call"    // <axml:call service="f">params</axml:call>
	tuplesElement  = "tuples"  // pushed-result container
	tupleElement   = "tuple"   // one binding tuple
	queryAttribute = "query"   // pushed-subquery fingerprint on <tuples>
	serviceAttr    = "service" // service name on <axml:call>
)

// Marshal serialises the subtree rooted at n as XML. Function nodes become
// <axml:call service="name"> elements in CallNamespace; pushed-result nodes
// become <axml:tuples query="..."><tuple><X>v</X>...</tuple>...</axml:tuples>.
func Marshal(n *Node) ([]byte, error) { return marshal(n, false) }

// MarshalIndent is Marshal with two-space indentation, for humans.
func MarshalIndent(n *Node) ([]byte, error) { return marshal(n, true) }

func marshal(n *Node, indent bool) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, []*Node{n}, indent); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode writes the trees of forest to w, one encoder for them all: the
// concatenation of their Marshal forms, or with indent set of their
// MarshalIndent forms, each on its own line. It writes as it walks: when
// it fails — w's error, or a node that cannot be marshalled — part of the
// forest may already be in w.
func Encode(w io.Writer, forest []*Node, indent bool) error {
	enc := xml.NewEncoder(w)
	if indent {
		enc.Indent("", "  ")
	}
	for _, n := range forest {
		if err := encodeNode(enc, n); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// errNoName is what Marshal and EncodedLen return for an element or a
// binding variable with an empty name: it has no start tag to write.
var errNoName = errors.New("tree: cannot marshal an element with no name")

func errKind(k Kind) error { return fmt.Errorf("tree: cannot marshal node of kind %v", k) }

func encodeNode(enc *xml.Encoder, n *Node) error {
	switch n.Kind {
	case Text:
		return enc.EncodeToken(xml.CharData(n.Label))
	case Element:
		if n.Label == "" {
			return errNoName
		}
		start := xml.StartElement{Name: xml.Name{Local: n.Label}}
		if err := enc.EncodeToken(start); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := encodeNode(enc, c); err != nil {
				return err
			}
		}
		return enc.EncodeToken(start.End())
	case Call:
		start := xml.StartElement{
			Name: xml.Name{Space: CallNamespace, Local: callElement},
			Attr: []xml.Attr{{Name: xml.Name{Local: serviceAttr}, Value: n.Label}},
		}
		if err := enc.EncodeToken(start); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := encodeNode(enc, c); err != nil {
				return err
			}
		}
		return enc.EncodeToken(start.End())
	case Tuples:
		start := xml.StartElement{
			Name: xml.Name{Space: CallNamespace, Local: tuplesElement},
			Attr: []xml.Attr{{Name: xml.Name{Local: queryAttribute}, Value: n.PushedQuery}},
		}
		if err := enc.EncodeToken(start); err != nil {
			return err
		}
		for _, b := range n.PushedBindings {
			ts := xml.StartElement{Name: xml.Name{Space: CallNamespace, Local: tupleElement}}
			if err := enc.EncodeToken(ts); err != nil {
				return err
			}
			for _, k := range sortedKeys(b) {
				if k == "" {
					return errNoName
				}
				vs := xml.StartElement{Name: xml.Name{Local: k}}
				if err := enc.EncodeToken(vs); err != nil {
					return err
				}
				if err := enc.EncodeToken(xml.CharData(b[k])); err != nil {
					return err
				}
				if err := enc.EncodeToken(vs.End()); err != nil {
					return err
				}
			}
			if err := enc.EncodeToken(ts.End()); err != nil {
				return err
			}
		}
		return enc.EncodeToken(start.End())
	default:
		return errKind(n.Kind)
	}
}

// The fixed markup of the compact form, as encodeNode's encoder writes it.
const (
	callLen    = len(`<call xmlns="`+CallNamespace+`" service="">`) + len(`</call>`)
	tuplesLen  = len(`<tuples xmlns="`+CallNamespace+`" query="">`) + len(`</tuples>`)
	tupleLen   = len(`<tuple xmlns="`+CallNamespace+`">`) + len(`</tuple>`)
	elementLen = len(`<></>`) // plus the name twice
)

// EncodedLen returns len(Marshal(n)) and builds nothing: where a result is
// only counted, its size is walked, not written. It fails where Marshal
// fails, with the same error.
func EncodedLen(n *Node) (int, error) {
	var size int
	switch n.Kind {
	case Text:
		return escapedLen(n.Label, false), nil
	case Element:
		if n.Label == "" {
			return 0, errNoName
		}
		size = elementLen + 2*len(n.Label)
	case Call:
		size = callLen + escapedLen(n.Label, true)
	case Tuples:
		size = tuplesLen + escapedLen(n.PushedQuery, true)
		for _, b := range n.PushedBindings {
			size += tupleLen
			for k, v := range b {
				if k == "" {
					return 0, errNoName
				}
				size += elementLen + 2*len(k) + escapedLen(v, false)
			}
		}
		return size, nil
	default:
		return 0, errKind(n.Kind)
	}
	for _, c := range n.Children {
		cl, err := EncodedLen(c)
		if err != nil {
			return 0, err
		}
		size += cl
	}
	return size, nil
}

// escapedLen is the length of s as encoding/xml escapes it: character
// data (attr false) keeps its newlines, an attribute value escapes them,
// and a rune outside XML's character range or an invalid byte becomes
// U+FFFD.
func escapedLen(s string, attr bool) int {
	size := len(s)
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			switch {
			case c == '"' || c == '\'' || c == '&' || c == '\t' || c == '\r' || c == '\n' && attr:
				size += 4 // &#34; &#39; &amp; &#x9; &#xD; &#xA;
			case c == '<' || c == '>':
				size += 3 // &lt; &gt;
			case c < 0x20 && c != '\n':
				size += 2 // U+FFFD
			}
			continue
		}
		// Past ASCII only an invalid byte changes length: U+FFFE and
		// U+FFFF, the other runes outside Char, are three bytes like the
		// U+FFFD they become.
		r, w := utf8.DecodeRuneInString(s[i:])
		i += w
		if r == utf8.RuneError && w == 1 {
			size += 2
		}
	}
	return size
}

func sortedKeys(b Binding) []string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	// Tiny maps; insertion sort keeps this dependency-free and fast.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Unmarshal parses an AXML document from XML. Elements in CallNamespace
// named "call" (or, leniently, any element named "call" with a service
// attribute) become function nodes; "tuples" elements become pushed-result
// nodes. Whitespace-only character data between elements is dropped.
func Unmarshal(data []byte) (*Document, error) {
	roots, err := UnmarshalForest(data)
	if err != nil {
		return nil, err
	}
	if len(roots) != 1 {
		return nil, fmt.Errorf("tree: document must have exactly one root, got %d", len(roots))
	}
	if roots[0].Kind != Element {
		return nil, fmt.Errorf("tree: document root must be a data element, got %v", roots[0].Kind)
	}
	return NewDocument(roots[0]), nil
}

// UnmarshalForest parses a sequence of sibling AXML trees (e.g. a service
// result forest). The returned nodes are detached and carry zero IDs. It is
// the one way in: input in the wire subset — all that Marshal writes — is
// scanned; anything else, malformed input included, goes to the encoding/xml
// decoder, which defines the result. The choice is made from the input alone.
func UnmarshalForest(data []byte) ([]*Node, error) {
	if roots, ok := scanForest(data); ok {
		return roots, nil
	}
	return decodeForest(data)
}

// decodeForest parses any XML encoding/xml accepts: prologs, comments,
// CDATA, foreign namespaces and attributes (dropped), hand-written
// spacing. It is the fallback of UnmarshalForest and the reference the
// scanner is tested against.
func decodeForest(data []byte) ([]*Node, error) {
	dec := xml.NewDecoder(strings.NewReader(string(data)))
	var roots []*Node
	var stack []*Node
	attach := func(n *Node) {
		if len(stack) == 0 {
			roots = append(roots, n)
		} else {
			stack[len(stack)-1].Append(n)
		}
	}
	// Inside a <tuples> payload every element is plain data: <tuple>
	// wrappers and variable elements inherit the AXML default namespace
	// from the serialiser but must not be interpreted as AXML markup.
	tuples := 0 // open Tuples frames
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tree: malformed XML: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space != "" && !unprefixedName(t.Name.Local) {
				return nil, fmt.Errorf("tree: element name %q is no name without its prefix", t.Name.Local)
			}
			isAXML := t.Name.Space == CallNamespace || t.Name.Space == "axml"
			n := new(Node)
			if err := initNode(n, tuples > 0, isAXML, t.Name.Local, attrValue(t, serviceAttr), attrValue(t, queryAttribute)); err != nil {
				return nil, err
			}
			attach(n)
			stack = append(stack, n)
			if n.Kind == Tuples {
				tuples++
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("tree: unexpected end element %s", t.Name.Local)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top.Kind == Tuples {
				tuples--
				if err := liftTuples(top); err != nil {
					return nil, err
				}
			}
		case xml.CharData:
			s := strings.TrimSpace(string(t))
			if s == "" {
				continue
			}
			attach(NewText(s))
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Ignored: comments and processing instructions carry no
			// query-visible data in the AXML model.
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("tree: unclosed element %s", stack[len(stack)-1].Label)
	}
	return roots, nil
}

// initNode sets the kind and label of the node a start tag opens. It is
// the only place that decision is made, for the scanner and the decoder
// alike: isAXML says the name is in CallNamespace (or carries the bare
// axml prefix), local is the name without prefix, service and query are
// the values of those attributes ("" when absent).
func initNode(n *Node, inTuples, isAXML bool, local, service, query string) error {
	switch {
	case inTuples:
		// Plain data whatever the name; liftTuples folds <tuple> elements
		// into the enclosing Tuples node once it closes.
		n.Kind, n.Label = Element, local
	case isAXML && local == callElement:
		if service == "" {
			return fmt.Errorf("tree: <call> element without service attribute")
		}
		n.Kind, n.Label = Call, service
	case isAXML && local == tuplesElement:
		n.Kind, n.PushedQuery = Tuples, query
	default:
		// Any other name is plain data, whatever its namespace: call
		// parameters inherit the AXML default namespace from the
		// serialiser but are ordinary trees.
		n.Kind, n.Label = Element, local
	}
	return nil
}

// liftTuples converts the parsed children of a <tuples> element — a
// sequence of <tuple> elements whose children are <Var>value</Var> — into
// the PushedBindings payload, and drops the children. Anything else in
// the payload is an error: a binding is a match the remote side claims,
// and must not be conjured from content that is not one.
func liftTuples(n *Node) error {
	for _, tup := range n.Children {
		if tup.Kind != Element || tup.Label != tupleElement {
			return fmt.Errorf("tree: <tuples> may only contain <tuple>, got %v %q", tup.Kind, tup.Label)
		}
		b := Binding{}
		for _, kv := range tup.Children {
			if kv.Kind != Element {
				return fmt.Errorf("tree: <tuple> may only contain variable elements")
			}
			if len(kv.Children) > 1 || len(kv.Children) == 1 && kv.Children[0].Kind != Text {
				return fmt.Errorf("tree: variable <%s> of a <tuple> must hold one text value", kv.Label)
			}
			b[kv.Label] = kv.Value()
		}
		n.PushedBindings = append(n.PushedBindings, b)
	}
	n.Children = nil
	return nil
}

// unprefixedName reports whether local, the part of a prefixed element
// name after its colon ("0" in <a:0>), is a name on its own: Marshal
// writes it without the prefix, and what it writes must read back.
func unprefixedName(local string) bool {
	if c := local[0]; c < 0x80 {
		return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
	}
	_, err := xml.NewDecoder(strings.NewReader("<" + local + ">")).RawToken()
	return err == nil
}

func attrValue(t xml.StartElement, name string) string {
	for _, a := range t.Attr {
		if a.Name.Local == name {
			return a.Value
		}
	}
	return ""
}

// String renders the subtree rooted at n as compact XML; it is meant for
// debugging and tests. Errors are rendered inline, which cannot happen for
// trees built through the constructors.
func (n *Node) String() string {
	b, err := Marshal(n)
	if err != nil {
		return fmt.Sprintf("<!-- marshal error: %v -->", err)
	}
	return string(b)
}
