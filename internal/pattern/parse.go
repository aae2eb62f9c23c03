package pattern

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"github.com/activexml/axml/internal/tree"
)

// Parse reads a tree-pattern query from its textual form. The language is
// an XPath-like syntax restricted to the paper's fragment:
//
//	/hotels/hotel[name="Best Western"][rating="*****"]
//	       /nearby//restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y
//
// Grammar, informally:
//
//   - Steps are separated by "/" (child edge) or "//" (descendant edge).
//   - A step is an element name, a quoted data value, "*" (any data
//     node), "$X" (variable), "name()" (function node), "()" (star
//     function node), or an OR group "(alt|alt|...)" whose alternatives
//     are steps with optional predicates.
//   - Predicates "[...]" attach extra branches to a step. Inside a
//     predicate, a leading "//" makes the first step a descendant; the
//     shorthand "name=value" abbreviates "name/value" where value is a
//     quoted string or a variable.
//   - "-> $X, $Y" after the path marks those variables as result nodes.
//     Alternatively any step may carry a "!" suffix to mark it as a
//     result node. If no result is marked, the last step of the main
//     path is the result node.
//
// Variables with the same name denote a value join (Definition 1).
func Parse(input string) (*Pattern, error) {
	return parse(input, true)
}

// ParseExact is Parse without the default-result convenience: a query
// with no explicit result markers stays result-free. Wire protocols use
// it so that String∘ParseExact is the identity on canonical forms —
// pushed-subquery fingerprints must survive a round trip verbatim.
func ParseExact(input string) (*Pattern, error) {
	return parse(input, false)
}

func parse(input string, defaultResult bool) (*Pattern, error) {
	p := &qparser{in: input}
	root := NewNode(Root, "", Child)
	last, err := p.parseChain(root, true)
	if err != nil {
		return nil, err
	}
	p.skip()
	explicit := false
	if p.has("->") {
		explicit = true
		for {
			p.skip()
			if p.peek() != '$' {
				return nil, p.errf("expected $variable after ->")
			}
			p.pos++
			name, err := p.name()
			if err != nil {
				return nil, err
			}
			if !markVariable(root, name) {
				return nil, fmt.Errorf("pattern: result variable $%s does not occur in the query", name)
			}
			p.skip()
			if p.peek() != ',' {
				break
			}
			p.pos++
		}
	}
	p.skip()
	if p.pos != len(p.in) {
		return nil, p.errf("trailing input")
	}
	if defaultResult && !explicit && !anyResult(root) {
		if last == nil {
			return nil, fmt.Errorf("pattern: empty query")
		}
		last.Result = true
	}
	return NewPattern(root), nil
}

// MustParse is Parse panicking on error, for tests and literals.
func MustParse(input string) *Pattern {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

func markVariable(n *Node, name string) bool {
	if n.Kind == Var && n.Label == name {
		n.Result = true
		return true
	}
	for _, c := range n.Children {
		if markVariable(c, name) {
			return true
		}
	}
	return false
}

func anyResult(n *Node) bool {
	if n.Result {
		return true
	}
	for _, c := range n.Children {
		if anyResult(c) {
			return true
		}
	}
	return false
}

type qparser struct {
	in  string
	pos int
}

func (p *qparser) skip() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t' || p.in[p.pos] == '\n') {
		p.pos++
	}
}

func (p *qparser) peek() byte {
	if p.pos < len(p.in) {
		return p.in[p.pos]
	}
	return 0
}

func (p *qparser) has(s string) bool {
	p.skip()
	if strings.HasPrefix(p.in[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *qparser) errf(format string, args ...any) error {
	return fmt.Errorf("pattern: %s at offset %d in %q", fmt.Sprintf(format, args...), p.pos, p.in)
}

// parseChain parses a /step/step... chain attached under parent and
// returns the deepest step parsed. At the top level the chain must start
// with "/" or "//"; inside predicates a bare first step means child edge.
func (p *qparser) parseChain(parent *Node, topLevel bool) (*Node, error) {
	cur := parent
	first := true
	for {
		p.skip()
		var edge EdgeKind
		switch {
		case p.has("//"):
			edge = Desc
		case p.has("/"):
			edge = Child
		case first && !topLevel:
			edge = Child
		default:
			if first {
				return nil, p.errf("query must start with / or //")
			}
			return cur, nil
		}
		n, err := p.parseStep(edge)
		if err != nil {
			return nil, err
		}
		cur.Add(n)
		cur = n
		first = false
		// The "=value" shorthand closes the chain.
		p.skip()
		if p.peek() == '=' {
			p.pos++
			v, err := p.parseValueNode()
			if err != nil {
				return nil, err
			}
			cur.Add(v)
			return v, nil
		}
	}
}

// parseStep parses one step: atom, optional "!", predicates.
func (p *qparser) parseStep(edge EdgeKind) (*Node, error) {
	n, err := p.parseAtom(edge)
	if err != nil {
		return nil, err
	}
	if p.peek() == '!' {
		p.pos++
		n.Result = true
	}
	for {
		p.skip()
		if p.peek() != '[' {
			return n, nil
		}
		p.pos++
		if _, err := p.parseChain(n, false); err != nil {
			return nil, err
		}
		p.skip()
		if p.peek() != ']' {
			return nil, p.errf("expected ]")
		}
		p.pos++
	}
}

func (p *qparser) parseAtom(edge EdgeKind) (*Node, error) {
	p.skip()
	switch c := p.peek(); {
	case c == '(':
		p.pos++
		p.skip()
		if p.peek() == ')' { // "()" — star function node
			p.pos++
			return NewNode(Func, AnyFunc, edge), nil
		}
		// OR group.
		or := NewNode(Or, "", edge)
		for {
			alt, err := p.parseStep(edge)
			if err != nil {
				return nil, err
			}
			or.Add(alt)
			p.skip()
			if p.peek() == '|' {
				p.pos++
				continue
			}
			break
		}
		if p.peek() != ')' {
			return nil, p.errf("expected ) closing OR group")
		}
		p.pos++
		if len(or.Children) == 1 {
			// A single-alternative OR is the alternative itself, with
			// the group's edge.
			only := or.Children[0]
			only.Parent = nil
			only.Edge = edge
			return only, nil
		}
		return or, nil
	case c == '*':
		p.pos++
		return NewNode(Star, "", edge), nil
	case c == '$':
		p.pos++
		name, err := p.name()
		if err != nil {
			return nil, err
		}
		return NewNode(Var, name, edge), nil
	case c == '"':
		s, err := p.quoted()
		if err != nil {
			return nil, err
		}
		return NewNode(Const, s, edge), nil
	case isNameStart(c):
		name, err := p.name()
		if err != nil {
			return nil, err
		}
		if p.has("()") {
			return NewNode(Func, name, edge), nil
		}
		return NewNode(Const, name, edge), nil
	default:
		return nil, p.errf("unexpected byte %q", c)
	}
}

// parseValueNode parses the right-hand side of the "=value" shorthand: a
// quoted string or a variable, attached as a child-edge node.
func (p *qparser) parseValueNode() (*Node, error) {
	p.skip()
	switch c := p.peek(); {
	case c == '"':
		s, err := p.quoted()
		if err != nil {
			return nil, err
		}
		n := NewNode(Const, s, Child)
		if p.peek() == '!' {
			p.pos++
			n.Result = true
		}
		return n, nil
	case c == '$':
		p.pos++
		name, err := p.name()
		if err != nil {
			return nil, err
		}
		n := NewNode(Var, name, Child)
		if p.peek() == '!' {
			p.pos++
			n.Result = true
		}
		return n, nil
	default:
		return nil, p.errf("expected quoted value or $variable after =")
	}
}

func (p *qparser) name() (string, error) {
	start := p.pos
	if p.pos >= len(p.in) || !isNameStart(p.in[p.pos]) {
		return "", p.errf("expected a name")
	}
	for p.pos < len(p.in) && isNameChar(p.in[p.pos]) {
		p.pos++
	}
	return p.in[start:p.pos], nil
}

func (p *qparser) quoted() (string, error) {
	if p.peek() != '"' {
		return "", p.errf("expected opening quote")
	}
	p.pos++
	var sb strings.Builder
	for p.pos < len(p.in) {
		switch p.in[p.pos] {
		case '"':
			p.pos++
			return sb.String(), nil
		case '\\':
			p.pos++
			if p.pos >= len(p.in) {
				return "", p.errf("dangling escape")
			}
		}
		// Document text came from XML: a constant XML cannot hold never matches.
		r, n := utf8.DecodeRuneInString(p.in[p.pos:])
		if r == utf8.RuneError && n == 1 || !tree.IsXMLChar(r) {
			return "", p.errf("string holds %q, which is not an XML character", p.in[p.pos:p.pos+n])
		}
		sb.WriteString(p.in[p.pos : p.pos+n])
		p.pos += n
	}
	return "", p.errf("unterminated string")
}

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || (c >= '0' && c <= '9')
}
