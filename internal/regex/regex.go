// Package regex implements regular expressions over label alphabets and
// the automata operations the lazy-evaluation algorithms rely on.
//
// Two clients use it:
//
//   - the influence analysis of Section 4.2 of the paper, which tests
//     whether some word of one linear-path language is a prefix of some
//     word of another (Proposition 3), and whether two such languages
//     intersect (the independence condition (✶) of Section 4.4);
//   - the type analysis of Section 5, which interprets the DTD-like
//     content models of service signatures (Figure 2 of the paper).
//
// Alphabets are XML label sets and therefore unbounded; the special symbol
// Any stands for "any single label" and is handled natively by the product
// construction, so emptiness tests are sound for the infinite alphabet.
package regex

import (
	"fmt"
	"strings"
)

// Any is the wildcard symbol: it matches every label. "*" is not a valid
// XML name, so it can never collide with a real label.
const Any = "*"

// Expr is a regular expression over labels. Expressions are immutable
// values built with the constructors below or by Parse.
type Expr struct {
	op       opKind
	symbol   string // for opSymbol
	children []Expr // for opConcat, opAlt, opStar, opOpt, opPlus
}

type opKind uint8

const (
	opEmpty  opKind = iota // ∅ — no word
	opEps                  // ε — the empty word
	opSymbol               // a single label (possibly Any)
	opConcat               // e1.e2...
	opAlt                  // e1|e2...
	opStar                 // e*
	opPlus                 // e+
	opOpt                  // e?
)

// Empty returns the expression denoting the empty language.
func Empty() Expr { return Expr{op: opEmpty} }

// Eps returns the expression denoting the language {ε}.
func Eps() Expr { return Expr{op: opEps} }

// Sym returns the expression matching exactly the given label. Sym(Any)
// matches any single label.
func Sym(label string) Expr { return Expr{op: opSymbol, symbol: label} }

// Concat returns the concatenation of the given expressions; Concat() is ε.
func Concat(es ...Expr) Expr {
	switch len(es) {
	case 0:
		return Eps()
	case 1:
		return es[0]
	}
	return Expr{op: opConcat, children: es}
}

// Alt returns the alternation of the given expressions; Alt() is ∅.
func Alt(es ...Expr) Expr {
	switch len(es) {
	case 0:
		return Empty()
	case 1:
		return es[0]
	}
	return Expr{op: opAlt, children: es}
}

// Star returns e*.
func Star(e Expr) Expr { return Expr{op: opStar, children: []Expr{e}} }

// Plus returns e+.
func Plus(e Expr) Expr { return Expr{op: opPlus, children: []Expr{e}} }

// Opt returns e?.
func Opt(e Expr) Expr { return Expr{op: opOpt, children: []Expr{e}} }

// String renders the expression in the DTD-like syntax accepted by Parse.
func (e Expr) String() string {
	switch e.op {
	case opEmpty:
		return "#empty"
	case opEps:
		return "#eps"
	case opSymbol:
		return e.symbol
	case opConcat:
		parts := make([]string, len(e.children))
		for i, c := range e.children {
			if c.op == opAlt {
				parts[i] = "(" + c.String() + ")"
			} else {
				parts[i] = c.String()
			}
		}
		return strings.Join(parts, ".")
	case opAlt:
		parts := make([]string, len(e.children))
		for i, c := range e.children {
			parts[i] = c.String()
		}
		return strings.Join(parts, "|")
	case opStar, opPlus, opOpt:
		suffix := map[opKind]string{opStar: "*", opPlus: "+", opOpt: "?"}[e.op]
		c := e.children[0]
		if c.op == opSymbol || c.op == opEps || c.op == opEmpty {
			return c.String() + suffix
		}
		return "(" + c.String() + ")" + suffix
	default:
		return fmt.Sprintf("#op(%d)", e.op)
	}
}

// Symbols returns the set of concrete labels mentioned by the expression
// (Any excluded).
func (e Expr) Symbols() map[string]bool {
	out := map[string]bool{}
	e.collectSymbols(out)
	return out
}

func (e Expr) collectSymbols(out map[string]bool) {
	if e.op == opSymbol && e.symbol != Any {
		out[e.symbol] = true
	}
	for _, c := range e.children {
		c.collectSymbols(out)
	}
}

// Parse reads the DTD-like syntax used by the paper's Figure 2:
// concatenation with ".", alternation with "|", postfix "*", "+", "?",
// grouping with parentheses. Symbols are XML-name-like identifiers; the
// keyword parsing (e.g. "data") is up to the caller. "#eps" and "#empty"
// denote ε and ∅. Whitespace is insignificant.
func Parse(s string) (Expr, error) {
	p := &parser{input: s}
	e, err := p.parseAlt()
	if err != nil {
		return Empty(), err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return Empty(), fmt.Errorf("regex: trailing input at offset %d in %q", p.pos, s)
	}
	return e, nil
}

type parser struct {
	input string
	pos   int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.input) {
		return p.input[p.pos]
	}
	return 0
}

func (p *parser) parseAlt() (Expr, error) {
	var alts []Expr
	for {
		e, err := p.parseConcat()
		if err != nil {
			return Empty(), err
		}
		alts = append(alts, e)
		p.skipSpace()
		if p.peek() != '|' {
			break
		}
		p.pos++
	}
	return Alt(alts...), nil
}

func (p *parser) parseConcat() (Expr, error) {
	var parts []Expr
	for {
		e, err := p.parsePostfix()
		if err != nil {
			return Empty(), err
		}
		parts = append(parts, e)
		p.skipSpace()
		if p.peek() != '.' {
			break
		}
		p.pos++
	}
	return Concat(parts...), nil
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return Empty(), err
	}
	for {
		p.skipSpace()
		switch p.peek() {
		case '*':
			p.pos++
			e = Star(e)
		case '+':
			p.pos++
			e = Plus(e)
		case '?':
			p.pos++
			e = Opt(e)
		default:
			return e, nil
		}
	}
}

func (p *parser) parseAtom() (Expr, error) {
	p.skipSpace()
	switch c := p.peek(); {
	case c == '(':
		p.pos++
		e, err := p.parseAlt()
		if err != nil {
			return Empty(), err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return Empty(), fmt.Errorf("regex: missing ')' at offset %d in %q", p.pos, p.input)
		}
		p.pos++
		return e, nil
	case c == '#':
		start := p.pos
		p.pos++
		for p.pos < len(p.input) && isNameByte(p.input[p.pos]) {
			p.pos++
		}
		switch p.input[start:p.pos] {
		case "#eps":
			return Eps(), nil
		case "#empty":
			return Empty(), nil
		default:
			return Empty(), fmt.Errorf("regex: unknown keyword %q", p.input[start:p.pos])
		}
	case isNameStartByte(c):
		start := p.pos
		for p.pos < len(p.input) && isNameByte(p.input[p.pos]) {
			p.pos++
		}
		return Sym(p.input[start:p.pos]), nil
	case c == 0:
		return Empty(), fmt.Errorf("regex: unexpected end of input in %q", p.input)
	default:
		return Empty(), fmt.Errorf("regex: unexpected byte %q at offset %d in %q", c, p.pos, p.input)
	}
}

func isNameStartByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameByte(c byte) bool {
	return isNameStartByte(c) || c == '-' || (c >= '0' && c <= '9')
}
