package regex

import (
	"sort"
	"strings"
)

// Edge is a labelled transition of an NFA. A Symbol equal to Any matches
// every label.
type Edge struct {
	Symbol string
	To     int
}

// NFA is an ε-free nondeterministic finite automaton over labels. State 0
// is always the start state. NFAs are produced by Compile and by the
// combinators below; they are immutable once built.
type NFA struct {
	trans  [][]Edge
	accept []bool
}

// Compile translates an expression into an ε-free NFA via a Thompson
// construction followed by ε-elimination.
func Compile(e Expr) *NFA {
	b := &thompson{}
	start := b.newState()
	end := b.newState()
	b.build(e, start, end)
	return b.finish(start, end)
}

// PathStep is one step of a linear path: the label it matches (possibly
// Any) and whether it is reached through a descendant edge.
type PathStep struct {
	Label    string
	AnyDepth bool
}

// thompson builds an ε-NFA and eliminates epsilons at the end.
type thompson struct {
	eps   [][]int
	edges [][]Edge
}

func (b *thompson) newState() int {
	b.eps = append(b.eps, nil)
	b.edges = append(b.edges, nil)
	return len(b.eps) - 1
}

func (b *thompson) addEps(from, to int) { b.eps[from] = append(b.eps[from], to) }
func (b *thompson) addEdge(from int, sym string, to int) {
	b.edges[from] = append(b.edges[from], Edge{Symbol: sym, To: to})
}

func (b *thompson) build(e Expr, start, end int) {
	switch e.op {
	case opEmpty:
		// No transition: end unreachable from start through e.
	case opEps:
		b.addEps(start, end)
	case opSymbol:
		b.addEdge(start, e.symbol, end)
	case opConcat:
		cur := start
		for i, c := range e.children {
			next := end
			if i < len(e.children)-1 {
				next = b.newState()
			}
			b.build(c, cur, next)
			cur = next
		}
	case opAlt:
		for _, c := range e.children {
			b.build(c, start, end)
		}
	case opStar:
		mid := b.newState()
		b.addEps(start, mid)
		b.addEps(mid, end)
		b.build(e.children[0], mid, mid)
	case opPlus:
		mid := b.newState()
		b.build(e.children[0], start, mid)
		b.addEps(mid, end)
		b.build(e.children[0], mid, mid)
	case opOpt:
		b.addEps(start, end)
		b.build(e.children[0], start, end)
	}
}

// finish eliminates ε-transitions and returns an ε-free NFA whose state 0
// is the given start state.
func (b *thompson) finish(start, end int) *NFA {
	n := len(b.eps)
	closure := make([][]int, n)
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		stack := []int{s}
		seen[s] = true
		var cl []int
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cl = append(cl, x)
			for _, t := range b.eps[x] {
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
		closure[s] = cl
	}
	// Remap so the start state is 0 and keep only states reachable from it.
	order := []int{start}
	index := map[int]int{start: 0}
	trans := [][]Edge{nil}
	accept := []bool{false}
	for qi := 0; qi < len(order); qi++ {
		s := order[qi]
		isAccept := false
		var out []Edge
		for _, c := range closure[s] {
			if c == end {
				isAccept = true
			}
			for _, ed := range b.edges[c] {
				out = append(out, ed)
			}
		}
		// Resolve targets (through their own future remap).
		for i, ed := range out {
			t, ok := index[ed.To]
			if !ok {
				t = len(order)
				index[ed.To] = t
				order = append(order, ed.To)
				trans = append(trans, nil)
				accept = append(accept, false)
			}
			out[i].To = t
		}
		trans[qi] = dedupeEdges(out)
		accept[qi] = isAccept
	}
	return &NFA{trans: trans, accept: accept}
}

func dedupeEdges(es []Edge) []Edge {
	if len(es) < 2 {
		return es
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Symbol != es[j].Symbol {
			return es[i].Symbol < es[j].Symbol
		}
		return es[i].To < es[j].To
	})
	out := es[:1]
	for _, e := range es[1:] {
		if last := out[len(out)-1]; e != last {
			out = append(out, e)
		}
	}
	return out
}

// Accepting reports whether state s is accepting.
func (a *NFA) Accepting(s int) bool { return a.accept[s] }

// Edges returns the outgoing transitions of state s. The returned slice
// must not be modified.
func (a *NFA) Edges(s int) []Edge { return a.trans[s] }

// Alphabet returns the set of concrete symbols (Any excluded) appearing on
// any transition.
func (a *NFA) Alphabet() map[string]bool {
	out := map[string]bool{}
	for _, es := range a.trans {
		for _, e := range es {
			if e.Symbol != Any {
				out[e.Symbol] = true
			}
		}
	}
	return out
}

// Matches reports whether the automaton accepts the given word.
func (a *NFA) Matches(word []string) bool {
	cur := map[int]bool{0: true}
	for _, sym := range word {
		next := map[int]bool{}
		for s := range cur {
			for _, e := range a.trans[s] {
				if e.Symbol == sym || e.Symbol == Any {
					next[e.To] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	for s := range cur {
		if a.accept[s] {
			return true
		}
	}
	return false
}

// IsEmpty reports whether the language of the automaton is empty, i.e. no
// accepting state is reachable from the start state.
func (a *NFA) IsEmpty() bool {
	seen := make([]bool, len(a.trans))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.accept[s] {
			return false
		}
		for _, e := range a.trans[s] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return true
}

// PrefixClosure returns an automaton accepting every prefix of every word
// of a's language: all states that can reach an accepting state become
// accepting.
func (a *NFA) PrefixClosure() *NFA {
	n := len(a.trans)
	// Reverse reachability from accepting states.
	rev := make([][]int, n)
	for s, es := range a.trans {
		for _, e := range es {
			rev[e.To] = append(rev[e.To], s)
		}
	}
	acc := make([]bool, n)
	var stack []int
	for s := 0; s < n; s++ {
		if a.accept[s] {
			acc[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[s] {
			if !acc[p] {
				acc[p] = true
				stack = append(stack, p)
			}
		}
	}
	return &NFA{trans: a.trans, accept: acc}
}

// Intersect returns the product automaton accepting L(a) ∩ L(b). The
// wildcard Any is treated as "any label from the infinite alphabet": a pair
// of transitions combines on a concrete symbol when both sides allow it,
// and an (Any, Any) pair yields an Any transition in the product, which is
// what makes emptiness testing sound over unbounded alphabets.
func (a *NFA) Intersect(b *NFA) *NFA {
	type pair struct{ x, y int }
	index := map[pair]int{{0, 0}: 0}
	order := []pair{{0, 0}}
	var trans [][]Edge
	var accept []bool
	trans = append(trans, nil)
	accept = append(accept, a.accept[0] && b.accept[0])
	state := func(p pair) int {
		if i, ok := index[p]; ok {
			return i
		}
		i := len(order)
		index[p] = i
		order = append(order, p)
		trans = append(trans, nil)
		accept = append(accept, a.accept[p.x] && b.accept[p.y])
		return i
	}
	for qi := 0; qi < len(order); qi++ {
		p := order[qi]
		var out []Edge
		for _, ea := range a.trans[p.x] {
			for _, eb := range b.trans[p.y] {
				var sym string
				switch {
				case ea.Symbol == eb.Symbol:
					sym = ea.Symbol // concrete==concrete, or Any==Any
				case ea.Symbol == Any:
					sym = eb.Symbol
				case eb.Symbol == Any:
					sym = ea.Symbol
				default:
					continue
				}
				out = append(out, Edge{Symbol: sym, To: state(pair{ea.To, eb.To})})
			}
		}
		trans[qi] = dedupeEdges(out)
	}
	return &NFA{trans: trans, accept: accept}
}

// Intersects reports whether L(a) ∩ L(b) is non-empty.
func (a *NFA) Intersects(b *NFA) bool { return !a.Intersect(b).IsEmpty() }

// UsefulSymbols returns the concrete symbols that occur in at least one
// accepted word, i.e. symbols on a path from the start state to an
// accepting state. HasUsefulAny additionally reports whether a wildcard
// occurs on such a path.
func (a *NFA) UsefulSymbols() (symbols map[string]bool, hasUsefulAny bool) {
	n := len(a.trans)
	// Forward reachability.
	fwd := make([]bool, n)
	stack := []int{0}
	fwd[0] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range a.trans[s] {
			if !fwd[e.To] {
				fwd[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	// Backward reachability from accepting states.
	rev := make([][]int, n)
	for s, es := range a.trans {
		for _, e := range es {
			rev[e.To] = append(rev[e.To], s)
		}
	}
	bwd := make([]bool, n)
	for s := 0; s < n; s++ {
		if a.accept[s] {
			bwd[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[s] {
			if !bwd[p] {
				bwd[p] = true
				stack = append(stack, p)
			}
		}
	}
	symbols = map[string]bool{}
	for s, es := range a.trans {
		if !fwd[s] {
			continue
		}
		for _, e := range es {
			if !bwd[e.To] {
				continue
			}
			if e.Symbol == Any {
				hasUsefulAny = true
			} else {
				symbols[e.Symbol] = true
			}
		}
	}
	return symbols, hasUsefulAny
}

// String renders the automaton for debugging.
func (a *NFA) String() string {
	var sb strings.Builder
	for s, es := range a.trans {
		mark := " "
		if a.accept[s] {
			mark = "*"
		}
		if s == 0 {
			mark += ">"
		}
		for _, e := range es {
			sb.WriteString(strings.TrimSpace(mark))
			sb.WriteString(" ")
			sb.WriteString(strings.Join([]string{itoa(s), e.Symbol, itoa(e.To)}, " -"))
			sb.WriteString("\n")
		}
		if len(es) == 0 {
			sb.WriteString(strings.TrimSpace(mark) + " " + itoa(s) + "\n")
		}
	}
	return sb.String()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(b[pos:])
}
