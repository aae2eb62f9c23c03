package regex

import "sort"

// Subset reports whether L(a) ⊆ L(b). It decides the containment by
// checking L(a) ∩ ¬L(b) = ∅ over the effective alphabet: the concrete
// symbols either automaton mentions plus one fresh symbol standing for
// the (infinitely many) remaining labels — sufficient because neither
// language distinguishes labels it does not mention. The complement is
// taken on the determinisation of b, so the cost is exponential in b's
// size in the worst case; the linear-path automata this is used on are
// tiny.
func Subset(a, b *NFA) bool {
	alphabet := map[string]bool{}
	for s := range a.Alphabet() {
		alphabet[s] = true
	}
	for s := range b.Alphabet() {
		alphabet[s] = true
	}
	alphabet[otherSymbol] = true
	symbols := make([]string, 0, len(alphabet))
	for s := range alphabet {
		symbols = append(symbols, s)
	}
	sort.Strings(symbols)

	dfa := determinize(b, symbols)
	// Product walk of a against the complement of dfa: a word witnesses
	// non-containment iff a accepts while dfa does not.
	type state struct {
		na int // state of a
		db int // state of dfa
	}
	seen := map[state]bool{}
	var stack []state
	start := state{0, 0}
	seen[start] = true
	stack = append(stack, start)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.accept[cur.na] && !dfa.accept[cur.db] {
			return false
		}
		for _, e := range a.trans[cur.na] {
			syms := []string{e.Symbol}
			if e.Symbol == Any {
				syms = symbols
			}
			for _, sym := range syms {
				next := state{e.To, dfa.step(cur.db, sym)}
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
	}
	return true
}

// otherSymbol stands for every label outside the effective alphabet of a
// containment check. A leading space cannot occur in an XML name, so it
// never collides with a real label.
const otherSymbol = " other"

// dfa is a complete deterministic automaton over a fixed symbol list.
// State 0 is the start subset; the empty subset, when reachable, acts as
// the dead state (all transitions loop on it, never accepting).
type dfa struct {
	symIndex map[string]int
	trans    [][]int // [state][symbol] → state
	accept   []bool
}

func (d *dfa) step(s int, sym string) int {
	i, ok := d.symIndex[sym]
	if !ok {
		// Symbols outside the effective alphabet behave like "other",
		// which is always present.
		i = d.symIndex[otherSymbol]
	}
	return d.trans[s][i]
}

// determinize builds a complete DFA for n over the given symbols. Any
// transitions of n apply to every symbol.
func determinize(n *NFA, symbols []string) *dfa {
	symIndex := make(map[string]int, len(symbols))
	for i, s := range symbols {
		symIndex[s] = i
	}
	type subset string // canonical encoding of a sorted state set
	encode := func(states []int) subset {
		sort.Ints(states)
		b := make([]byte, 0, 4*len(states))
		for _, s := range states {
			b = append(b, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
		}
		return subset(b)
	}
	start := []int{0}
	index := map[subset]int{encode(start): 0}
	sets := [][]int{start}
	d := &dfa{symIndex: symIndex}
	d.trans = append(d.trans, make([]int, len(symbols)))
	d.accept = append(d.accept, n.accept[0])
	for qi := 0; qi < len(sets); qi++ {
		cur := sets[qi]
		for si, sym := range symbols {
			var next []int
			seen := map[int]bool{}
			for _, s := range cur {
				for _, e := range n.trans[s] {
					if (e.Symbol == sym || e.Symbol == Any) && !seen[e.To] {
						seen[e.To] = true
						next = append(next, e.To)
					}
				}
			}
			key := encode(next)
			t, ok := index[key]
			if !ok {
				t = len(sets)
				index[key] = t
				sets = append(sets, next)
				d.trans = append(d.trans, make([]int, len(symbols)))
				acc := false
				for _, s := range next {
					if n.accept[s] {
						acc = true
						break
					}
				}
				d.accept = append(d.accept, acc)
			}
			d.trans[qi][si] = t
		}
	}
	return d
}
