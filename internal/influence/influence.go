// Package influence implements the call-sequencing analysis of Section 4
// of "Lazy Query Evaluation for Active XML" (SIGMOD 2004): the
// may-influence relation between NFQs (Proposition 3), its partition into
// layers processed in topological order (Section 4.3), and the
// independence condition (✶) that allows all the calls retrieved by an NFQ
// to be invoked in parallel (Section 4.4).
//
// The analysis works on the *position language* of each NFQ: the set of
// label paths under which it can retrieve function nodes — its linear part
// lin_v, extended with a trailing wildcard closure when the target node is
// reached through a descendant edge. NFQ q_v may influence q_w iff some
// word of P_v is a prefix of some word of P_w: a call retrieved by q_v
// can then produce, at or below its own position, a new call sitting at a
// position q_w retrieves.
package influence

import (
	"sort"

	"github.com/activexml/axml/internal/regex"
	"github.com/activexml/axml/internal/rewrite"
)

// Layer is one equivalence class of the mutual-influence relation: NFQs
// that may feed each other new calls and therefore must be processed
// together by the NFQA loop.
type Layer struct {
	// Members are indices into the Analysis' NFQ slice.
	Members []int
}

// Analysis holds the precomputed influence structure for a set of NFQs.
type Analysis struct {
	pos  []*regex.NFA // position language automaton per NFQ
	may  [][]bool     // may[i][j]: NFQ i may influence NFQ j (Proposition 3)
	lt   [][]bool     // transitive closure of may
	comp []int        // NFQ index → layer number (topological position)

	layers []Layer
}

// New runs the influence analysis over the given NFQs.
func New(nfqs []*rewrite.NFQ) *Analysis {
	n := len(nfqs)
	a := &Analysis{pos: make([]*regex.NFA, n)}
	for i, q := range nfqs {
		a.pos[i] = q.PositionNFA()
	}
	a.may = make([][]bool, n)
	prefixes := make([]*regex.NFA, n)
	for j := range nfqs {
		prefixes[j] = a.pos[j].PrefixClosure()
	}
	for i := range nfqs {
		a.may[i] = make([]bool, n)
		for j := range nfqs {
			a.may[i][j] = a.pos[i].Intersects(prefixes[j])
		}
	}
	a.closure()
	a.computeLayers()
	return a
}

// closure computes the reachability closure of the may relation
// (Floyd–Warshall on booleans; NFQ counts are small).
func (a *Analysis) closure() {
	n := len(a.may)
	a.lt = make([][]bool, n)
	for i := range a.lt {
		a.lt[i] = make([]bool, n)
		copy(a.lt[i], a.may[i])
		a.lt[i][i] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !a.lt[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if a.lt[k][j] {
					a.lt[i][j] = true
				}
			}
		}
	}
}

// computeLayers groups mutually influencing NFQs (i ≈ j iff i ⇝* j and
// j ⇝* i) and orders the groups in a topological completion of the
// induced partial order, breaking ties by smallest member index so the
// result is deterministic.
func (a *Analysis) computeLayers() {
	n := len(a.may)
	a.comp = make([]int, n)
	for i := range a.comp {
		a.comp[i] = -1
	}
	var classes []Layer
	for i := 0; i < n; i++ {
		if a.comp[i] >= 0 {
			continue
		}
		c := len(classes)
		var members []int
		for j := i; j < n; j++ {
			if a.comp[j] < 0 && a.lt[i][j] && a.lt[j][i] {
				a.comp[j] = c
				members = append(members, j)
			}
		}
		classes = append(classes, Layer{Members: members})
	}
	// Kahn's algorithm over the class DAG, preferring the class with the
	// smallest first member among the ready ones.
	k := len(classes)
	depends := make([][]bool, k) // depends[x][y]: x must run after y
	indeg := make([]int, k)
	for x := 0; x < k; x++ {
		depends[x] = make([]bool, k)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ci, cj := a.comp[i], a.comp[j]
			if ci != cj && a.lt[i][j] && !depends[cj][ci] {
				depends[cj][ci] = true // i influences j → class of i first
				indeg[cj]++
			}
		}
	}
	var order []int
	done := make([]bool, k)
	for len(order) < k {
		best := -1
		for x := 0; x < k; x++ {
			if done[x] || indeg[x] != 0 {
				continue
			}
			if best < 0 || classes[x].Members[0] < classes[best].Members[0] {
				best = x
			}
		}
		if best < 0 {
			// Cannot happen: the class graph is a DAG by construction.
			panic("influence: cycle in layer DAG")
		}
		done[best] = true
		order = append(order, best)
		for y := 0; y < k; y++ {
			if !done[y] && depends[y][best] {
				depends[y][best] = false
				indeg[y]--
			}
		}
	}
	a.layers = make([]Layer, 0, k)
	remap := make([]int, k)
	for pos, c := range order {
		remap[c] = pos
		a.layers = append(a.layers, classes[c])
	}
	for i := range a.comp {
		a.comp[i] = remap[a.comp[i]]
	}
}

// Layers returns the NFQ layers in processing order (Section 4.3): if
// some NFQ of layer p may (transitively) influence some NFQ of layer q≠p,
// then p comes before q.
func (a *Analysis) Layers() []Layer { return a.layers }

// Independent reports the (✶) condition of Section 4.4 for nfqs[i]: its
// position language is disjoint from every *other* same-layer NFQ's, so
// invoking one retrieved call can neither add nor remove candidates of
// the others, and all the calls it retrieves may be fired in parallel.
func (a *Analysis) Independent(i int) bool {
	for _, j := range a.layers[a.comp[i]].Members {
		if j == i {
			continue
		}
		if a.pos[i].Intersects(a.pos[j]) {
			return false
		}
	}
	return true
}

// SortedMembers returns the layer's member indices in ascending order
// (a defensive copy).
func (l Layer) SortedMembers() []int {
	out := append([]int(nil), l.Members...)
	sort.Ints(out)
	return out
}
