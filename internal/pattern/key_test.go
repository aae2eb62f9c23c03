package pattern

import (
	"testing"

	"github.com/activexml/axml/internal/tree"
)

// TestPushedTuplesThatLookAlikeStayApart is the regression test of key
// injectivity: two pushed tuples whose bindings would render to one string
// if names and values were only joined by separators — {A:"p;$B=q", B:"z"}
// and {A:"p", B:"q;$B=z"} — are two results, not one deduplicated away.
func TestPushedTuplesThatLookAlikeStayApart(t *testing.T) {
	q := MustParse(`/r/x[a=$A][b=$B] -> $A, $B`)
	x := q.Root().Children[0].Children[0]
	root := tree.NewElement("r")
	root.Append(tree.NewTuples(q.Fingerprint(x), []tree.Binding{
		{"A": "p;$B=q", "B": "z"},
		{"A": "p", "B": "q;$B=z"},
	}))
	rs, _ := Eval(tree.NewDocument(root), q)
	if len(rs) != 2 {
		t.Fatalf("%d results %v, want the two pushed tuples", len(rs), rs)
	}
	if rs[0].Values["A"] != "p;$B=q" || rs[1].Values["B"] != "q;$B=z" {
		t.Fatalf("results %v, want the tuples in pushed order", rs)
	}
}

// TestResultKeysAreInjective renders pairs of Results that differ only in
// where a ';', '$', '=', '@' or digit falls between names, values and
// captures; every pair must get two keys, and one Result built in two
// orders one.
func TestResultKeysAreInjective(t *testing.T) {
	node := func(id uint64) *tree.Node { return &tree.Node{ID: id} }
	vals := func(kv ...string) Result {
		r := Result{Values: map[string]string{}, Nodes: map[int]*tree.Node{}}
		for i := 0; i < len(kv); i += 2 {
			r.Values[kv[i]] = kv[i+1]
		}
		return r
	}
	caps := func(r Result, idDoc ...uint64) Result {
		for i := 0; i < len(idDoc); i += 2 {
			r.Nodes[int(idDoc[i])] = node(idDoc[i+1])
		}
		return r
	}
	for _, tc := range []struct {
		name string
		a, b Result
	}{
		{"separator inside a value", vals("A", "p;$B=q", "B", "z"), vals("A", "p", "B", "q;$B=z")},
		{"'=' between name and value", vals("A", "x=y"), vals("A=x", "y")},
		{"'$' at a name's end or a value's start", vals("A$", "x"), vals("A", "$x")},
		{"empty name or empty value", vals("", "x"), vals("x", "")},
		{"an empty binding or none", vals("A", ""), vals()},
		{"a value that reads as the next binding", vals("A", "v", "B", ""), vals("A", "v$1:B0:")},
		{"a value that reads as a capture", vals("A", "#1@2"), caps(vals("A", ""), 1, 2)},
		{"'@' between capture ID and node ID", caps(vals(), 1, 23), caps(vals(), 12, 3)},
		{"two captures or one", caps(vals(), 1, 2, 3, 4), caps(vals(), 13, 24)},
		{"digits moving across a length prefix", vals("A1", "2"), vals("A", "12")},
	} {
		if ka, kb := tc.a.Key(), tc.b.Key(); ka == kb {
			t.Errorf("%s: %v and %v share the key %q", tc.name, tc.a, tc.b, ka)
		}
	}
	same := caps(vals("A", "p", "B", "q"), 3, 9, 1, 7)
	if other := caps(vals("B", "q", "A", "p"), 1, 7, 3, 9); same.Key() != other.Key() {
		t.Errorf("one Result built in two orders got keys %q and %q", same.Key(), other.Key())
	}
}
