package pattern

import (
	"testing"
)

// FuzzParse checks the parser's two load-bearing contracts on arbitrary
// input (seed corpus: the doc/QUERYLANG.md examples plus testdata/fuzz):
//
//  1. Parse never panics — it returns a pattern or an error.
//  2. Rendering is canonical: String of a parsed pattern re-parses (via
//     ParseExact, the wire entry point), and re-rendering is a fixed
//     point. Pushed-subquery fingerprints rely on exactly this identity.
//  3. A shape binds back to the pattern it was lifted from (Lift, Bind),
//     whichever constants are lifted.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		// Figure 4 of the paper, as doc/QUERYLANG.md writes it.
		`/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X] -> $X`,
		// The value-join example: same variable in two branches.
		`/hotels/hotel[name=$H][nearby//restaurant[name=$H]] -> $H`,
		// The nightlife example with a descendant edge from the root.
		`//hotel[nearby//bar[music="live"]]/name!`,
		// The extended OR-group and star-function syntax.
		`/hotels/hotel[(rating|())]/nearby/()`,
		// Function nodes and explicit result markers.
		`/shop/items/name()`,
		`/a//b[c=$X][d="v"]/e! -> $X`,
		`/""`,
		`/()!`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		p, err := Parse(input)
		if err != nil {
			return
		}
		canon := p.String()
		q, err := ParseExact(canon)
		if err != nil {
			t.Fatalf("String of a parsed pattern does not re-parse:\n input %q\n canon %q\n err %v",
				input, canon, err)
		}
		if again := q.String(); again != canon {
			t.Fatalf("rendering is not a fixed point:\n input %q\n canon %q\n again %q",
				input, canon, again)
		}
		shape, args := p.Lift(func(label string) bool { return len(label)%2 == 0 })
		if got := shape.Bind(args).String(); got != canon {
			t.Fatalf("a shape does not bind back:\n input %q\n canon %q\n shape %q %q\n bound %q",
				input, canon, shape.String(), args, got)
		}
		// The exact parser must agree with itself as well.
		if _, err := ParseExact(input); err == nil {
			e, _ := ParseExact(input)
			ec := e.String()
			e2, err := ParseExact(ec)
			if err != nil {
				t.Fatalf("ParseExact canon does not re-parse: %q -> %q: %v", input, ec, err)
			}
			if e2.String() != ec {
				t.Fatalf("ParseExact rendering not a fixed point: %q -> %q -> %q", input, ec, e2.String())
			}
		}
	})
}
