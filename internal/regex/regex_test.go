package regex

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	cases := []struct{ in, out string }{
		{"a", "a"},
		{"a.b.c", "a.b.c"},
		{"a|b", "a|b"},
		{"(a|b).c", "(a|b).c"},
		{"a*", "a*"},
		{"a+", "a+"},
		{"a?", "a?"},
		{"(a.b)*", "(a.b)*"},
		{"restaurant*.getNearbyRestos?.museum*", "restaurant*.getNearbyRestos?.museum*"},
		{"#eps", "#eps"},
		{"#empty", "#empty"},
		{"data", "data"},
		{" a . b ", "a.b"},
		{"a**", "(a*)*"},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := e.String(); got != c.out {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.out)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "(a", "a)", "a..b", "|a|", "#frob", "a b", "5a", ".a"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestSymbols(t *testing.T) {
	e := mustParse("a.(b|c)*.a")
	syms := e.Symbols()
	if len(syms) != 3 || !syms["a"] || !syms["b"] || !syms["c"] {
		t.Fatalf("Symbols = %v", syms)
	}
	star := Concat(Sym(Any), Sym("x"))
	if s := star.Symbols(); len(s) != 1 || !s["x"] {
		t.Fatalf("Any must be excluded from Symbols: %v", s)
	}
}

func w(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, " ")
}

func mustParse(s string) Expr {
	e, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return e
}

// compilePath builds the NFA of a linear path: an AnyDepth step is
// preceded by σ*, so /a/*/b//c is a·σ·b·σ*·c.
func compilePath(steps []PathStep) *NFA {
	var parts []Expr
	for _, s := range steps {
		if s.AnyDepth {
			parts = append(parts, Star(Sym(Any)))
		}
		parts = append(parts, Sym(s.Label))
	}
	return Compile(Concat(parts...))
}

// someWordIsPrefixOf is the test of Proposition 3 of the paper, as the
// influence analysis runs it: some word of L(a) is a prefix of some word
// of L(b).
func someWordIsPrefixOf(a, b *NFA) bool { return a.Intersects(b.PrefixClosure()) }

func TestCompileMatches(t *testing.T) {
	cases := []struct {
		expr    string
		yes, no []string
	}{
		{"a", []string{"a"}, []string{"", "b", "a a"}},
		{"a.b", []string{"a b"}, []string{"a", "b", "b a", "a b c"}},
		{"a|b", []string{"a", "b"}, []string{"", "c", "a b"}},
		{"a*", []string{"", "a", "a a a"}, []string{"b", "a b"}},
		{"a+", []string{"a", "a a"}, []string{"", "b"}},
		{"a?", []string{"", "a"}, []string{"a a"}},
		{"(a|b)*.c", []string{"c", "a c", "b a c"}, []string{"", "a", "c c a"}},
		{"#eps", []string{""}, []string{"a"}},
		{"#empty", nil, []string{"", "a"}},
		{"a.#empty", nil, []string{"a", ""}},
		{"a.#eps.b", []string{"a b"}, []string{"a", "a b b"}},
	}
	for _, c := range cases {
		a := Compile(mustParse(c.expr))
		for _, word := range c.yes {
			if !a.Matches(w(word)) {
				t.Errorf("%q should match %q", c.expr, word)
			}
		}
		for _, word := range c.no {
			if a.Matches(w(word)) {
				t.Errorf("%q should not match %q", c.expr, word)
			}
		}
	}
}

func TestWildcardMatches(t *testing.T) {
	// σ·a matches any label followed by a.
	a := Compile(Concat(Sym(Any), Sym("a")))
	if !a.Matches(w("z a")) || !a.Matches(w("a a")) {
		t.Fatal("wildcard did not match")
	}
	if a.Matches(w("a")) || a.Matches(w("a z")) {
		t.Fatal("wildcard over-matched")
	}
}

func TestCompilePath(t *testing.T) {
	// /a/*/b//c  ≡  a·σ·b·σ*·c
	p := compilePath([]PathStep{
		{Label: "a"}, {Label: Any}, {Label: "b"}, {Label: "c", AnyDepth: true},
	})
	for _, word := range []string{"a x b c", "a x b y z c"} {
		if !p.Matches(w(word)) {
			t.Errorf("path should match %q", word)
		}
	}
	for _, word := range []string{"a b c", "a x b", "a x b c d"} {
		if p.Matches(w(word)) {
			t.Errorf("path should not match %q", word)
		}
	}
}

func TestIsEmpty(t *testing.T) {
	if Compile(mustParse("a.b")).IsEmpty() {
		t.Fatal("a.b reported empty")
	}
	if !Compile(Empty()).IsEmpty() {
		t.Fatal("∅ reported non-empty")
	}
	if Compile(Eps()).IsEmpty() {
		t.Fatal("{ε} reported empty")
	}
	if !Compile(Concat(Sym("a"), Empty())).IsEmpty() {
		t.Fatal("a.∅ reported non-empty")
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"a.b", "a.b", true},
		{"a.b", "a.c", false},
		{"(a|b).c", "b.c", true},
		{"a*", "a.a.a", true},
		{"a*", "b", false},
		{"a?", "#eps", true},
		{"a", "#eps", false},
	}
	for _, c := range cases {
		got := Compile(mustParse(c.a)).Intersects(Compile(mustParse(c.b)))
		if got != c.want {
			t.Errorf("Intersects(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersectWildcard(t *testing.T) {
	// L1 = σ*·a (paths ending in a), L2 = b·σ* (paths starting with b).
	l1 := Compile(Concat(Star(Sym(Any)), Sym("a")))
	l2 := Compile(Concat(Sym("b"), Star(Sym(Any))))
	if !l1.Intersects(l2) {
		t.Fatal("σ*a ∩ bσ* should contain b·a")
	}
	// L3 = a exactly; b·σ* cannot contain it.
	if Compile(Sym("a")).Intersects(l2) {
		t.Fatal("a ∩ bσ* should be empty")
	}
	// Pure wildcard languages must intersect even with disjoint concrete
	// alphabets (the infinite-alphabet soundness case).
	x := Compile(Concat(Sym(Any), Sym(Any)))
	y := Compile(Star(Sym(Any)))
	if !x.Intersects(y) {
		t.Fatal("σσ ∩ σ* should be non-empty")
	}
}

func TestPrefixClosure(t *testing.T) {
	a := Compile(mustParse("a.b.c")).PrefixClosure()
	for _, word := range []string{"", "a", "a b", "a b c"} {
		if !a.Matches(w(word)) {
			t.Errorf("prefix closure should match %q", word)
		}
	}
	for _, word := range []string{"b", "a c", "a b c d"} {
		if a.Matches(w(word)) {
			t.Errorf("prefix closure should not match %q", word)
		}
	}
}

func TestSomeWordIsPrefixOf(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		// hotel is a prefix of hotel.rating.
		{"hotel", "hotel.rating", true},
		// hotel.nearby is not a prefix of hotel.rating.*
		{"hotel.nearby", "hotel.rating", false},
		// Equality counts as prefix.
		{"a.b", "a.b", true},
		// Longer than every word of b: not a prefix.
		{"a.b.c", "a.b", false},
		{"a*", "b", true}, // ε ∈ a* is a prefix of everything
	}
	for _, c := range cases {
		got := someWordIsPrefixOf(Compile(mustParse(c.a)), Compile(mustParse(c.b)))
		if got != c.want {
			t.Errorf("SomeWordIsPrefixOf(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSomeWordIsPrefixOfWithDescendants(t *testing.T) {
	// The paper's §4.3 example: lin_v = //a and lin_w = //b influence each
	// other because a word ending in b may have a prefix ending in a.
	la := compilePath([]PathStep{{Label: "a", AnyDepth: true}})
	lb := compilePath([]PathStep{{Label: "b", AnyDepth: true}})
	if !someWordIsPrefixOf(la, lb) || !someWordIsPrefixOf(lb, la) {
		t.Fatal("//a and //b must mutually influence")
	}
	// But /a cannot be a prefix of /b (both are length-1 words).
	pa := compilePath([]PathStep{{Label: "a"}})
	pb := compilePath([]PathStep{{Label: "b"}})
	if someWordIsPrefixOf(pa, pb) {
		t.Fatal("/a must not be a prefix of /b")
	}
}

func TestUsefulSymbols(t *testing.T) {
	// b is only on a dead branch (followed by ∅), so it is not useful.
	e := Alt(Concat(Sym("a"), Sym("c")), Concat(Sym("b"), Empty()))
	syms, anyUseful := Compile(e).UsefulSymbols()
	if !syms["a"] || !syms["c"] || syms["b"] {
		t.Fatalf("UsefulSymbols = %v", syms)
	}
	if anyUseful {
		t.Fatal("no wildcard in this expression")
	}
	_, anyUseful = Compile(Concat(Sym(Any), Sym("x"))).UsefulSymbols()
	if !anyUseful {
		t.Fatal("wildcard on a useful path not reported")
	}
}

func TestAlphabet(t *testing.T) {
	a := Compile(mustParse("a.(b|c)"))
	al := a.Alphabet()
	if len(al) != 3 || !al["a"] || !al["b"] || !al["c"] {
		t.Fatalf("Alphabet = %v", al)
	}
}

func TestNFAStringSmoke(t *testing.T) {
	if s := Compile(mustParse("a|b")).String(); !strings.Contains(s, "a") {
		t.Fatalf("String output looks wrong: %q", s)
	}
}

// TestIntersectionSoundProperty: for random small expressions, a word
// accepted by both must be accepted by the product, and vice versa for a
// sample of short words over {a,b}.
func TestIntersectionSoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		e1 := randomExpr(seed, 3)
		e2 := randomExpr(seed*31+7, 3)
		a1, a2 := Compile(e1), Compile(e2)
		prod := a1.Intersect(a2)
		// Enumerate all words over {a,b} up to length 4.
		words := [][]string{nil}
		for l := 1; l <= 4; l++ {
			var next [][]string
			for _, word := range words {
				if len(word) == l-1 {
					for _, s := range []string{"a", "b"} {
						nw := append(append([]string{}, word...), s)
						next = append(next, nw)
					}
				}
			}
			words = append(words, next...)
		}
		for _, word := range words {
			if (a1.Matches(word) && a2.Matches(word)) != prod.Matches(word) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixClosureProperty: every prefix of an accepted word is accepted
// by the prefix closure.
func TestPrefixClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		e := randomExpr(seed, 4)
		a := Compile(e)
		p := a.PrefixClosure()
		words := allWords(4)
		for _, word := range words {
			if a.Matches(word) {
				for i := 0; i <= len(word); i++ {
					if !p.Matches(word[:i]) {
						return false
					}
				}
			}
			// And conversely: anything the closure accepts must extend to
			// an accepted word of length ≤ 8 or be a true prefix — the
			// cheap direction only, checked above.
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func allWords(maxLen int) [][]string {
	words := [][]string{nil}
	frontier := [][]string{nil}
	for l := 0; l < maxLen; l++ {
		var next [][]string
		for _, word := range frontier {
			for _, s := range []string{"a", "b"} {
				nw := append(append([]string{}, word...), s)
				next = append(next, nw)
			}
		}
		words = append(words, next...)
		frontier = next
	}
	return words
}

func randomExpr(seed int64, depth int) Expr {
	state := uint64(seed)*0x9e3779b97f4a7c15 + 1
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	var build func(d int) Expr
	build = func(d int) Expr {
		if d <= 0 {
			switch next(3) {
			case 0:
				return Sym("a")
			case 1:
				return Sym("b")
			default:
				return Eps()
			}
		}
		switch next(6) {
		case 0:
			return Concat(build(d-1), build(d-1))
		case 1:
			return Alt(build(d-1), build(d-1))
		case 2:
			return Star(build(d - 1))
		case 3:
			return Opt(build(d - 1))
		case 4:
			return Plus(build(d - 1))
		default:
			return build(0)
		}
	}
	return build(depth)
}

func TestSubset(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"a", "a", true},
		{"a", "a|b", true},
		{"a|b", "a", false},
		{"a.b", "a.(b|c)", true},
		{"a*", "a*", true},
		{"a.a", "a*", true},
		{"a*", "a.a", false},
		{"#eps", "a*", true},
		{"#empty", "a", true},
		{"a", "#empty", false},
		{"(a|b)*", "a*|b*", false}, // "ab" distinguishes them
		{"a*|b*", "(a|b)*", true},
	}
	for _, c := range cases {
		got := Subset(Compile(mustParse(c.a)), Compile(mustParse(c.b)))
		if got != c.want {
			t.Errorf("Subset(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSubsetWithWildcards(t *testing.T) {
	anyStar := Compile(Star(Sym(Any)))                 // σ*
	endsA := Compile(Concat(Star(Sym(Any)), Sym("a"))) // σ*·a
	just := Compile(mustParse("b.a"))
	if !Subset(just, endsA) {
		t.Error("b·a ⊆ σ*a")
	}
	if !Subset(endsA, anyStar) {
		t.Error("σ*a ⊆ σ*")
	}
	if Subset(anyStar, endsA) {
		t.Error("σ* ⊄ σ*a")
	}
	// The infinite-alphabet case: σ is not contained in a|b even though
	// a and b are the only concrete symbols mentioned.
	sigma := Compile(Sym(Any))
	ab := Compile(mustParse("a|b"))
	if Subset(sigma, ab) {
		t.Error("σ ⊄ a|b: some fresh label is not in {a,b}")
	}
	if !Subset(ab, sigma) {
		t.Error("a|b ⊆ σ")
	}
}

// TestEquivalent: containment both ways decides language equality.
func TestEquivalent(t *testing.T) {
	equivalent := func(a, b *NFA) bool { return Subset(a, b) && Subset(b, a) }
	if !equivalent(Compile(mustParse("a*|b*")), Compile(mustParse("a*|b*|#eps"))) {
		t.Error("ε is already in a*")
	}
	if equivalent(Compile(mustParse("a")), Compile(mustParse("a|b"))) {
		t.Error("a ≠ a|b")
	}
}

// TestSubsetAgreesWithSampling cross-checks Subset against word sampling
// on random expressions: if Subset says yes, no sampled word of a may be
// rejected by b; if it says no, sampling often (not always) finds a
// witness — only the sound direction is asserted.
func TestSubsetAgreesWithSampling(t *testing.T) {
	f := func(seed int64) bool {
		a := Compile(randomExpr(seed, 3))
		b := Compile(randomExpr(seed*17+3, 3))
		if !Subset(a, b) {
			return true // nothing to check in the negative case
		}
		for _, word := range allWords(5) {
			if a.Matches(word) && !b.Matches(word) {
				t.Logf("seed %d: containment violated on %v", seed, word)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
