package construct

import (
	"strings"
	"testing"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/tree"
)

func results(bindings ...map[string]string) []pattern.Result {
	out := make([]pattern.Result, 0, len(bindings))
	for _, b := range bindings {
		out = append(out, pattern.Result{Values: b})
	}
	return out
}

func TestParseAndVariables(t *testing.T) {
	tmpl := mustParseTemplate(`<venue><name>{$X}</name><where>{$Y} ({$X})</where></venue>`)
	vars := tmpl.Variables()
	if len(vars) != 2 || vars[0] != "X" || vars[1] != "Y" {
		t.Fatalf("Variables = %v", vars)
	}
}

func TestInstantiate(t *testing.T) {
	tmpl := mustParseTemplate(`<venue><name>{$X}</name><where>{$Y}</where></venue>`)
	forest, err := tmpl.Instantiate(pattern.Result{Values: map[string]string{"X": "Mama", "Y": "2nd Av."}})
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 1 {
		t.Fatalf("forest size = %d", len(forest))
	}
	v := forest[0]
	if v.Child("name").Value() != "Mama" || v.Child("where").Value() != "2nd Av." {
		t.Fatalf("instantiated = %s", v)
	}
	// The template itself is untouched.
	again, err := tmpl.Instantiate(pattern.Result{Values: map[string]string{"X": "Jo", "Y": "3rd"}})
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Child("name").Value() != "Jo" {
		t.Fatal("template mutated by a previous instantiation")
	}
}

func TestMixedTextAndRepeats(t *testing.T) {
	tmpl := mustParseTemplate(`<line>{$A} and {$A} near {$B}!</line>`)
	forest, err := tmpl.Instantiate(pattern.Result{Values: map[string]string{"A": "x", "B": "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := forest[0].Text(); got != "x and x near y!" {
		t.Fatalf("mixed text = %q", got)
	}
}

func TestMissingBinding(t *testing.T) {
	tmpl := mustParseTemplate(`<v>{$X}</v>`)
	if _, err := tmpl.Instantiate(pattern.Result{Values: map[string]string{}}); err == nil {
		t.Fatal("missing binding must error")
	}
}

func TestBuildAndDocument(t *testing.T) {
	tmpl := mustParseTemplate(`<r><n>{$X}</n></r>`)
	rs := results(
		map[string]string{"X": "a"},
		map[string]string{"X": "b"},
	)
	forest, err := Build(tmpl, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 2 || forest[1].Child("n").Value() != "b" {
		t.Fatalf("Build = %v", forest)
	}
	doc, err := Document("answers", tmpl, rs)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Label != "answers" || len(doc.Root.Children) != 2 {
		t.Fatalf("Document = %s", doc.Root)
	}
	// Build error propagates through Document.
	if _, err := Document("answers", tmpl, results(map[string]string{})); err == nil {
		t.Fatal("Document must propagate instantiation errors")
	}
}

func TestTemplateWithEmbeddedCall(t *testing.T) {
	// Constructed documents can be intensional: templates may embed
	// calls whose parameters come from bindings.
	tmpl := mustParseTemplate(
		`<city><name>{$C}</name><axml:call service="getWeather">{$C}</axml:call></city>`)
	forest, err := tmpl.Instantiate(pattern.Result{Values: map[string]string{"C": "Paris"}})
	if err != nil {
		t.Fatal(err)
	}
	var call *tree.Node
	forest[0].Walk(func(n *tree.Node) bool {
		if n.Kind == tree.Call {
			call = n
		}
		return true
	})
	if call == nil || call.Children[0].Label != "Paris" {
		t.Fatalf("embedded call params = %s", forest[0])
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"", "<a><b></a>", "   "} {
		if _, err := ParseTemplate(src); err == nil {
			t.Errorf("ParseTemplate(%q): expected error", src)
		}
	}
}

func TestLiteralBracesSurvive(t *testing.T) {
	// Text that merely looks brace-y but is not a placeholder stays.
	tmpl := mustParseTemplate(`<v>{not-a-var} {$X}</v>`)
	forest, err := tmpl.Instantiate(pattern.Result{Values: map[string]string{"X": "ok"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := forest[0].Text(); !strings.Contains(got, "{not-a-var}") || !strings.Contains(got, "ok") {
		t.Fatalf("literal braces mangled: %q", got)
	}
}

func mustParseTemplate(src string) *Template {
	t, err := ParseTemplate(src)
	if err != nil {
		panic(err)
	}
	return t
}
