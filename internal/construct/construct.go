// Package construct builds result documents from query bindings — the
// return-clause half of the XQuery core whose match half the pattern
// package implements ("our tree pattern queries ... are intended to
// capture the core of XPath/XQuery", Section 2 of the paper). A template
// is an XML forest with {$X} placeholders in text positions; instantiated
// once per query result, it turns a binding set into a new AXML forest.
//
//	tmpl, _ := construct.ParseTemplate(
//	    `<venue><name>{$X}</name><address>{$Y}</address></venue>`)
//	forest, _ := construct.Build(tmpl, out.Results)
//
// Templates may themselves contain <axml:call> elements, so constructed
// documents can be intensional — the AXML way of composing services.
package construct

import (
	"fmt"
	"regexp"
	"strings"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/tree"
)

// Template is a parsed result template.
type Template struct {
	forest []*tree.Node
	vars   map[string]bool
}

var placeholder = regexp.MustCompile(`\{\$([A-Za-z_][A-Za-z0-9_-]*)\}`)

// ParseTemplate reads an XML forest whose text nodes may embed {$X}
// placeholders. The placeholders must lex as variable names; everything
// else is literal.
func ParseTemplate(src string) (*Template, error) {
	forest, err := tree.UnmarshalForest([]byte(src))
	if err != nil {
		return nil, fmt.Errorf("construct: %w", err)
	}
	if len(forest) == 0 {
		return nil, fmt.Errorf("construct: empty template")
	}
	t := &Template{forest: forest, vars: map[string]bool{}}
	for _, n := range forest {
		n.Walk(func(x *tree.Node) bool {
			if x.Kind == tree.Text {
				for _, m := range placeholder.FindAllStringSubmatch(x.Label, -1) {
					t.vars[m[1]] = true
				}
			}
			return true
		})
	}
	return t, nil
}

// Variables returns the placeholder names the template references,
// sorted.
func (t *Template) Variables() []string {
	out := make([]string, 0, len(t.vars))
	for v := range t.vars {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Instantiate produces one copy of the template with every placeholder
// replaced by the result's binding. A placeholder without a binding is an
// error: silently emitting "{$X}" would corrupt the constructed document.
func (t *Template) Instantiate(r pattern.Result) ([]*tree.Node, error) {
	for v := range t.vars {
		if _, ok := r.Values[v]; !ok {
			return nil, fmt.Errorf("construct: result has no binding for $%s", v)
		}
	}
	out := make([]*tree.Node, 0, len(t.forest))
	for _, n := range t.forest {
		c := n.Clone()
		substitute(c, r.Values)
		out = append(out, c)
	}
	return out, nil
}

func substitute(n *tree.Node, values map[string]string) {
	n.Walk(func(x *tree.Node) bool {
		if x.Kind == tree.Text && strings.Contains(x.Label, "{$") {
			x.Label = placeholder.ReplaceAllStringFunc(x.Label, func(m string) string {
				name := placeholder.FindStringSubmatch(m)[1]
				return values[name]
			})
		}
		return true
	})
}

// Build instantiates the template for every result and concatenates the
// forests, in result order.
func Build(t *Template, results []pattern.Result) ([]*tree.Node, error) {
	var out []*tree.Node
	for _, r := range results {
		forest, err := t.Instantiate(r)
		if err != nil {
			return nil, err
		}
		out = append(out, forest...)
	}
	return out, nil
}

// Document wraps the constructed forest under a fresh root element and
// returns it as a document — the common "wrap the answers" shape.
func Document(rootName string, t *Template, results []pattern.Result) (*tree.Document, error) {
	forest, err := Build(t, results)
	if err != nil {
		return nil, err
	}
	root := tree.NewElement(rootName)
	for _, n := range forest {
		root.Append(n)
	}
	return tree.NewDocument(root), nil
}
