package core

import (
	"slices"
	"sort"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/tree"
)

// Complete reports whether the document is complete for the query
// (Definition 3 of the paper): no function call of the document is
// relevant, so the snapshot result already equals the full result. When a
// schema is supplied, relevance is the type-refined notion of Section 5
// (fewer calls are relevant); with a nil schema it is the untyped notion
// of Proposition 1. Relevant returns the relevant calls themselves, in
// ascending document-ID order, deduplicated.
func Complete(doc *tree.Document, q *pattern.Pattern, sch *schema.Schema, mode schema.Mode) (bool, error) {
	calls, err := Relevant(doc, q, sch, mode)
	if err != nil {
		return false, err
	}
	return len(calls) == 0, nil
}

// Relevant computes the calls of the document currently relevant for the
// query, by evaluating every node-focused query (Sections 3.2 and 5).
func Relevant(doc *tree.Document, q *pattern.Pattern, sch *schema.Schema, mode schema.Mode) ([]*tree.Node, error) {
	opt := rewrite.Options{}
	var an *schema.Analyzer
	if sch != nil {
		an = schema.NewAnalyzer(sch, q, mode)
		opt.Analyzer = an
		opt.Names = sch.FunctionNames()
		doc.EachService(func(name string) { opt.Names = append(opt.Names, name) })
		slices.Sort(opt.Names)
		opt.Names = slices.Compact(opt.Names)
	}
	nfqs, err := rewrite.BuildAll(q, opt)
	if err != nil {
		return nil, err
	}
	seen := map[*tree.Node]bool{}
	var out []*tree.Node
	for _, nfq := range nfqs {
		for _, c := range pattern.MatchedCalls(doc, nfq.Query, nfq.Out) {
			if !nfq.SatisfiesOut(an, c.Label) || seen[c] {
				continue
			}
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
