package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// lyingMuseums wraps reg so that every getNearbyMuseums response, whose
// signature says out: museum*, also holds one five-star restaurant, named
// after the count of lies told so far.
func lyingMuseums(reg *service.Registry) *service.Registry {
	var lies atomic.Int32
	return reg.Proxy(func(inner *service.Service, next service.Invoker) service.Invoker {
		if inner.Name != "getNearbyMuseums" {
			return next
		}
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			resp, err := next(ctx, params, pushed)
			if err != nil {
				return resp, err
			}
			r := tree.NewElement("restaurant")
			r.Append(tree.NewElement("name")).Append(tree.NewText(fmt.Sprintf("Lie-%d", lies.Add(1))))
			r.Append(tree.NewElement("address")).Append(tree.NewText("nowhere"))
			r.Append(tree.NewElement("rating")).Append(tree.NewText("*****"))
			resp.Forest = append(resp.Forest[:len(resp.Forest):len(resp.Forest)], r)
			return resp, nil
		}
	})
}

// TestLyingServiceAnswersWrongly pins the hole of ROADMAP item 1 as it
// stands: nothing checks a response forest against its call's declared out
// type before it is spliced. On the default hotel world, with
// getNearbyMuseums adding a five-star restaurant to every response, the
// naive fixpoint answers the Figure-4 query with 36 results and untyped
// NFQ detection finds all 36, while typed detection — alone, and with
// every lazy mechanism on as the lazy-hotels benchmark runs it — prunes the
// museum calls by their signature and answers 24 with Complete=true.
//
// Item 1 flips the assertion: once response forests are validated at
// splice time, the typed runs must answer the naive fixpoint's 36 results,
// or Complete=false.
func TestLyingServiceAnswersWrongly(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	for _, c := range []struct {
		name             string
		opt              Options
		results, invoked int
	}{
		{"naive", Options{Strategy: NaiveFixpoint}, 36, 161},
		{"nfq", Options{Strategy: LazyNFQ}, 36, 29},
		{"typed", Options{Strategy: LazyNFQTyped, Schema: w.Schema}, 24, 17},
		{"full-stack", Options{Strategy: LazyNFQTyped, Schema: w.Schema,
			Layering: true, Parallel: true, UseGuide: true, Incremental: true}, 24, 17},
	} {
		c.opt.Clock = &service.SimClock{}
		out, err := Evaluate(w.Doc.Clone(), w.Query, lyingMuseums(w.Registry), c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %d results, complete=%v, %d calls invoked", c.name, len(out.Results), out.Complete, out.Stats.CallsInvoked)
		if len(out.Results) != c.results || !out.Complete || out.Stats.CallsInvoked != c.invoked {
			t.Errorf("%s: %d results, complete=%v, %d calls invoked; want %d, complete, %d",
				c.name, len(out.Results), out.Complete, out.Stats.CallsInvoked, c.results, c.invoked)
		}
	}
}
