package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// variantTexts returns n texts of q's form, each with q's lifted constants
// (Shape) replaced: the first is q, the second gives every constant one value
// (two that differ in q are equal in it), the third gives each its own; the
// rest draw from pool, which holds an element label of the schema, so
// their shapes vary too.
func variantTexts(q *pattern.Pattern, sch *schema.Schema, pool []string, n int, rng *rand.Rand) []*pattern.Pattern {
	shape, args := Shape(q, sch)
	out := []*pattern.Pattern{q}
	for len(out) < n {
		vals := make([]string, len(args))
		for i := range vals {
			switch len(out) {
			case 1:
				vals[i] = pool[0]
			case 2:
				vals[i] = fmt.Sprintf("v%d", i)
			default:
				vals[i] = pool[rng.Intn(len(pool))]
			}
		}
		out = append(out, pattern.MustParse(shape.Bind(vals).String()))
	}
	return out
}

// TestShapeSharedMatchesPerText is the licence of the shared analysis: for
// every workload.Suite query and 20 texts of its form — among them one whose
// constant is an element label (name="name") and one whose two constants are
// equal beside one where they differ — the text bound to its shape's shared
// Prepared (Shape, Bind) answers exactly like the text prepared on its own:
// the same results, completeness, invoked calls in order and Stats but for
// their wall-clock fields. Checked on a master every text of a scenario
// materialises in turn, its evaluations kept and resumed after the others'
// splices, and under Evaluate on a pristine clone; across typed detection
// through a guide, layering with pushing, LPQs and lenient speculation. One
// more travel query has a leaf constant that is an element label only calls
// produce (restaurant), which a shape must keep: the analysis of a
// parameter in its place would prune those calls.
func TestShapeSharedMatchesPerText(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 12, 4
	pushSpec := spec
	pushSpec.PushCapable = true
	variants := []struct {
		name string
		spec workload.HotelSpec
		opt  Options
	}{
		{"typed-guide", spec, Options{Strategy: LazyNFQTyped, Incremental: true, UseGuide: true}},
		{"typed-layering-push", pushSpec, Options{Strategy: LazyNFQTyped, Incremental: true, Layering: true, Parallel: true, Push: true}},
		{"lpq-layering", spec, Options{Strategy: LazyLPQ, Incremental: true, Layering: true}},
		{"typed-lenient-speculative", spec, Options{Strategy: LazyNFQTyped, SchemaMode: schema.Lenient, Speculative: true}},
	}
	pool := []string{"name", "Best Western", "*****", "****", "Hotel-3", "Hotel-5", "The Hours", "Paris", "nowhere"}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			reg, scenarios := workload.Suite(v.spec)
			rng := rand.New(rand.NewSource(1))
			texts, shared, elementConst := 0, 0, 0
			for _, sc := range scenarios {
				opt := v.opt
				opt.Schema = sc.Schema
				shapes := map[string]*Prepared{}
				masters := [2]*tree.Document{sc.Doc.Clone(), sc.Doc.Clone()}
				guides := [2]*fguide.Guide{fguide.Build(masters[0]), fguide.Build(masters[1])}
				var evs [][2]*Evaluation
				run := func(at string, pair [2]*Evaluation) {
					t.Helper()
					var outs [2]*Outcome
					var calls [2][]string
					for side, ev := range pair {
						o := opt
						o.Clock, o.Tracer = &service.SimClock{}, invoked(&calls[side])
						if o.UseGuide {
							o.Guide = guides[side]
						}
						out, err := ev.Run(context.Background(), reg, o)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						outs[side] = out
					}
					same(t, at, outs[0], outs[1], calls[0], calls[1])
				}
				queries := sc.Queries
				if sc.Name == "travel" {
					queries = append(queries[:len(queries):len(queries)], `/hotels/hotel[rating="*****"][nearby/restaurant]/name/$N -> $N`)
				}
				for _, src := range queries {
					for _, q := range variantTexts(pattern.MustParse(src), sc.Schema, pool, 20, rng) {
						at := fmt.Sprintf("%s %s", sc.Name, q)
						sq, args := Shape(q, sc.Schema)
						sp := shapes[sq.String()]
						if sp == nil {
							var err error
							if sp, err = Prepare(sq, opt); err != nil {
								t.Fatal(err)
							}
							shapes[sq.String()] = sp
						} else {
							shared++
						}
						bound := sp.Bind(args)
						own, err := Prepare(q, opt)
						if err != nil {
							t.Fatal(err)
						}
						if bound.q.String() != q.String() {
							t.Fatalf("%s: bound to its shape, the text reads %s", at, bound.q)
						}
						for _, n := range q.Nodes() {
							if n.Kind == pattern.Const && n.Label == "name" && len(n.Children) == 0 {
								elementConst++
							}
						}
						texts++

						// On the masters, kept and resumed.
						pair := [2]*Evaluation{bound.Over(masters[0]), own.Over(masters[1])}
						evs = append(evs, pair)
						run(at+" on the master", pair)
						k := rng.Intn(len(evs))
						run(fmt.Sprintf("%s resuming text %d", at, k), evs[k])

						// Under Evaluate, from the pristine document.
						var calls [2][]string
						o := opt
						o.Clock, o.Tracer = &service.SimClock{}, invoked(&calls[0])
						o.UseGuide = false
						got, err := bound.Over(sc.Doc.Clone()).Run(context.Background(), reg, o)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						o.Clock, o.Tracer = &service.SimClock{}, invoked(&calls[1])
						want, err := Evaluate(sc.Doc.Clone(), q, reg, o)
						if err != nil {
							t.Fatalf("%s: Evaluate: %v", at, err)
						}
						same(t, at+" against Evaluate", got, want, calls[0], calls[1])
					}
				}
			}
			if shared < texts/2 || elementConst == 0 {
				t.Fatalf("%d texts, %d of them bound to a shape already analysed, %d with an element label as constant", texts, shared, elementConst)
			}
		})
	}
}

// same fails the test unless two outcomes agree on everything but the
// wall-clock Stats fields.
func same(t *testing.T, at string, got, want *Outcome, gotCalls, wantCalls []string) {
	t.Helper()
	if !reflect.DeepEqual(values(got.Results), values(want.Results)) || !reflect.DeepEqual(keys(got.Results), keys(want.Results)) {
		t.Fatalf("%s: results\n got %v\nwant %v", at, values(got.Results), values(want.Results))
	}
	if got.Complete != want.Complete || got.Resumed != want.Resumed || got.Unchanged != want.Unchanged {
		t.Fatalf("%s: complete/resumed/unchanged %v %v %v, want %v %v %v", at,
			got.Complete, got.Resumed, got.Unchanged, want.Complete, want.Resumed, want.Unchanged)
	}
	if !reflect.DeepEqual(gotCalls, wantCalls) {
		t.Fatalf("%s: invoked %q, want %q", at, gotCalls, wantCalls)
	}
	if g, w := normalizedStats(got), normalizedStats(want); g != w {
		t.Fatalf("%s: stats\n got %+v\nwant %+v", at, g, w)
	}
}

// TestWarmShapeWriteAnalysesNothing pins the saving: a point-query write
// whose shape an earlier write analysed — a never-seen text, bound to the
// shared Prepared — generates no relevance-query set and builds no
// projection. It only instantiates the sets it runs. The master is warm, as
// a served one is: a hot query has materialised what it needs, the hidden
// hotels among it, so the writes see the same service names.
func TestWarmShapeWriteAnalysesNothing(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 40, 8
	w := workload.Hotels(spec)
	opt := Options{Strategy: LazyNFQTyped, Schema: w.Schema, Incremental: true, UseGuide: true, Guide: fguide.Build(w.Doc)}
	hot := opt
	hot.Clock = &service.SimClock{}
	if _, err := Evaluate(w.Doc, w.Query, w.Registry, hot); err != nil {
		t.Fatal(err)
	}
	var sp *Prepared
	memo := func() (sets, projs int) {
		sp.mu.Lock()
		defer sp.mu.Unlock()
		return len(sp.sets), len(sp.projs)
	}
	for i, k := range []int{1, 3, 5} {
		q := pattern.MustParse(fmt.Sprintf(`/hotels/hotel[name="Hotel-%d"]/nearby//restaurant[name=$X][rating=$R] -> $X, $R`, k))
		sq, args := Shape(q, w.Schema)
		if sp == nil {
			var err error
			if sp, err = Prepare(sq, opt); err != nil {
				t.Fatal(err)
			}
		} else if sq.String() != sp.shape.q.String() {
			t.Fatalf("Hotel-%d's query has shape %s, not %s", k, sq, sp.shape.q)
		}
		bound := sp.Bind(args)
		sets, projs := memo()
		o := opt
		o.Clock = &service.SimClock{}
		out, err := bound.Over(w.Doc).Run(context.Background(), w.Registry, o)
		if err != nil {
			t.Fatal(err)
		}
		if out.Stats.CallsInvoked == 0 || !out.Complete {
			t.Fatalf("Hotel-%d's query invoked %d calls (complete=%v): not a write", k, out.Stats.CallsInvoked, out.Complete)
		}
		afterSets, afterProjs := memo()
		switch {
		case i == 0 && (afterSets == 0 || afterProjs == 0):
			t.Fatalf("the first write left %d sets and %d projections in the shape's memo", afterSets, afterProjs)
		case i > 0 && (afterSets != sets || afterProjs != projs):
			t.Fatalf("write %d of the shape built %d sets and %d projections", i+1, afterSets-sets, afterProjs-projs)
		case len(bound.inst) == 0:
			t.Fatalf("write %d instantiated no set", i+1)
		}
		for key, inst := range bound.inst {
			for j, nfq := range inst {
				if bound.from[nfq] != sp.sets[key][j] {
					t.Fatalf("write %d ran a query object that is no instance of its shape's", i+1)
				}
			}
		}
	}
}
