package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/telemetry/spantest"
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
// the same results, completeness, invoked calls in order, span streams and
// Stats but for their wall-clock fields, and no parameter label reaches a
// span. Checked on a master every text of a scenario
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
					var traces [2]trace
					for side, ev := range pair {
						o := opt
						o.Clock, o.Tracer = &service.SimClock{}, traces[side].tracer()
						if o.UseGuide {
							o.Guide = guides[side]
						}
						out, err := ev.Run(context.Background(), reg, o)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						outs[side] = out
					}
					same(t, at, outs[0], outs[1], &traces[0], &traces[1])
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
						var traces [2]trace
						o := opt
						o.Clock, o.Tracer = &service.SimClock{}, traces[0].tracer()
						o.UseGuide = false
						got, err := bound.Over(sc.Doc.Clone()).Run(context.Background(), reg, o)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						o.Clock, o.Tracer = &service.SimClock{}, traces[1].tracer()
						want, err := Evaluate(sc.Doc.Clone(), q, reg, o)
						if err != nil {
							t.Fatalf("%s: Evaluate: %v", at, err)
						}
						same(t, at+" against Evaluate", got, want, &traces[0], &traces[1])
					}
				}
			}
			if shared < texts/2 || elementConst == 0 {
				t.Fatalf("%d texts, %d of them bound to a shape already analysed, %d with an element label as constant", texts, shared, elementConst)
			}
		})
	}
}

// trace is what a run's tracer records: every span, and the calls invoked.
type trace struct {
	calls []string
	spans []telemetry.Span
}

func (tc *trace) tracer() *telemetry.Tracer {
	tr := telemetry.NewTracer(0)
	tr.SetSink(func(s telemetry.Span) {
		tc.spans = append(tc.spans, s)
		if s.Name == "invoke" {
			tc.calls = append(tc.calls, spantest.Attr(s, "service")+" "+spantest.Attr(s, "path"))
		}
	})
	return tr
}

// same fails the test unless two runs agree on their outcomes and span
// streams but for the wall-clock fields, and neither stream carries a
// parameter label.
func same(t *testing.T, at string, got, want *Outcome, gotTrace, wantTrace *trace) {
	t.Helper()
	if !reflect.DeepEqual(values(got.Results), values(want.Results)) || !reflect.DeepEqual(keys(got.Results), keys(want.Results)) {
		t.Fatalf("%s: results\n got %v\nwant %v", at, values(got.Results), values(want.Results))
	}
	if got.Complete != want.Complete || got.Resumed != want.Resumed || got.Unchanged != want.Unchanged {
		t.Fatalf("%s: complete/resumed/unchanged %v %v %v, want %v %v %v", at,
			got.Complete, got.Resumed, got.Unchanged, want.Complete, want.Resumed, want.Unchanged)
	}
	if !reflect.DeepEqual(gotTrace.calls, wantTrace.calls) {
		t.Fatalf("%s: invoked %q, want %q", at, gotTrace.calls, wantTrace.calls)
	}
	for _, tc := range []*trace{gotTrace, wantTrace} {
		for _, s := range tc.spans {
			for _, a := range s.Attrs {
				if strings.Contains(a.Value, "\x00") {
					t.Fatalf("%s: a %s span carries a parameter label: %s=%q", at, s.Name, a.Key, a.Value)
				}
			}
		}
	}
	if g, w := spantest.Normalize(gotTrace.spans, false), spantest.Normalize(wantTrace.spans, false); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: span streams differ\n got %+v\nwant %+v", at, g, w)
	}
	if g, w := normalizedStats(got), normalizedStats(want); g != w {
		t.Fatalf("%s: stats\n got %+v\nwant %+v", at, g, w)
	}
}

// TestWarmShapeWriteAnalysesNothing pins the saving: a point-query write
// whose shape an earlier write analysed — a never-seen text, bound to the
// shared Prepared — generates no relevance-query set and builds no
// projection. The master is warm, as a served one is: a hot query has
// materialised what it needs, the hidden hotels among it, so the writes see
// the same service names.
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
		}
	}
}

// TestBoundTextsShareShapeQueries guards the sharing itself: a text bound to
// its shape is the shape plus its arguments. After a run of each of two
// point-query texts of one shape, every relevance-query set their runs asked
// for is handed to both texts as the shape's own objects, and every
// evaluator their runs keep answers one of those objects: no text detects
// through a copy.
func TestBoundTextsShareShapeQueries(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 40, 8
	w := workload.Hotels(spec)
	opt := Options{Strategy: LazyNFQTyped, Schema: w.Schema, Incremental: true, UseGuide: true, Guide: fguide.Build(w.Doc)}
	var sp *Prepared
	var texts []*Prepared
	var evs []*Evaluation
	for _, k := range []int{1, 3} {
		q := pattern.MustParse(fmt.Sprintf(`/hotels/hotel[name="Hotel-%d"]/nearby//restaurant[name=$X][rating=$R] -> $X, $R`, k))
		sq, args := Shape(q, w.Schema)
		if sp == nil {
			var err error
			if sp, err = Prepare(sq, opt); err != nil {
				t.Fatal(err)
			}
		}
		bound := sp.Bind(args)
		ev := bound.Over(w.Doc)
		o := opt
		o.Clock = &service.SimClock{}
		out, err := ev.Run(context.Background(), w.Registry, o)
		if err != nil {
			t.Fatal(err)
		}
		if out.Stats.CallsInvoked == 0 || !out.Complete || len(ev.relevance) == 0 {
			t.Fatalf("Hotel-%d's query invoked %d calls (complete=%v) and keeps %d evaluators", k, out.Stats.CallsInvoked, out.Complete, len(ev.relevance))
		}
		texts, evs = append(texts, bound), append(evs, ev)
	}
	sp.mu.Lock()
	sets := make(map[setKey][]*rewrite.NFQ, len(sp.sets))
	for key, set := range sp.sets {
		sets[key] = set
	}
	sp.mu.Unlock()
	own := map[*rewrite.NFQ]bool{}
	for key, set := range sets {
		known := map[string]bool{}
		for _, name := range strings.Split(key.names, "\x00") {
			known[name] = true
		}
		for i, text := range texts {
			got, _, err := text.queries(key.layer, known)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(set) {
				t.Fatalf("text %d is handed %d queries for set %v, its shape has %d", i+1, len(got), key.layer, len(set))
			}
			for j := range set {
				if got[j] != set[j] {
					t.Fatalf("text %d is handed a copy of its shape's query %d: %v", i+1, j, got[j])
				}
			}
		}
		for _, nfq := range set {
			own[nfq] = true
		}
	}
	for i, ev := range evs {
		for nfq := range ev.relevance {
			if !own[nfq] {
				t.Fatalf("text %d detects through a query object its shape does not hold: %v", i+1, nfq)
			}
		}
	}
}
