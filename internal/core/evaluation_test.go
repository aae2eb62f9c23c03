package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/telemetry/spantest"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// invoked collects the calls an evaluation invokes, in order, as "service
// path", through a tracer's sink.
func invoked(calls *[]string) *telemetry.Tracer {
	tr := telemetry.NewTracer(0)
	tr.SetSink(func(s telemetry.Span) {
		if s.Name == "invoke" {
			*calls = append(*calls, spantest.Attr(s, "service")+" "+spantest.Attr(s, "path"))
		}
	})
	return tr
}

func values(rs []pattern.Result) []map[string]string {
	out := make([]map[string]string, len(rs))
	for i, r := range rs {
		out[i] = r.Values
	}
	return out
}

// keys lists the results' keys in order, over their bindings only: node
// captures carry document IDs, which a clone renumbers.
func keys(rs []pattern.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = pattern.Result{Values: r.Values}.Key()
	}
	return out
}

// forge splices, in place of call, what no honest service returns: a
// five-star restaurant with a name and an address. Under the nearby zone of
// a Best Western hotel, or of a hotel whose name is its tag, it adds an
// answer to a query the document was complete for.
func forge(doc *tree.Document, guide *fguide.Guide, call *tree.Node) {
	r := tree.NewElement("restaurant")
	r.Append(tree.NewElement("name")).Append(tree.NewText(fmt.Sprintf("Forged-%d", call.ID)))
	r.Append(tree.NewElement("address")).Append(tree.NewText("nowhere"))
	r.Append(tree.NewElement("rating")).Append(tree.NewText("*****"))
	guide.ApplyExpansion(doc.ReplaceCall(call, []*tree.Node{r}))
}

// TestResumedRunsMatchFresh keeps three queries' evaluations alive over one
// document that they, and a stranger invoking calls none of them wants,
// keep splicing — each run reading the others' splices from the document's
// records, as in the session layer. Every run, resumed or not, must equal a
// fresh guideless Evaluate on a clone of the document as it stood: results
// in order and by key, completeness, the invoked calls in order, virtual
// time and final size. Outcome.Unchanged must be set exactly when the run
// resumed and the fresh results equal, row for row, the previous run's. A
// forger splicing five-star restaurants in place of museum calls changes
// the answers of the typed variants, whose analysis leaves those calls
// pending where the queries look (the untyped ones invoke them first), so
// both branches are taken. Across strategies, layering, speculation,
// relaxation, pushing and projection, 10 seeds each.
func TestResumedRunsMatchFresh(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 10, 4
	spec.TagJoinEvery = 2
	spec.RatingChainDepth = 1
	spec.TeaserKinds = 2
	pushSpec := spec
	pushSpec.RatingChainDepth = 0
	pushSpec.PushCapable = true

	variants := []struct {
		name  string
		spec  workload.HotelSpec
		opt   Options
		typed bool
	}{
		{"nfq", spec, Options{Strategy: LazyNFQ, Incremental: true}, false},
		{"nfq-layering-parallel", spec, Options{Strategy: LazyNFQ, Incremental: true, Layering: true, Parallel: true}, false},
		{"nfq-relaxed", spec, Options{Strategy: LazyNFQ, Incremental: true, RelaxJoins: true}, false},
		{"nfq-not-incremental", spec, Options{Strategy: LazyNFQ}, false},
		{"typed", spec, Options{Strategy: LazyNFQTyped, Incremental: true}, true},
		{"typed-layering-speculative", spec, Options{Strategy: LazyNFQTyped, Incremental: true, Layering: true, Speculative: true}, true},
		{"typed-noproject", spec, Options{Strategy: LazyNFQTyped, Incremental: true, NoProject: true}, true},
		{"lpq-layering", spec, Options{Strategy: LazyLPQ, Incremental: true, Layering: true}, false},
		{"eager", spec, Options{Strategy: TopDownEager, Incremental: true}, false},
		{"push", pushSpec, Options{Strategy: LazyNFQ, Incremental: true, Push: true, Layering: true}, false},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			resumed, same, changed := 0, 0, 0
			for seed := int64(0); seed < 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				w := workload.Hotels(v.spec)
				doc, reg := w.Doc, w.Registry
				opt := v.opt
				if v.typed {
					opt.Schema = w.Schema
				}
				guide := fguide.Build(doc)
				queries := []*pattern.Pattern{w.Query, w.JoinQuery, w.StarQuery}
				evs := make([]*Evaluation, len(queries))
				for i, q := range queries {
					p, err := Prepare(q, opt)
					if err != nil {
						t.Fatal(err)
					}
					evs[i] = p.Over(doc)
				}
				prev := make([][]string, len(queries)) // each evaluation's last results, by key
				for step := 0; step < 18; step++ {
					if k := rng.Intn(9); k < 4 {
						// The stranger expands some call the document shows; the
						// forger fakes a museum call's answer.
						var visible []*tree.Node
						for _, c := range guide.Candidates(nil, true) {
							if k < 3 || c.Label == "getNearbyMuseums" {
								visible = append(visible, c)
							}
						}
						if len(visible) == 0 {
							continue
						}
						call := visible[rng.Intn(len(visible))]
						if k == 3 {
							forge(doc, guide, call)
							continue
						}
						resp, err := reg.Invoke(call.Label, tree.CloneForest(call.Children), nil)
						if err != nil {
							t.Fatal(err)
						}
						guide.ApplyExpansion(doc.ReplaceCall(call, resp.Forest))
						continue
					}
					i := rng.Intn(len(evs))
					at := fmt.Sprintf("seed %d step %d query %d", seed, step, i)

					var wantCalls, gotCalls []string
					ref := opt
					ref.Clock, ref.Tracer = &service.SimClock{}, invoked(&wantCalls)
					want, err := Evaluate(doc.Clone(), queries[i], reg, ref)
					if err != nil {
						t.Fatalf("%s: fresh: %v", at, err)
					}
					run := opt
					run.Clock, run.Tracer = &service.SimClock{}, invoked(&gotCalls)
					run.UseGuide, run.Guide = true, guide
					was := evs[i].Live()
					got, err := evs[i].Run(context.Background(), reg, run)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if got.Resumed != was {
						t.Fatalf("%s: resumed=%v with live state=%v", at, got.Resumed, was)
					}
					if got.Resumed {
						resumed++
					}
					if !reflect.DeepEqual(values(got.Results), values(want.Results)) || !reflect.DeepEqual(keys(got.Results), keys(want.Results)) {
						t.Fatalf("%s (resumed=%v): results differ from a fresh evaluation:\n got %v\nwant %v",
							at, got.Resumed, values(got.Results), values(want.Results))
					}
					if equal := got.Resumed && reflect.DeepEqual(keys(want.Results), prev[i]); got.Unchanged != equal {
						t.Fatalf("%s (resumed=%v): Unchanged=%v, but the fresh results equal the previous run's: %v",
							at, got.Resumed, got.Unchanged, equal)
					}
					switch {
					case got.Unchanged:
						same++
					case got.Resumed:
						changed++
					}
					prev[i] = keys(want.Results)
					if got.Complete != want.Complete || got.Stats.CallsInvoked != want.Stats.CallsInvoked ||
						got.Stats.VirtualTime != want.Stats.VirtualTime || got.Stats.FinalSize != want.Stats.FinalSize {
						t.Fatalf("%s (resumed=%v): complete=%v calls=%d virtual=%v size=%d, a fresh evaluation says %v %d %v %d",
							at, got.Resumed, got.Complete, got.Stats.CallsInvoked, got.Stats.VirtualTime, got.Stats.FinalSize,
							want.Complete, want.Stats.CallsInvoked, want.Stats.VirtualTime, want.Stats.FinalSize)
					}
					if !reflect.DeepEqual(gotCalls, wantCalls) {
						t.Fatalf("%s (resumed=%v): invoked %q, a fresh evaluation invokes %q", at, got.Resumed, gotCalls, wantCalls)
					}
					if !fguide.Synced(guide) {
						t.Fatalf("%s: the shared guide fell behind the document", at)
					}
				}
			}
			if resumed < 20 {
				t.Fatalf("only %d runs resumed kept state", resumed)
			}
			t.Logf("%d resumed runs: %d answered unchanged, %d changed", resumed, same, changed)
			if same == 0 || (v.typed && changed == 0) {
				t.Fatalf("of %d resumed runs %d answered unchanged and %d changed: a branch is not exercised", resumed, same, changed)
			}
		})
	}
}

// TestEvaluationDropsWhatItCannotTrust pins the fallbacks: a run that ends
// incomplete leaves nothing to resume, and so does a document whose splice
// records no longer reach back to the evaluation — a mutation other than a
// splice, or more splices than the document keeps. The next run starts from
// the document and is right. A splice someone else made, and the evaluation
// was never told of, is in the records: the next run resumes, and is right.
func TestEvaluationDropsWhatItCannotTrust(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 8, 4
	w := workload.Hotels(spec)
	opt := Options{Strategy: LazyNFQ, Incremental: true, UseGuide: true}
	p, err := Prepare(w.Query, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Beside the hotels, a pad of calls no relevance query can reach, for
	// the splices that outrun the document's records.
	pad := tree.NewElement("pad")
	for i := 0; i <= tree.MaxSplices; i++ {
		pad.Append(tree.NewCall("getPad"))
	}
	w.Doc.Adopt(w.Doc.Root.Append(pad))

	ev := p.Over(w.Doc)
	budget := opt
	budget.MaxCalls = 1
	out, err := ev.Run(context.Background(), w.Registry, budget)
	if err != nil {
		t.Fatal(err)
	}
	if out.Complete || ev.Live() {
		t.Fatalf("a run cut by its budget: complete=%v, state kept=%v; want neither", out.Complete, ev.Live())
	}
	again := func(what string, resumed bool) {
		t.Helper()
		out, err := ev.Run(context.Background(), w.Registry, opt)
		if err != nil {
			t.Fatalf("the run after %s: %v", what, err)
		}
		if out.Resumed != resumed || !out.Complete || !ev.Live() || resultKeys(out) != resultKeys(want) {
			t.Fatalf("the run after %s: resumed=%v complete=%v live=%v results %q; want resumed=%v, complete, answering %q",
				what, out.Resumed, out.Complete, ev.Live(), resultKeys(out), resumed, resultKeys(want))
		}
	}
	again("an incomplete one", false)

	// Someone expands a call and tells nobody.
	var call *tree.Node
	for _, c := range w.Doc.Calls() {
		if c.Label == "getNearbyMuseums" {
			call = c
			break
		}
	}
	resp, err := w.Registry.Invoke(call.Label, tree.CloneForest(call.Children), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Doc.ReplaceCall(call, resp.Forest)
	again("a stranger's splice", true)

	w.Doc.Adopt(w.Doc.Root.Append(tree.NewElement("w")))
	again("a mutation that is not a splice", false)
	again("that", true)

	for _, c := range append([]*tree.Node(nil), pad.Children...) {
		w.Doc.ReplaceCall(c, nil)
	}
	again("more splices than the document keeps", false)
	again("that", true)
}
