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
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// invoked collects the calls an evaluation invokes, in order, as "service
// path", through a tracer's sink.
func invoked(calls *[]string) *telemetry.Tracer {
	tr := telemetry.NewTracer(0)
	tr.SetSink(func(s telemetry.Span) {
		if s.Name == "invoke" {
			*calls = append(*calls, s.Attr("service")+" "+s.Attr("path"))
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

// TestResumedRunsMatchFresh keeps three queries' evaluations alive over one
// document that they, and a stranger invoking calls none of them wants,
// keep splicing — each run reading the others' splices from the document's
// records, as in the session layer. Every run, resumed or not, must equal a
// fresh guideless Evaluate on a clone of the document as it stood: results
// in order, completeness, the invoked calls in order, virtual time and final
// size. Across strategies, layering, speculation, relaxation, pushing and
// projection, 10 seeds each.
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
			resumed := 0
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
				for step := 0; step < 14; step++ {
					if rng.Intn(3) == 0 {
						// The stranger: expand some call the document shows.
						var visible []*tree.Node
						for _, c := range guide.Candidates(nil, true) {
							visible = append(visible, c)
						}
						if len(visible) == 0 {
							continue
						}
						call := visible[rng.Intn(len(visible))]
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
					if !reflect.DeepEqual(values(got.Results), values(want.Results)) {
						t.Fatalf("%s (resumed=%v): results differ from a fresh evaluation:\n got %v\nwant %v",
							at, got.Resumed, values(got.Results), values(want.Results))
					}
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
