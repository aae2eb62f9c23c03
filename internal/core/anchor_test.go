package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/telemetry/spantest"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// TestProbedOfferMatchesOwnGuide is the licence of the probed first offer:
// every text runs on two masters cloned from one document, on the first
// adopting its guide (the probe offers only the candidates below the
// anchors it keeps), on the twin building a guide of its own each run (every
// candidate offered). Each text keeps its evaluation on both, and the runs
// come in a random order, so the splices of the other texts' runs land
// between a kept evaluator's detections. After every run the two sides
// must agree on the results, Complete, Resumed, Unchanged and the invoked
// calls in order, the masters must read alike, and the adopting side must
// have validated no more candidates. The adopting side's answers are
// anchored too, so the results compare an anchored answer with a joined
// one, and both probes must have rejected an anchor somewhere. Texts:
// every query of workload.Suite and, on both hotel masters, never-seen
// point queries of one shape; across typed detection, layering with
// pushing, a non-incremental run and lenient speculation.
func TestProbedOfferMatchesOwnGuide(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 12, 4
	pushSpec := spec
	pushSpec.RatingChainDepth = 0
	pushSpec.PushCapable = true
	variants := []struct {
		name string
		spec workload.HotelSpec
		opt  Options
	}{
		{"nfq", spec, Options{Strategy: LazyNFQ, Incremental: true}},
		{"typed-guide", spec, Options{Strategy: LazyNFQTyped, Incremental: true}},
		{"layering-push", pushSpec, Options{Strategy: LazyNFQ, Incremental: true, Layering: true, Parallel: true, Push: true}},
		{"typed-layering-push", pushSpec, Options{Strategy: LazyNFQTyped, Incremental: true, Layering: true, Parallel: true, Push: true}},
		{"not-incremental", spec, Options{Strategy: LazyNFQ}},
		{"typed-lenient-speculative", spec, Options{Strategy: LazyNFQTyped, SchemaMode: schema.Lenient, Speculative: true}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			reg, scenarios := workload.Suite(v.spec)
			runs, rejected := 0, map[string]int{}
			for _, sc := range scenarios {
				texts := append([]string(nil), sc.Queries...)
				if sc.Name == "travel" || sc.Name == "distributed" {
					for k := 0; k < v.spec.Hotels+v.spec.HiddenHotels; k += 3 {
						texts = append(texts, fmt.Sprintf(`/hotels/hotel[name="Hotel-%d"]/nearby//restaurant[name=$X][rating=$R] -> $X, $R`, k))
					}
				}
				masters := [2]*tree.Document{sc.Doc.Clone(), sc.Doc.Clone()}
				adopted := fguide.Build(masters[0])
				opt := v.opt.WithSchema(sc.Schema)
				opt.UseGuide = true
				evs := make([][2]*Evaluation, len(texts))
				for i, src := range texts {
					p, err := Prepare(pattern.MustParse(src), opt)
					if err != nil {
						t.Fatal(err)
					}
					evs[i] = [2]*Evaluation{p.Over(masters[0]), p.Over(masters[1])}
				}
				rng := rand.New(rand.NewSource(int64(len(sc.Name))))
				for step := 0; step < 3*len(texts); step++ {
					i := rng.Intn(len(texts))
					if step < len(texts) {
						i = step
					}
					at := fmt.Sprintf("%s step %d %s", sc.Name, step, texts[i])
					var outs [2]*Outcome
					var calls [2][]string
					for side, ev := range evs[i] {
						o := opt
						o.Clock = &service.SimClock{}
						o.Tracer = probeTracer(&calls[side], rejected)
						if side == 0 {
							o.Guide = adopted
						}
						out, err := ev.Run(context.Background(), reg, o)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						outs[side] = out
					}
					runs++
					got, want := outs[0], outs[1]
					if !reflect.DeepEqual(values(got.Results), values(want.Results)) || !reflect.DeepEqual(keys(got.Results), keys(want.Results)) {
						t.Fatalf("%s: results on the adopted guide\n got %v\nwant %v", at, values(got.Results), values(want.Results))
					}
					if got.Complete != want.Complete || got.Resumed != want.Resumed || got.Unchanged != want.Unchanged {
						t.Fatalf("%s: complete/resumed/unchanged %v %v %v on the adopted guide, %v %v %v on its own", at,
							got.Complete, got.Resumed, got.Unchanged, want.Complete, want.Resumed, want.Unchanged)
					}
					if !reflect.DeepEqual(calls[0], calls[1]) {
						t.Fatalf("%s: invoked %q on the adopted guide, %q on its own", at, calls[0], calls[1])
					}
					if got.Stats.GuideCandidates > want.Stats.GuideCandidates {
						t.Fatalf("%s: %d candidates validated on the adopted guide, %d on its own", at,
							got.Stats.GuideCandidates, want.Stats.GuideCandidates)
					}
					if !sameDocument(masters[0], masters[1]) {
						t.Fatalf("%s: the masters were spliced differently", at)
					}
				}
			}
			t.Logf("%d runs a side, %d probed first offers and %d answers rejected an anchor", runs, rejected["detect"], rejected["result-eval"])
			if rejected["detect"] == 0 || rejected["result-eval"] == 0 {
				t.Fatal("no probe rejected an anchor: the differential does not exercise it")
			}
		})
	}
}

// probeTracer collects the calls a run invokes, in order, like invoked, and
// counts, by span name, the detect and result-eval spans whose probe kept
// fewer anchors than it probed.
func probeTracer(calls *[]string, rejected map[string]int) *telemetry.Tracer {
	tr := telemetry.NewTracer(0)
	tr.SetSink(func(s telemetry.Span) {
		if s.Name == "invoke" {
			*calls = append(*calls, spantest.Attr(s, "service")+" "+spantest.Attr(s, "path"))
		}
		var kept, of int
		if a := spantest.Attr(s, "anchors"); a != "" {
			if _, err := fmt.Sscanf(a, "%d/%d", &kept, &of); err == nil && kept < of {
				rejected[s.Name]++
			}
		}
	})
	return tr
}

// pointQuery is the serving layer's write: a never-seen point query on one
// hotel, one text per hotel, all of one shape.
func pointQuery(k int) string {
	return fmt.Sprintf(`/hotels/hotel[name="Hotel-%d"]/nearby//restaurant[name=$X][rating=$R] -> $X, $R`, k)
}

// shapeTexts returns n texts of src's shape under sch, src first: the rest
// give its lifted constants values drawn from pool, none of them an element
// label, so every text has src's shape. A shape with no constant repeats src.
func shapeTexts(src string, sch *schema.Schema, pool []string, n int, rng *rand.Rand) []string {
	shape, args := Shape(pattern.MustParse(src), sch)
	out := []string{src}
	for len(out) < n {
		vals := make([]string, len(args))
		for i := range vals {
			vals[i] = pool[rng.Intn(len(pool))]
		}
		out = append(out, shape.Bind(vals).String())
	}
	return out
}

// TestAnchoredAnswerMatchesOwnGuide is the licence of the anchored answer
// on one-shot runs, the session's writes: every workload.Suite query and the
// point-query shape, 24 texts each of the query's shape, run one after
// another, each on two masters cloned from one document — on the first
// adopting a guide kept in sync (its answer joins only the rows under the
// anchors the probe keeps), on the twin building a guide of its own each
// run (every row joined). Results, completeness and the invoked calls in
// order must agree, the adopting side must have recomputed no more memo
// entries, and the masters must read alike after every text. Every third
// text is first run with a transient fault injected at its first
// invocation, every third with its caller hanging up at the first: such a
// run fails and splices what arrived, on both sides alike. The point-query
// texts name one hotel each, so each is a write. Across both hotel masters
// and the other two scenarios, guided, and typed with layering.
func TestAnchoredAnswerMatchesOwnGuide(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 24, 4
	variants := []struct {
		name string
		opt  Options
	}{
		{"guided", Options{Strategy: LazyNFQ, Incremental: true}},
		{"typed-layering", Options{Strategy: LazyNFQTyped, Incremental: true, Layering: true}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			reg, scenarios := workload.Suite(spec)
			rng := rand.New(rand.NewSource(7))
			pool := []string{"Best Western", "*****", "****", "Paris", "The Hours", "nowhere"}
			for k := 0; k < spec.Hotels+spec.HiddenHotels; k++ {
				pool = append(pool, fmt.Sprintf("Hotel-%d", k))
			}
			runs, failed, rejected := 0, 0, map[string]int{}
			for _, sc := range scenarios {
				opt := v.opt.WithSchema(sc.Schema)
				opt.UseGuide = true
				masters := [2]*tree.Document{sc.Doc.Clone(), sc.Doc.Clone()} // adopting, own guide
				adopted := fguide.Build(masters[0])
				queries := sc.Queries
				if sc.Name == "travel" || sc.Name == "distributed" {
					queries = append(queries[:len(queries):len(queries)], pointQuery(0))
				}
				for _, src := range queries {
					shape, _ := Shape(pattern.MustParse(src), sc.Schema)
					p, err := Prepare(shape, opt)
					if err != nil {
						t.Fatal(err)
					}
					texts := shapeTexts(src, sc.Schema, pool, 24, rng)
					if src == pointQuery(0) {
						for k := range texts { // each a write: a hotel no text has materialised
							texts[k] = pointQuery(k)
						}
					}
					for i, text := range texts {
						_, args := Shape(pattern.MustParse(text), sc.Schema)
						at := fmt.Sprintf("%s text %d %s", sc.Name, i, text)
						run := func(what string, leave func(*service.Registry, context.CancelFunc) *service.Registry) {
							t.Helper()
							var outs [2]*Outcome
							var errs [2]error
							var calls [2][]string
							for side, master := range masters {
								ctx, cancel := context.WithCancel(context.Background())
								r := reg
								if leave != nil {
									r = leave(reg, cancel)
								}
								o := opt
								o.Clock, o.Tracer = &service.SimClock{}, probeTracer(&calls[side], rejected)
								if side == 0 {
									o.Guide = adopted
								}
								outs[side], errs[side] = p.Bind(args).Over(master).Run(ctx, r, o)
								cancel()
							}
							if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
								t.Fatalf("%s, %s: error %v on the adopted guide, %v on its own", at, what, errs[0], errs[1])
							}
							if !reflect.DeepEqual(calls[0], calls[1]) {
								t.Fatalf("%s, %s: invoked %q on the adopted guide, %q on its own", at, what, calls[0], calls[1])
							}
							if errs[0] != nil {
								failed++
							} else {
								runs++
								got, want := outs[0], outs[1]
								if !reflect.DeepEqual(values(got.Results), values(want.Results)) || !reflect.DeepEqual(keys(got.Results), keys(want.Results)) {
									t.Fatalf("%s, %s: results on the adopted guide\n got %v\nwant %v", at, what, values(got.Results), values(want.Results))
								}
								if got.Complete != want.Complete || got.Stats.CallsInvoked != want.Stats.CallsInvoked || got.Stats.VirtualTime != want.Stats.VirtualTime {
									t.Fatalf("%s, %s: complete=%v calls=%d virtual=%v on the adopted guide, %v %d %v on its own", at, what,
										got.Complete, got.Stats.CallsInvoked, got.Stats.VirtualTime, want.Complete, want.Stats.CallsInvoked, want.Stats.VirtualTime)
								}
								if got.Stats.NodesVisited > want.Stats.NodesVisited {
									t.Fatalf("%s, %s: %d memo entries recomputed on the adopted guide, %d on its own", at, what,
										got.Stats.NodesVisited, want.Stats.NodesVisited)
								}
							}
							if !sameDocument(masters[0], masters[1]) {
								t.Fatalf("%s, %s: the masters differ afterwards", at, what)
							}
						}
						switch i % 3 {
						case 1:
							run("failing at its first invocation", func(reg *service.Registry, _ context.CancelFunc) *service.Registry {
								r, _, _ := leavingAt(reg, 1, func() {}, true)
								return r
							})
						case 2:
							run("cancelled at its first invocation", func(reg *service.Registry, cancel context.CancelFunc) *service.Registry {
								r, _, _ := leavingAt(reg, 1, cancel, false)
								return r
							})
						}
						run("one-shot", nil)
					}
				}
			}
			t.Logf("%d runs compared, %d failed alike, %d answers probed an anchor away", runs, failed, rejected["result-eval"])
			if failed < 16 || runs < 100 || rejected["result-eval"] < runs/2 {
				t.Fatalf("%d runs compared, %d failed alike, %d answers probed an anchor away", runs, failed, rejected["result-eval"])
			}
		})
	}
}

// sameDocument reports whether two documents have one version and read
// alike.
func sameDocument(a, b *tree.Document) bool {
	if a.Version() != b.Version() {
		return false
	}
	x, errA := tree.Marshal(a.Root)
	y, errB := tree.Marshal(b.Root)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}
