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
// have validated no more candidates. Texts: every query of workload.Suite
// and, on both hotel masters, never-seen point queries of one shape; across
// typed detection, layering with pushing, a non-incremental run and
// lenient speculation.
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
			runs, rejected := 0, 0
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
						o.Tracer = probeTracer(&calls[side], &rejected)
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
			t.Logf("%d runs a side, %d probed first offers rejected an anchor", runs, rejected)
			if rejected == 0 {
				t.Fatal("no probe rejected an anchor: the differential does not exercise it")
			}
		})
	}
}

// probeTracer collects the calls a run invokes, in order, like invoked, and
// counts the detect spans whose probe kept fewer anchors than it probed.
func probeTracer(calls *[]string, rejected *int) *telemetry.Tracer {
	tr := telemetry.NewTracer(0)
	tr.SetSink(func(s telemetry.Span) {
		switch s.Name {
		case "invoke":
			*calls = append(*calls, spantest.Attr(s, "service")+" "+spantest.Attr(s, "path"))
		case "detect":
			var kept, of int
			if a := spantest.Attr(s, "anchors"); a != "" {
				if _, err := fmt.Sscanf(a, "%d/%d", &kept, &of); err == nil && kept < of {
					*rejected++
				}
			}
		}
	})
	return tr
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
