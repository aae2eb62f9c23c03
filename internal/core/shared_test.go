package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// canonResults renders results as their sorted variable bindings.
func canonResults(rs []pattern.Result) string {
	keys := make([]string, len(rs))
	for i, r := range rs {
		parts := make([]string, 0, len(r.Values))
		for k, v := range r.Values {
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts)
		keys[i] = strings.Join(parts, ",")
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestSharedRunsMatchSerial is the concurrency differential of Shared: over
// one hotel document, the suite's hot queries and never-seen point queries
// run at once, each its own evaluation handed the document's Shared, while
// every invocation sleeps a random moment holding nothing — so the splices
// of some land between the rounds and the layers of others. Every answer is
// complete and equals the naive fixpoint's over the world, and no call is
// invoked twice: the services were invoked exactly as many times as the
// runs report, and as the document was spliced. Across the seeds some
// layered run has had to detect a layer again after it settled. Variants: a
// guide every run adopts and patches (the session's set-up), a guide of
// each run's own, none, and the typed strategy.
func TestSharedRunsMatchSerial(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 12, 4
	seeds := int64(12)
	if testing.Short() {
		seeds = 3
	}
	for _, v := range []struct {
		name    string
		opt     Options
		adopted bool
	}{
		{"adopted guide", Options{Strategy: LazyNFQ, Incremental: true, Layering: true, UseGuide: true}, true},
		{"own guides", Options{Strategy: LazyNFQ, Incremental: true, Layering: true, UseGuide: true}, false},
		{"no guide", Options{Strategy: LazyNFQ, Layering: true, Parallel: true}, false},
		{"typed", Options{Strategy: LazyNFQTyped, Incremental: true, Layering: true, UseGuide: true, InvokeWorkers: 2}, true},
	} {
		t.Run(v.name, func(t *testing.T) {
			reran := 0
			for seed := int64(0); seed < seeds; seed++ {
				reg, scenarios := workload.Suite(spec)
				sc := scenarios[0]
				texts := append([]string(nil), sc.Queries...)
				for k := 1; k < spec.Hotels+spec.HiddenHotels; k += 2 {
					texts = append(texts, fmt.Sprintf(`/hotels/hotel[name="Hotel-%d"]/nearby//restaurant[name=$X][rating=$R] -> $X, $R`, k))
				}
				var invoked atomic.Int64
				var mu sync.Mutex
				rng := rand.New(rand.NewSource(seed))
				shared := reg.Proxy(func(_ *service.Service, next service.Invoker) service.Invoker {
					return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
						invoked.Add(1)
						mu.Lock()
						d := time.Duration(rng.Intn(300)) * time.Microsecond
						mu.Unlock()
						time.Sleep(d)
						return next(ctx, params, pushed)
					}
				})
				doc := sc.Doc.Clone()
				sh := &Shared{}
				var guide *fguide.Guide
				if v.adopted {
					guide = fguide.Build(doc)
				}
				before := doc.Version()
				outs := make([]*Outcome, len(texts))
				layers := make([]int, len(texts))
				tracers := make([]*telemetry.Tracer, len(texts))
				var wg sync.WaitGroup
				for i, src := range texts {
					opt := v.opt.WithSchema(sc.Schema)
					opt.Clock, opt.Guide = &service.SimClock{}, guide
					tracers[i] = telemetry.NewTracer(4096)
					opt.Tracer = tracers[i]
					p, err := Prepare(pattern.MustParse(src), opt)
					if err != nil {
						t.Fatal(err)
					}
					layers[i] = len(p.layers)
					wg.Add(1)
					go func() {
						defer wg.Done()
						out, err := p.OverShared(doc, sh).Run(context.Background(), shared, opt)
						if err != nil {
							t.Errorf("seed %d %q: %v", seed, src, err)
						}
						outs[i] = out
					}()
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				calls := 0
				for i, src := range texts {
					want, err := Evaluate(sc.Doc.Clone(), pattern.MustParse(src), reg, Options{Strategy: NaiveFixpoint})
					if err != nil {
						t.Fatal(err)
					}
					if got := canonResults(outs[i].Results); !outs[i].Complete || got != canonResults(want.Results) {
						t.Fatalf("seed %d %q: complete=%v, answer differs from the naive fixpoint:\n got %s\nwant %s",
							seed, src, outs[i].Complete, got, canonResults(want.Results))
					}
					calls += outs[i].Stats.CallsInvoked
					n := 0
					for _, s := range tracers[i].Spans(0) {
						if s.Name == "layer" {
							n++
						}
					}
					if n > layers[i] {
						reran++
					}
				}
				if spliced := int(doc.Version() - before); int64(calls) != invoked.Load() || calls != spliced {
					t.Fatalf("seed %d: the services were invoked %d times, the runs report %d, the document was spliced %d times",
						seed, invoked.Load(), calls, spliced)
				}
				if guide != nil && !fguide.Synced(guide) {
					t.Fatalf("seed %d: the adopted guide is behind the document", seed)
				}
			}
			t.Logf("%d runs detected a layer again after it settled", reran)
			if reran == 0 && !testing.Short() {
				t.Fatal("no run detected a layer again: the re-check after other runs' splices is not exercised")
			}
		})
	}
}
