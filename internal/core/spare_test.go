package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

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

// marshal renders doc for comparison.
func marshal(t *testing.T, doc *tree.Document) string {
	t.Helper()
	b, err := tree.Marshal(doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRecycledTablesMatchFresh is the licence of handed-back memo tables:
// every workload.Suite query and the point-query shape, 24 texts each, run
// one after another over one master per side — the session's one-shot runs,
// each a text bound to its shape. One side binds every text to a shape that
// keeps the tables its evaluations hand back (Release), so each run but the
// first of a shape starts on the cleared tables of the one before, filled
// over the same master; the other binds it to a retired copy of the shape,
// so every run grows fresh tables. Results, completeness, the invoked calls
// in order and Stats but for their wall-clock fields must agree, and so
// must the masters after every text. Every third text is first run with a
// transient fault injected at its first invocation, every third with its
// caller hanging up at the first: such a run fails, splices what arrived
// and hands its tables back all the same, on both sides alike. The
// point-query texts name one hotel each, so each is a write. Across both
// hotel masters and the other two scenarios, under guided detection as the
// session runs it, and typed with layering.
func TestRecycledTablesMatchFresh(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 24, 4
	variants := []struct {
		name  string
		opt   Options
		guide bool
	}{
		{"guided", Options{Strategy: LazyNFQ, Incremental: true, UseGuide: true}, true},
		{"typed-layering", Options{Strategy: LazyNFQTyped, Incremental: true, Layering: true}, false},
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
			runs, failed, reused := 0, 0, int64(0)
			for _, sc := range scenarios {
				opt := v.opt
				opt.Schema = sc.Schema
				var masters [2]*tree.Document // recycled, fresh
				var guides [2]*fguide.Guide
				for side := range masters {
					masters[side] = sc.Doc.Clone()
					guides[side] = fguide.Build(masters[side])
				}
				queries := sc.Queries
				if sc.Name == "travel" || sc.Name == "distributed" {
					queries = append(queries[:len(queries):len(queries)], pointQuery(0))
				}
				for _, src := range queries {
					shape, _ := Shape(pattern.MustParse(src), sc.Schema)
					var sides [2]*Prepared
					for side := range sides {
						p, err := Prepare(shape, opt)
						if err != nil {
							t.Fatal(err)
						}
						sides[side] = p
					}
					sides[1].Retire()
					metrics := telemetry.NewRegistry()
					texts := shapeTexts(src, sc.Schema, pool, 24, rng)
					if src == pointQuery(0) {
						for k := range texts { // each a write: a hotel no text has materialised
							texts[k] = pointQuery(k)
						}
					}
					for i, text := range texts {
						q := pattern.MustParse(text)
						_, args := Shape(q, sc.Schema)
						at := fmt.Sprintf("%s text %d %s", sc.Name, i, text)
						run := func(what string, leave func(*service.Registry, context.CancelFunc) *service.Registry) {
							t.Helper()
							var outs [2]*Outcome
							var errs [2]error
							var calls [2][]string
							for side, p := range sides {
								ctx, cancel := context.WithCancel(context.Background())
								r := reg
								if leave != nil {
									r = leave(reg, cancel)
								}
								o := opt
								o.Clock, o.Tracer, o.Metrics = &service.SimClock{}, invoked(&calls[side]), metrics
								if v.guide {
									o.Guide = guides[side]
								}
								ev := p.Bind(args).Over(masters[side])
								outs[side], errs[side] = ev.Run(ctx, r, o)
								cancel()
								ev.Release()
							}
							if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
								t.Fatalf("%s, %s: error %v, want %v", at, what, errs[0], errs[1])
							}
							if errs[0] != nil {
								failed++
								if !reflect.DeepEqual(calls[0], calls[1]) {
									t.Fatalf("%s, %s: invoked %q, want %q", at, what, calls[0], calls[1])
								}
							} else {
								runs++
								same(t, at+", "+what, outs[0], outs[1], calls[0], calls[1])
							}
							if a, b := marshal(t, masters[0]), marshal(t, masters[1]); a != b {
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
					if n := sides[1].Spares(); n != 0 {
						t.Fatalf("%s %s: a retired shape keeps %d tables", sc.Name, src, n)
					}
					reused += metrics.Counter(telemetry.MetricMemoTablesReused).Value()
				}
			}
			if failed < 16 || runs < 100 || reused < int64(runs) {
				t.Fatalf("%d runs compared, %d failed alike, %d evaluators started on a handed-back table", runs, failed, reused)
			}
			t.Logf("%d runs compared, %d failed alike, %d evaluators started on a handed-back table", runs, failed, reused)
		})
	}
}

// TestWarmShapeWriteReusesTables pins the saving: on a warm master — a hot
// query has materialised what it needs — every evaluator of a point-query
// write whose shape an earlier write ran starts on a table that write handed
// back, and the shape then keeps one table per evaluator the write ran.
// A one-shot Evaluate keeps nothing and reuses nothing.
func TestWarmShapeWriteReusesTables(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 40, 8
	w := workload.Hotels(spec)
	opt := Options{Strategy: LazyNFQ, Schema: w.Schema, Incremental: true, UseGuide: true, Guide: fguide.Build(w.Doc)}
	metrics := telemetry.NewRegistry()
	reused := metrics.Counter(telemetry.MetricMemoTablesReused)
	hot := opt
	hot.Clock, hot.Metrics = &service.SimClock{}, metrics
	if _, err := Evaluate(w.Doc, w.Query, w.Registry, hot); err != nil {
		t.Fatal(err)
	}
	if n := reused.Value(); n != 0 {
		t.Fatalf("a one-shot Evaluate started %d evaluators on a handed-back table", n)
	}
	var sp *Prepared
	for i, k := range []int{1, 3, 5, 7} {
		q := pattern.MustParse(pointQuery(k))
		sq, args := Shape(q, w.Schema)
		if sp == nil {
			var err error
			if sp, err = Prepare(sq, opt); err != nil {
				t.Fatal(err)
			}
		}
		o := opt
		o.Clock, o.Metrics = &service.SimClock{}, metrics
		before := reused.Value()
		ev := sp.Bind(args).Over(w.Doc)
		out, err := ev.Run(context.Background(), w.Registry, o)
		if err != nil {
			t.Fatal(err)
		}
		if out.Stats.CallsInvoked == 0 || !out.Complete {
			t.Fatalf("Hotel-%d's query invoked %d calls (complete=%v): not a write", k, out.Stats.CallsInvoked, out.Complete)
		}
		started := 1 + len(ev.relevance) // the result's and one per relevance query run
		ev.Release()
		got := reused.Value() - before
		switch {
		case i == 0 && got != 0:
			t.Fatalf("the first write of the shape started %d evaluators on a handed-back table", got)
		case i > 0 && got != int64(started):
			t.Fatalf("write %d of the shape started %d of its %d evaluators on a handed-back table", i+1, got, started)
		case sp.Spares() != started:
			t.Fatalf("write %d ran %d evaluators, and the shape keeps %d tables", i+1, started, sp.Spares())
		}
	}
}

// TestConcurrentRunsNeverShareTable runs evaluations of one shape at once,
// round after round: each round's runs take the tables the last round's
// handed back, concurrently, and hand their own back concurrently once all
// have run. While they are all alive no two may hold the same table — taking
// a spare takes it away. Under -race a shared table is also a reported race.
func TestConcurrentRunsNeverShareTable(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 24, 4
	w := workload.Hotels(spec)
	opt := Options{Strategy: LazyNFQ, Schema: w.Schema, Incremental: true}
	sq, _ := Shape(pattern.MustParse(pointQuery(1)), w.Schema)
	sp, err := Prepare(sq, opt)
	if err != nil {
		t.Fatal(err)
	}
	metrics := telemetry.NewRegistry()
	const writers, rounds = 4, 6
	for r := 0; r < rounds; r++ {
		evs := make([]*Evaluation, writers)
		var wg sync.WaitGroup
		for g := range evs {
			_, args := Shape(pattern.MustParse(pointQuery(r*writers+g)), w.Schema)
			evs[g] = sp.Bind(args).Over(w.Doc.Clone())
			wg.Add(1)
			go func(ev *Evaluation) {
				defer wg.Done()
				o := opt
				o.Clock, o.Metrics = &service.SimClock{}, metrics
				if _, err := ev.Run(context.Background(), w.Registry, o); err != nil {
					t.Error(err)
				}
			}(evs[g])
		}
		wg.Wait()
		held := map[uintptr]int{} // table → the writer holding it
		for g, ev := range evs {
			ievs := []*pattern.IncrementalEvaluator{ev.result.iev}
			for _, lq := range ev.relevance {
				ievs = append(ievs, lq.iev)
			}
			for _, iev := range ievs {
				m := reflect.ValueOf(iev).Elem().FieldByName("memo").Pointer()
				if other, ok := held[m]; ok {
					t.Fatalf("round %d: writers %d and %d hold the same table", r, other, g)
				}
				held[m] = g
			}
		}
		for _, ev := range evs {
			wg.Add(1)
			go func(ev *Evaluation) {
				defer wg.Done()
				ev.Release()
			}(ev)
		}
		wg.Wait()
	}
	if metrics.Counter(telemetry.MetricMemoTablesReused).Value() == 0 {
		t.Fatal("no run started on a handed-back table")
	}
}
