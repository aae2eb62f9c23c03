package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// leavingAt wraps reg so that the k-th invocation through it finds its
// caller gone: it calls hangUp and then answers as the provider would — or,
// with fail set, with a transient fault, the kind a retry policy would try
// again. count is the number of invocations so far, answered the number
// that brought a response: a member of a pool still in flight when its
// caller left may be dropped instead.
func leavingAt(reg *service.Registry, k int32, hangUp context.CancelFunc, fail bool) (_ *service.Registry, count, answered *atomic.Int32) {
	count, answered = new(atomic.Int32), new(atomic.Int32)
	return reg.Proxy(func(inner *service.Service, next service.Invoker) service.Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			if count.Add(1) == k {
				hangUp()
				if fail {
					return service.Response{}, &service.Fault{Service: inner.Name, Class: service.Transient, Msg: "connection reset"}
				}
			}
			resp, err := next(ctx, params, pushed)
			if err == nil {
				answered.Add(1)
			}
			return resp, err
		}
	}), count, answered
}

// TestRunHonoursContext: a run whose context ends stops invoking — at once
// when it invokes one call at a time, after the members already in flight
// when it runs a pool — splices what had arrived, and returns the context's
// error: no outcome, hence no CallFailure and no Complete=false; no retry
// of the attempt the cancellation cut; nothing left to resume. What it
// leaves is a valid world: the adopted guide synced and equal to a fresh
// build, and a document any later evaluation completes to the naive
// oracle's answer. At every strategy and pool width, cancelled at the
// first call, mid-run and at the last.
func TestRunHonoursContext(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 10, 4
	spec.RatingChainDepth = 1
	retry := RetryPolicy{MaxAttempts: 4}
	for _, v := range []struct {
		name string
		opt  Options
	}{
		{"naive", Options{Strategy: NaiveFixpoint}},
		{"naive-parallel", Options{Strategy: NaiveFixpoint, Parallel: true, InvokeWorkers: 4}},
		{"eager", Options{Strategy: TopDownEager}},
		{"nfq-width1", Options{Strategy: LazyNFQ, Incremental: true, Layering: true, Parallel: true, InvokeWorkers: 1}},
		{"nfq-width4", Options{Strategy: LazyNFQ, Incremental: true, Layering: true, Parallel: true, InvokeWorkers: 4}},
		{"nfq-unbounded", Options{Strategy: LazyNFQ, Incremental: true, Layering: true, Parallel: true, InvokeWorkers: 0}},
		{"speculative", Options{Strategy: LazyNFQ, Incremental: true, Layering: true, Speculative: true}},
		{"best-effort-retry", Options{Strategy: LazyNFQ, Incremental: true, Failure: BestEffort, Retry: retry}},
	} {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			w := workload.Hotels(spec)
			oracle, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: NaiveFixpoint})
			if err != nil {
				t.Fatal(err)
			}
			// The uncancelled run says how many calls there are to cut and how
			// wide a round gets.
			total, widest := 0, 1
			sizes := telemetry.NewTracer(0)
			sizes.SetSink(func(s telemetry.Span) {
				if s.Name == "invoke" {
					total++
					if b, _ := strconv.Atoi(s.Attr("batch")); b > widest {
						widest = b
					}
				}
			})
			ref := v.opt
			ref.Tracer = sizes
			if _, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, ref); err != nil {
				t.Fatal(err)
			}
			if total < 3 {
				t.Fatalf("the uncancelled run invokes %d calls: nothing to cut mid-run", total)
			}
			failing := v.opt.Retry.MaxAttempts > 1

			for _, k := range []int{0, 1, total / 2, total} {
				at := fmt.Sprintf("cancelled at call %d of %d", k, total)
				doc := w.Doc.Clone()
				guide := fguide.Build(doc)
				ctx, hangUp := context.WithCancel(context.Background())
				if k == 0 {
					hangUp() // the caller left before the run began
				}
				reg, count, answered := leavingAt(w.Registry, int32(k), hangUp, failing)
				run := v.opt
				run.UseGuide, run.Guide = true, guide
				p, err := Prepare(w.Query, run)
				if err != nil {
					t.Fatal(err)
				}
				ev := p.Over(doc)
				before := doc.Version()
				out, err := ev.Run(ctx, reg, run)
				hangUp()
				if !errors.Is(err, context.Canceled) || out != nil {
					t.Fatalf("%s: got %+v, %v; want no outcome and context.Canceled", at, out, err)
				}
				// One at a time, the k-th invocation is the last; in a pool, the
				// members in flight with it still land. A caller gone from the
				// start costs no invocation at all.
				most := k + widest - 1
				if k == 0 {
					most = 0
				}
				if n := int(count.Load()); n < k || n > most {
					t.Fatalf("%s: %d invocations, want %d to %d (rounds are at most %d wide)", at, n, k, most, widest)
				}
				if ev.Live() {
					t.Fatalf("%s: the evaluation kept state to resume", at)
				}
				arrived := int(answered.Load())
				if told, ok := doc.SplicesSince(before); !ok || len(told) != arrived {
					t.Fatalf("%s: the document recorded %d splices (ok=%v), %d responses arrived", at, len(told), ok, arrived)
				}
				if !fguide.Synced(guide) || guide.String() != fguide.Build(doc).String() {
					t.Fatalf("%s: the adopted guide no longer describes the document", at)
				}
				again, err := Evaluate(doc, w.Query, w.Registry, Options{Strategy: LazyNFQ})
				if err != nil || !again.Complete || resultKeys(again) != resultKeys(oracle) {
					t.Fatalf("%s: a fresh evaluation of what the run left: %v\n got %s\nwant %s", at, err, resultKeys(again), resultKeys(oracle))
				}
			}
		})
	}
}
