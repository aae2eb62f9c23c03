package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/telemetry/spantest"
	"github.com/activexml/axml/internal/workload"
)

// normalizedStats zeroes the wall-clock Stats fields (DetectTime, AnalysisTime
// measure host scheduling, not engine behaviour) so the remainder can be
// compared exactly across invocation-pool widths.
func normalizedStats(out *Outcome) Stats {
	st := out.Stats
	st.DetectTime = 0
	st.AnalysisTime = 0
	return st
}

// TestInvokePoolDifferentialAcrossSeeds is the acceptance net of the
// bounded invocation pool: over 50 seeded workloads, evaluation with
// InvokeWorkers ∈ {0 (unbounded), 2, 4, 8} must be indistinguishable
// from in-batch sequential execution (InvokeWorkers 1) — identical
// result sets, identical Stats (virtual clock included: a batch charges
// the max of its members' costs at every pool width), and identical
// span streams up to the member→worker assignment — and must agree with
// both the naive fixpoint and the fully sequential (unbatched) mode.
func TestInvokePoolDifferentialAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("differential testing is not short")
	}
	configs := []Options{
		{Strategy: LazyNFQ, Layering: true, Parallel: true, Incremental: true},
		// The E8 shape: typed pruning + pushing over layered batches.
		{Strategy: LazyNFQTyped, Layering: true, Parallel: true, Push: true},
	}
	for seed := int64(0); seed < 50; seed++ {
		spec := randomSpec(seed)
		w := workload.Hotels(spec)
		naive, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: NaiveFixpoint})
		if err != nil {
			t.Fatalf("seed %d: naive failed: %v", seed, err)
		}
		want := resultKeys(naive)
		for ci, base := range configs {
			if base.Strategy == LazyNFQTyped {
				base.Schema = w.Schema
			}
			// Fully sequential mode (no batching at all) sets the
			// result-identity bar for the parallel modes.
			seqOpt := base
			seqOpt.Parallel = false
			seq, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, seqOpt)
			if err != nil {
				t.Fatalf("seed %d cfg %d: sequential failed: %v", seed, ci, err)
			}
			if got := resultKeys(seq); got != want {
				t.Fatalf("seed %d cfg %d: sequential disagrees with naive\n got %q\nwant %q", seed, ci, got, want)
			}

			run := func(invokeWorkers int) (*Outcome, []telemetry.Span) {
				opt := base
				opt.InvokeWorkers = invokeWorkers
				out, spans, err := tracedEvaluate(t, w.Doc.Clone(), w.Query, w.Registry, opt)
				if err != nil {
					t.Fatalf("seed %d cfg %d workers %d: %v", seed, ci, invokeWorkers, err)
				}
				return out, spantest.Normalize(spans, true)
			}
			refOut, refSpans := run(1)
			if got := resultKeys(refOut); got != want {
				t.Fatalf("seed %d cfg %d: in-batch sequential disagrees with naive\n got %q\nwant %q",
					seed, ci, got, want)
			}
			refStats := normalizedStats(refOut)
			for _, workers := range []int{0, 2, 4, 8} {
				out, spans := run(workers)
				if got := resultKeys(out); got != want {
					t.Fatalf("seed %d cfg %d workers %d: results diverge\n got %q\nwant %q",
						seed, ci, workers, got, want)
				}
				if st := normalizedStats(out); st != refStats {
					t.Fatalf("seed %d cfg %d workers %d: stats diverge\n got %+v\nwant %+v",
						seed, ci, workers, st, refStats)
				}
				if !reflect.DeepEqual(spans, refSpans) {
					t.Fatalf("seed %d cfg %d workers %d: span stream diverges (%d vs %d spans)",
						seed, ci, workers, len(spans), len(refSpans))
				}
			}
		}
	}
}

// TestInvokeWorkersImpliesParallel: setting only InvokeWorkers > 1 turns
// on batching, exactly like Speculative does for Parallel — the round
// count drops to the batched shape and the virtual clock charges max-
// not-sum per batch.
func TestInvokeWorkersImpliesParallel(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	batched, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry,
		Options{Strategy: LazyNFQ, Layering: true, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	implied, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry,
		Options{Strategy: LazyNFQ, Layering: true, InvokeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if implied.Stats.Rounds != batched.Stats.Rounds ||
		implied.Stats.VirtualTime != batched.Stats.VirtualTime {
		t.Fatalf("InvokeWorkers 4 did not imply Parallel: rounds %d vs %d, virtual %v vs %v",
			implied.Stats.Rounds, batched.Stats.Rounds,
			implied.Stats.VirtualTime, batched.Stats.VirtualTime)
	}
	if got := resultKeys(implied); got != resultKeys(batched) {
		t.Fatal("implied-parallel results diverge from explicit-parallel results")
	}
}

// TestInvokePoolWorkerSpans: invoke spans carry the deterministic
// member→worker assignment (member i on worker i mod width), and the
// span stream is identical across repeated runs.
func TestInvokePoolWorkerSpans(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	const width = 3
	type spanKey struct {
		name    string
		worker  int
		virtual time.Duration
		service string
		round   string
	}
	run := func() ([]spanKey, int) {
		tracer := telemetry.NewTracer(0)
		_, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{
			Strategy: LazyNFQ, Layering: true, InvokeWorkers: width, Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		var keys []spanKey
		maxWorker := 0
		for _, s := range tracer.Spans(0) {
			if s.Name != "invoke" {
				continue
			}
			if s.Worker < 0 || s.Worker >= width {
				t.Fatalf("invoke span worker %d outside pool width %d", s.Worker, width)
			}
			if s.Worker > maxWorker {
				maxWorker = s.Worker
			}
			keys = append(keys, spanKey{s.Name, s.Worker, s.Virtual, s.Attr("service"), s.Attr("round")})
		}
		return keys, maxWorker
	}
	first, maxWorker := run()
	if len(first) == 0 {
		t.Fatal("no invoke spans recorded")
	}
	if maxWorker == 0 {
		t.Fatal("every invoke span ran on worker 0 — the pool never striped a batch")
	}
	second, _ := run()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("invoke span streams differ across identical runs")
	}
}

// TestInvokePoolRaceFaultsCacheRetries drives the bounded invocation
// pool against the full production stack — response cache over fault
// injector, engine retries, best effort — from several concurrent
// evaluators sharing one cache. Under -race this is the pool's
// concurrency proof; semantically every evaluator must converge to the
// fault-free result set.
func TestInvokePoolRaceFaultsCacheRetries(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	baseline, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: NaiveFixpoint})
	if err != nil {
		t.Fatal(err)
	}
	want := resultKeys(baseline)

	cache := service.NewCache(service.CacheSpec{})
	reg := cache.Wrap(service.NewFaults(service.FaultSpec{
		Seed: 41, ErrorRate: 0.2, TimeoutRate: 0.05, LatencyJitter: time.Millisecond,
	}).Wrap(w.Registry))

	const evaluators = 6
	var wg sync.WaitGroup
	errs := make([]error, evaluators)
	for g := 0; g < evaluators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out, err := Evaluate(w.Doc.Clone(), w.Query, reg, Options{
				Strategy: LazyNFQ, Layering: true, Incremental: true,
				InvokeWorkers: 8,
				Retry:         RetryPolicy{MaxAttempts: 25, Backoff: time.Millisecond, Jitter: 0.5, Seed: int64(g)},
				Failure:       BestEffort,
			})
			switch {
			case err != nil:
				errs[g] = err
			case len(out.Failures) != 0:
				errs[g] = fmt.Errorf("gave up on %d calls", len(out.Failures))
			case resultKeys(out) != want:
				errs[g] = fmt.Errorf("results disagree with fault-free baseline")
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("evaluator %d: %v", g, err)
		}
	}
}
