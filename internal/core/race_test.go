package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// These tests exist to run under `go test -race` (the Makefile's check
// target does): they drive the engine's parallel batch paths, the fault
// injector, span emission and the shared stat counters from many
// goroutines at once, so any unsynchronised access shows up as a race
// report rather than a flaky miscount.

// TestConcurrentBatchEvaluations runs many parallel+speculative
// evaluations against one shared (flaky) registry and one shared clock,
// each with its own tracer, and checks they all agree.
func TestConcurrentBatchEvaluations(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	flaky := service.NewFaults(service.FaultSpec{
		Seed: 17, ErrorRate: 0.2, FailFirst: 1, LatencyJitter: time.Millisecond,
	}).Wrap(w.Registry)
	baseline, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: NaiveFixpoint})
	if err != nil {
		t.Fatal(err)
	}
	want := resultKeys(baseline)

	sharedClock := &service.SimClock{}
	const evaluators = 8
	var wg sync.WaitGroup
	errs := make([]error, evaluators)
	for g := 0; g < evaluators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := telemetry.NewTracer(0)
			out, err := Evaluate(w.Doc.Clone(), w.Query, flaky, Options{
				Strategy: LazyNFQ, Layering: true, Speculative: true,
				Clock:   sharedClock,
				Retry:   RetryPolicy{MaxAttempts: 25, Backoff: time.Millisecond, Jitter: 0.5, Seed: int64(g)},
				Failure: BestEffort,
				Tracer:  tr,
			})
			switch {
			case err != nil:
				errs[g] = err
			case len(out.Failures) != 0:
				errs[g] = fmt.Errorf("gave up on %d calls", len(out.Failures))
			case resultKeys(out) != want:
				errs[g] = fmt.Errorf("results disagree with fault-free baseline")
			case tr.Len() == 0:
				errs[g] = fmt.Errorf("tracer saw no spans")
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

// TestBatchesAgainstMutatingRegistry interleaves parallel batch
// invocations with concurrent registry mutation (new services being
// registered) and registry stat reads — the locking contract a live
// portal relies on.
func TestBatchesAgainstMutatingRegistry(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	reg := service.NewFaults(service.FaultSpec{Seed: 23, ErrorRate: 0.1}).Wrap(w.Registry)

	stop := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(2)
	go func() {
		defer mutator.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Register(&service.Service{
				Name:    fmt.Sprintf("late-arrival-%d", i),
				Latency: time.Millisecond,
				Handler: func([]*tree.Node) ([]*tree.Node, error) { return nil, nil },
			})
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() {
		defer mutator.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Stats()
				_ = reg.Names()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	const evaluators = 4
	var wg sync.WaitGroup
	for g := 0; g < evaluators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out, err := Evaluate(w.Doc.Clone(), w.Query, reg, Options{
				Strategy: NaiveFixpoint, Parallel: true,
				Retry:   RetryPolicy{MaxAttempts: 20, Seed: int64(g)},
				Failure: BestEffort,
			})
			if err != nil {
				t.Errorf("evaluator %d: %v", g, err)
				return
			}
			if len(out.Results) != w.ExpectedResults {
				t.Errorf("evaluator %d: %d results, want %d", g, len(out.Results), w.ExpectedResults)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	mutator.Wait()
}

// TestParallelDetectionSharedCacheRace runs relevance detection with
// persistent evaluator shards (Incremental) in many concurrent
// evaluations that all share one response cache — the layering
// cmd/axmlquery wires up. Under -race this covers the per-NFQ evaluator
// shards and the cache's singleflight at once.
func TestParallelDetectionSharedCacheRace(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	baseline, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: NaiveFixpoint})
	if err != nil {
		t.Fatal(err)
	}
	want := resultKeys(baseline)

	cache := service.NewCache(service.CacheSpec{})
	cached := cache.Wrap(w.Registry)
	const evaluators = 8
	var wg sync.WaitGroup
	errs := make([]error, evaluators)
	for g := 0; g < evaluators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out, err := Evaluate(w.Doc.Clone(), w.Query, cached, Options{
				Strategy: LazyNFQ, Layering: g%2 == 0,
				Incremental: true,
			})
			switch {
			case err != nil:
				errs[g] = err
			case resultKeys(out) != want:
				errs[g] = fmt.Errorf("results disagree with naive baseline")
			case out.Stats.MemoHits == 0:
				errs[g] = fmt.Errorf("no memo hits — incremental shards inactive")
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("evaluator %d: %v", g, err)
		}
	}
	if st := cache.Stats(); st.Hits+st.Coalesced == 0 {
		t.Errorf("eight identical evaluations shared no cached responses: %+v", st)
	}
}

// TestSharedInjectorConcurrentCounters hammers one injector from many
// goroutines; the per-service counters and stats must stay exact.
func TestSharedInjectorConcurrentCounters(t *testing.T) {
	reg := service.NewRegistry()
	reg.Register(&service.Service{
		Name: "svc", Latency: time.Microsecond,
		Handler: func([]*tree.Node) ([]*tree.Node, error) { return nil, nil },
	})
	inj := service.NewFaults(service.FaultSpec{Seed: 9, ErrorRate: 0.5})
	flaky := inj.Wrap(reg)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, _ = flaky.Invoke("svc", nil, nil)
			}
		}()
	}
	wg.Wait()
	st := inj.Stats()
	if st.Invocations != workers*perWorker {
		t.Fatalf("injector saw %d invocations, want %d", st.Invocations, workers*perWorker)
	}
	if st.Injected() == 0 || st.Injected() == st.Invocations {
		t.Fatalf("degenerate injection counts: %+v", st)
	}
}
