package plan

import (
	"reflect"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/telemetry/spantest"
	"github.com/activexml/axml/internal/workload"
)

// randomSpec mirrors the core package's differential world generator
// (same mixed congruential draw, so the two suites stress comparable
// structures).
func randomSpec(seed int64) workload.HotelSpec {
	state := uint64(seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state >> 33 % uint64(n))
	}
	spec := workload.HotelSpec{
		Hotels:         1 + next(10),
		HiddenHotels:   next(5),
		TargetEvery:    1 + next(4),
		FiveStarEvery:  1 + next(3),
		RestosPerCall:  next(5),
		FiveStarRestos: 0,
		MuseumsPerCall: next(4),
		ExtrasPerCall:  next(3),
		TeaserKinds:    next(3),
		PushCapable:    next(2) == 0,
	}
	if spec.RestosPerCall > 0 {
		spec.FiveStarRestos = next(spec.RestosPerCall + 1)
	}
	if next(2) == 0 {
		spec.IntensionalRatingEvery = 1 + next(3)
		spec.RatingChainDepth = next(3)
	}
	if next(2) == 0 {
		spec.MaterializedRestos = next(4)
	}
	return spec
}

// resultKeys canonicalizes a result set into one comparable string
// (variable bindings only, same scheme as the core differentials).
func resultKeys(out *core.Outcome) string {
	keys := make([]string, 0, len(out.Results))
	for _, r := range out.Results {
		key := ""
		vars := make([]string, 0, len(r.Values))
		for k, v := range r.Values {
			vars = append(vars, "$"+k+"="+v)
		}
		for i := 1; i < len(vars); i++ {
			for j := i; j > 0 && vars[j] < vars[j-1]; j-- {
				vars[j], vars[j-1] = vars[j-1], vars[j]
			}
		}
		for _, v := range vars {
			key += v + ";"
		}
		keys = append(keys, key)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	s := ""
	for _, k := range keys {
		s += k + "|"
	}
	return s
}

// comparableStats strips the wall-clock timings and the planner's own
// decision counter from Stats. The decision counter (PushVetoed) is
// nonzero only when a planner runs, by definition; everything the evaluation itself observes — calls,
// retries, failures, pushes, rounds, bytes, virtual time — must be
// bit-identical with the planner on or off.
func comparableStats(out *core.Outcome) core.Stats {
	st := out.Stats
	st.DetectTime = 0
	st.AnalysisTime = 0
	st.PushVetoed = 0
	return st
}

// differentialConfigs are the option shapes the planned engine is
// pinned against, mirroring the invocation-pool acceptance net.
func differentialConfigs(w *workload.World) []core.Options {
	return []core.Options{
		{Strategy: core.LazyNFQ, Layering: true, Parallel: true, Incremental: true},
		{Strategy: core.LazyNFQTyped, Schema: w.Schema, Layering: true, Parallel: true, Push: true},
	}
}

// warmPlanner returns a CostPlanner whose profiler has observed one
// full evaluation of the world, so its schedules are driven by real
// estimates rather than priors.
func warmPlanner(t *testing.T, w *workload.World, opt core.Options) *CostPlanner {
	t.Helper()
	prof := profile.New(0, nil)
	if _, err := core.Evaluate(w.Doc.Clone(), w.Query, prof.Wrap(w.Registry), opt); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	return New(prof, Options{})
}

// tracedRun evaluates the world's query under a fresh tracer and returns
// the outcome with the span stream in its planner-neutral form: "plan"
// spans dropped and workers stripped, everything else exact.
func tracedRun(t *testing.T, w *workload.World, reg *service.Registry, opt core.Options) (*core.Outcome, []telemetry.Span) {
	t.Helper()
	const ring = 1 << 16
	tr := telemetry.NewTracer(ring)
	opt.Tracer = tr
	out, err := core.Evaluate(w.Doc.Clone(), w.Query, reg, opt)
	if err != nil {
		t.Fatalf("width %d planned=%v: %v", opt.InvokeWorkers, opt.Planner != nil, err)
	}
	spans := tr.Spans(0)
	if len(spans) == ring {
		t.Fatal("span ring full: the stream may be incomplete")
	}
	return out, spantest.Normalize(spans, true, "plan")
}

// TestPlannedDifferentialAcrossSeeds is the planner's acceptance net:
// over 50 seeded workloads and both option shapes, evaluation with the
// cost planner must be indistinguishable from the static engine at
// every pool width — identical result sets, identical Stats (virtual
// clock included) and an identical span stream once the planner's own
// "plan" spans and the member→worker assignment are set aside. The
// planner may only reorder and resize work; anything else it changes
// that a trace can see is a bug this test catches.
func TestPlannedDifferentialAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("differential testing is not short")
	}
	for seed := int64(0); seed < 50; seed++ {
		spec := randomSpec(seed)
		w := workload.Hotels(spec)
		for ci, base := range differentialConfigs(w) {
			planner := warmPlanner(t, w, base)
			run := func(width int, pl core.InvocationPlanner) (*core.Outcome, []telemetry.Span) {
				opt := base
				opt.InvokeWorkers = width
				opt.Planner = pl
				return tracedRun(t, w, w.Registry, opt)
			}
			ref, refSpans := run(1, nil)
			want := resultKeys(ref)
			wantStats := comparableStats(ref)
			for _, width := range []int{1, 2, 4, 8} {
				for _, pl := range []core.InvocationPlanner{nil, planner} {
					out, spans := run(width, pl)
					if got := resultKeys(out); got != want {
						t.Errorf("seed %d cfg %d width %d planned=%v: results diverge\n got %q\nwant %q",
							seed, ci, width, pl != nil, got, want)
					}
					if got := comparableStats(out); got != wantStats {
						t.Errorf("seed %d cfg %d width %d planned=%v: stats diverge\n got %+v\nwant %+v",
							seed, ci, width, pl != nil, got, wantStats)
					}
					if !reflect.DeepEqual(spans, refSpans) {
						t.Errorf("seed %d cfg %d width %d planned=%v: span stream diverges (%d vs %d spans)",
							seed, ci, width, pl != nil, len(spans), len(refSpans))
					}
				}
			}
		}
	}
}

// TestPlannedDifferentialUnderFaults drives the same off-vs-cost
// comparison through an injected fault layer with retries. At width 1
// the fault injector's per-service invocation indices are deterministic
// and the planner's stable ordering preserves each service's relative
// call order, so Stats and span streams must stay bit-identical too; at
// larger widths arrival order inside the injector is scheduling-
// dependent, so (as in the pool tests) only the converged result set is
// compared.
func TestPlannedDifferentialUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("differential testing is not short")
	}
	for seed := int64(0); seed < 50; seed++ {
		spec := randomSpec(seed)
		w := workload.Hotels(spec)
		// The injector's per-service invocation counters are stateful, so
		// every run gets a fresh wrapper: two identically-scheduled runs
		// then draw identical fault sequences.
		freshFaults := func() *service.Registry {
			return service.NewFaults(service.FaultSpec{
				Seed: seed*2654435761 + 1, ErrorRate: 0.2, TimeoutRate: 0.05, FailFirst: 1,
			}).Wrap(w.Registry)
		}
		for ci, base := range differentialConfigs(w) {
			base.Retry = core.RetryPolicy{MaxAttempts: 25, Backoff: time.Millisecond, Jitter: 0.5, Seed: seed}
			base.Failure = core.BestEffort
			planner := warmPlanner(t, w, differentialConfigs(w)[ci])
			run := func(width int, pl core.InvocationPlanner) (*core.Outcome, []telemetry.Span) {
				opt := base
				opt.InvokeWorkers = width
				opt.Planner = pl
				return tracedRun(t, w, freshFaults(), opt)
			}
			refOut, refSpans := run(1, nil)
			want := resultKeys(refOut)
			wantStats := comparableStats(refOut)
			// Width 1: full identity, faults included.
			out, spans := run(1, planner)
			if got := resultKeys(out); got != want {
				t.Errorf("seed %d cfg %d width 1 planned: faulted results diverge", seed, ci)
			}
			if got := comparableStats(out); got != wantStats {
				t.Errorf("seed %d cfg %d width 1 planned: faulted stats diverge\n got %+v\nwant %+v",
					seed, ci, got, wantStats)
			}
			if !reflect.DeepEqual(spans, refSpans) {
				t.Errorf("seed %d cfg %d width 1 planned: faulted span stream diverges", seed, ci)
			}
			// Wider pools: the retried evaluation must still converge to
			// the same result set with and without the planner.
			for _, width := range []int{2, 4, 8} {
				for _, pl := range []core.InvocationPlanner{nil, planner} {
					out, _ := run(width, pl)
					if got := resultKeys(out); got != want {
						t.Errorf("seed %d cfg %d width %d planned=%v: faulted results diverge",
							seed, ci, width, pl != nil)
					}
				}
			}
		}
	}
}
