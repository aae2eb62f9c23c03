package core

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/workload"
)

// TestDifferentialAcrossRandomWorlds drives every strategy (and the main
// option combinations) over randomly drawn workload configurations and
// requires bit-identical result sets. This is the broadest correctness
// net in the suite: any unsoundness in relevance detection, sequencing,
// typing, guides, relaxation or pushing shows up as a disagreement with
// the naive fixpoint.
func TestDifferentialAcrossRandomWorlds(t *testing.T) {
	if testing.Short() {
		t.Skip("differential testing is not short")
	}
	parked := 0
	check := func(seed int64) bool {
		spec := randomSpec(seed)
		w := workload.Hotels(spec)
		baseline, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: NaiveFixpoint})
		if err != nil {
			t.Logf("seed %d: naive failed: %v", seed, err)
			return false
		}
		want := resultKeys(baseline)
		if len(baseline.Results) != w.ExpectedResults {
			t.Logf("seed %d: naive %d results, ground truth %d (spec %+v)",
				seed, len(baseline.Results), w.ExpectedResults, spec)
			return false
		}
		for _, opt := range []Options{
			{Strategy: TopDownEager},
			{Strategy: LazyLPQ},
			{Strategy: LazyNFQ},
			{Strategy: LazyNFQ, Layering: true, Parallel: true},
			{Strategy: LazyNFQ, UseGuide: true, RelaxJoins: true},
			{Strategy: LazyNFQ, Incremental: true},
			{Strategy: LazyNFQ, UseGuide: true, Incremental: true},
			{Strategy: LazyNFQ, Layering: true, Parallel: true, Incremental: true},
			{Strategy: LazyNFQTyped, Schema: w.Schema},
			{Strategy: LazyNFQTyped, Schema: w.Schema, Incremental: true},
			{Strategy: LazyNFQTyped, Schema: w.Schema, SchemaMode: schema.Lenient,
				Layering: true, Speculative: true, UseGuide: true, Push: true},
			// The benchmark's lazy-hotels configuration.
			{Strategy: LazyNFQTyped, Schema: w.Schema, Layering: true, Parallel: true,
				UseGuide: true, Incremental: true},
		} {
			out, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, opt)
			if err != nil {
				t.Logf("seed %d: %v failed: %v", seed, opt.Strategy, err)
				return false
			}
			if got := resultKeys(out); got != want {
				t.Logf("seed %d: %v (opts %+v) disagrees with naive\n got %q\nwant %q\nspec %+v",
					seed, opt.Strategy, opt, got, want, spec)
				return false
			}
		}
		// The value-join query over the same world with tags: name=tag joins
		// two branches of one hotel, so under the guide each verdict hangs
		// on its hotel, relaxed or not.
		jspec := spec
		jspec.TagJoinEvery = 1 + int(seed&1)
		jw := workload.Hotels(jspec)
		jbase, err := Evaluate(jw.Doc.Clone(), jw.JoinQuery, jw.Registry, Options{Strategy: NaiveFixpoint})
		if err != nil {
			t.Logf("seed %d: naive join query failed: %v", seed, err)
			return false
		}
		for _, opt := range []Options{
			{Strategy: LazyNFQ, UseGuide: true, Incremental: true},
			{Strategy: LazyNFQ, UseGuide: true, Incremental: true, RelaxJoins: true},
		} {
			out, err := Evaluate(jw.Doc.Clone(), jw.JoinQuery, jw.Registry, opt)
			if err != nil {
				t.Logf("seed %d: join query (opts %+v) failed: %v", seed, opt, err)
				return false
			}
			if got, want := resultKeys(out), resultKeys(jbase); got != want {
				t.Logf("seed %d: join query (opts %+v) disagrees with naive\n got %q\nwant %q\nspec %+v",
					seed, opt, got, want, jspec)
				return false
			}
		}
		// Best effort around permanently failing restaurant lookups: a
		// parked call stays a candidate of the guided view (it is still in
		// the document) but must stay out of every answer, exactly as in the
		// guideless from-scratch run under the same injector.
		faults := service.FaultSpec{Seed: seed, PermanentRate: 0.4, Services: []string{"getNearbyRestos"}}
		var ref *Outcome
		for _, opt := range []Options{
			{Strategy: LazyNFQ},
			{Strategy: LazyNFQ, UseGuide: true},
			{Strategy: LazyNFQ, UseGuide: true, Incremental: true},
		} {
			opt.Failure = BestEffort
			out, err := Evaluate(w.Doc.Clone(), w.Query, service.NewFaults(faults).Wrap(w.Registry), opt)
			if err != nil {
				t.Logf("seed %d: best effort (opts %+v) failed: %v", seed, opt, err)
				return false
			}
			if ref == nil {
				ref = out
				parked += len(out.Failures)
				continue
			}
			if resultKeys(out) != resultKeys(ref) || out.Complete != ref.Complete ||
				failurePaths(out) != failurePaths(ref) || out.Stats.CallsInvoked != ref.Stats.CallsInvoked {
				t.Logf("seed %d: best effort (opts %+v) diverges from the guideless run: %d results, complete=%v, %d invoked, failures %s; want %d, %v, %d, %s",
					seed, opt, len(out.Results), out.Complete, out.Stats.CallsInvoked, failurePaths(out),
					len(ref.Results), ref.Complete, ref.Stats.CallsInvoked, failurePaths(ref))
				return false
			}
		}
		// The same worlds through a shared response cache: the second
		// evaluation runs warm (its repeats are served from memory), and
		// both must still match the uncached naive baseline exactly.
		cached := service.NewCache(service.CacheSpec{}).Wrap(w.Registry)
		for _, opt := range []Options{
			{Strategy: NaiveFixpoint},
			{Strategy: LazyNFQ, Incremental: true},
		} {
			out, err := Evaluate(w.Doc.Clone(), w.Query, cached, opt)
			if err != nil {
				t.Logf("seed %d: cached %v failed: %v", seed, opt.Strategy, err)
				return false
			}
			if got := resultKeys(out); got != want {
				t.Logf("seed %d: cached %v disagrees with uncached naive\n got %q\nwant %q\nspec %+v",
					seed, opt.Strategy, got, want, spec)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
	if parked == 0 {
		t.Fatal("no call was ever parked: the best-effort rows exercised nothing")
	}
}

// failurePaths lists the calls an evaluation gave up on, in give-up order.
func failurePaths(out *Outcome) string {
	s := ""
	for _, f := range out.Failures {
		s += f.Path + "|"
	}
	return s
}

// TestProjectionDifferentialSweep is the acceptance net for type-based
// document projection: over 50 random worlds, the typed strategy with
// projection on must agree bit-for-bit with projection off AND with the
// naive fixpoint at every invocation pool width — and the two
// runs must invoke exactly the same number of calls, since projection
// may only skip statically irrelevant subtrees, never change what is
// relevant. The sweep also requires that projection actually fired
// somewhere, so a silently-trivial predicate cannot fake a pass.
func TestProjectionDifferentialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential testing is not short")
	}
	prunedTotal := 0
	for seed := int64(0); seed < 50; seed++ {
		spec := randomSpec(seed)
		w := workload.Hotels(spec)
		baseline, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: NaiveFixpoint})
		if err != nil {
			t.Fatalf("seed %d: naive failed: %v", seed, err)
		}
		want := resultKeys(baseline)
		for _, width := range []int{1, 2, 4, 8} {
			var outcomes [2]*Outcome
			for i, noProject := range []bool{false, true} {
				opt := Options{
					Strategy:      LazyNFQTyped,
					Schema:        w.Schema,
					Incremental:   true,
					InvokeWorkers: width,
					NoProject:     noProject,
				}
				out, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, opt)
				if err != nil {
					t.Fatalf("seed %d width %d noProject=%v: %v", seed, width, noProject, err)
				}
				if got := resultKeys(out); got != want {
					t.Fatalf("seed %d width %d noProject=%v disagrees with naive\n got %q\nwant %q\nspec %+v",
						seed, width, noProject, got, want, spec)
				}
				outcomes[i] = out
			}
			on, off := outcomes[0], outcomes[1]
			if on.Stats.CallsInvoked != off.Stats.CallsInvoked {
				t.Fatalf("seed %d width %d: projection changed invocations: %d with, %d without",
					seed, width, on.Stats.CallsInvoked, off.Stats.CallsInvoked)
			}
			if off.Stats.SubtreesPruned != 0 {
				t.Fatalf("seed %d width %d: NoProject run still pruned %d subtrees",
					seed, width, off.Stats.SubtreesPruned)
			}
			prunedTotal += on.Stats.SubtreesPruned
		}
	}
	if prunedTotal == 0 {
		t.Fatal("projection never pruned a subtree across the whole sweep")
	}
}

// TestFilteredGuideDifferentialSweep is the acceptance net for
// projection-aware F-guide construction: when the typed strategy builds
// a guide under an active projection, whole regions the analysis proves
// dead are left out of the index. Over 40 random worlds the filtered
// guide must agree bit-for-bit with the unfiltered one (NoProject) AND
// with the naive fixpoint, and must invoke exactly the same calls —
// filtering may only drop index entries for calls no query node can
// ever reach, never change what is relevant. The sweep also demands
// that the filtered build path actually fired somewhere (observed via
// the guide-build trace span), so a predicate that silently degrades to
// unfiltered cannot fake a pass.
func TestFilteredGuideDifferentialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential testing is not short")
	}
	filteredBuilds := 0
	for seed := int64(0); seed < 40; seed++ {
		spec := randomSpec(seed)
		w := workload.Hotels(spec)
		baseline, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: NaiveFixpoint})
		if err != nil {
			t.Fatalf("seed %d: naive failed: %v", seed, err)
		}
		want := resultKeys(baseline)
		var outcomes [2]*Outcome
		for i, noProject := range []bool{false, true} {
			tr := telemetry.NewTracer(0)
			opt := Options{
				Strategy:  LazyNFQTyped,
				Schema:    w.Schema,
				UseGuide:  true,
				NoProject: noProject,
				Tracer:    tr,
			}
			out, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, opt)
			if err != nil {
				t.Fatalf("seed %d noProject=%v: %v", seed, noProject, err)
			}
			if got := resultKeys(out); got != want {
				t.Fatalf("seed %d noProject=%v disagrees with naive\n got %q\nwant %q\nspec %+v",
					seed, noProject, got, want, spec)
			}
			outcomes[i] = out
			for _, s := range tr.Spans(tr.Len()) {
				if s.Name != "guide-build" {
					continue
				}
				if s.Attr("filtered") == "1" {
					if noProject {
						t.Fatalf("seed %d: NoProject run still built a filtered guide", seed)
					}
					filteredBuilds++
				}
			}
		}
		if a, b := outcomes[0].Stats.CallsInvoked, outcomes[1].Stats.CallsInvoked; a != b {
			t.Fatalf("seed %d: filtered guide changed invocations: %d filtered, %d unfiltered",
				seed, a, b)
		}
	}
	if filteredBuilds == 0 {
		t.Fatal("filtered guide construction never fired across the whole sweep")
	}
}

// TestDifferentialUnderInjectedFaults is the fault-tolerance half of the
// differential net, and the acceptance check of the fault-injection
// work: over ≥50 injector seeds at a 20% error rate (plus stalls),
// best-effort evaluation with retries converges — for Lazy-NFQ,
// Lazy-LPQ and the naive fixpoint alike — to exactly the result set of
// the fault-free run, with no recorded failures and full completeness;
// and on every one of those seeds, fail-fast without retries surfaces
// the injected fault instead. The injector is deterministic per
// (seed, service, invocation index), so this test is stable.
func TestDifferentialUnderInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("differential testing is not short")
	}
	w := workload.Hotels(workload.DefaultSpec())
	baseline, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: NaiveFixpoint})
	if err != nil {
		t.Fatal(err)
	}
	want := resultKeys(baseline)

	const seeds = 50
	failFastErrors := 0
	for seed := int64(0); seed < seeds; seed++ {
		spec := service.FaultSpec{
			Seed:        seed,
			ErrorRate:   0.2,
			TimeoutRate: 0.05,
			FailFirst:   1,
		}
		// Fail-fast without retries: the very first invocation of every
		// service fails (FailFirst), so the evaluation must error.
		flaky := service.NewFaults(spec).Wrap(w.Registry)
		if _, err := Evaluate(w.Doc.Clone(), w.Query, flaky, Options{Strategy: NaiveFixpoint}); err != nil {
			failFastErrors++
		} else {
			t.Errorf("seed %d: fail-fast without retries did not surface the injected fault", seed)
		}

		// Best effort with retries: every strategy converges to the
		// fault-free result. 25 attempts outlast a 20%-rate streak with
		// probability 1 - 0.25^24 for every practical purpose.
		retry := RetryPolicy{
			MaxAttempts: 25, Backoff: time.Millisecond,
			MaxBackoff: 50 * time.Millisecond, Jitter: 0.5, Seed: seed,
		}
		for _, opt := range []Options{
			{Strategy: NaiveFixpoint},
			{Strategy: LazyLPQ},
			{Strategy: LazyNFQ},
			{Strategy: LazyNFQ, Layering: true, Parallel: true},
			{Strategy: LazyNFQ, Incremental: true},
		} {
			opt.Retry = retry
			opt.Failure = BestEffort
			flaky := service.NewFaults(spec).Wrap(w.Registry)
			out, err := Evaluate(w.Doc.Clone(), w.Query, flaky, opt)
			if err != nil {
				t.Fatalf("seed %d: %v best-effort errored: %v", seed, opt.Strategy, err)
			}
			if len(out.Failures) != 0 {
				t.Fatalf("seed %d: %v gave up on %d calls: %+v",
					seed, opt.Strategy, len(out.Failures), out.Failures)
			}
			if !out.Complete {
				t.Fatalf("seed %d: %v incomplete under faults", seed, opt.Strategy)
			}
			if got := resultKeys(out); got != want {
				t.Fatalf("seed %d: %v under faults disagrees with the fault-free run\n got %q\nwant %q",
					seed, opt.Strategy, got, want)
			}
		}

		// The cache layered over the injector (cache.Wrap(faults.Wrap(base)))
		// must not change any of this: faults are never stored, so retries
		// still see every injected failure, and the converged result is
		// still the fault-free one.
		for _, opt := range []Options{
			{Strategy: LazyNFQ, Incremental: true},
		} {
			opt.Retry = retry
			opt.Failure = BestEffort
			cached := service.NewCache(service.CacheSpec{}).Wrap(service.NewFaults(spec).Wrap(w.Registry))
			out, err := Evaluate(w.Doc.Clone(), w.Query, cached, opt)
			if err != nil {
				t.Fatalf("seed %d: cached %v best-effort errored: %v", seed, opt.Strategy, err)
			}
			if len(out.Failures) != 0 || !out.Complete {
				t.Fatalf("seed %d: cached %v failed to converge (failures=%d complete=%v)",
					seed, opt.Strategy, len(out.Failures), out.Complete)
			}
			if got := resultKeys(out); got != want {
				t.Fatalf("seed %d: cached %v under faults disagrees with the fault-free run\n got %q\nwant %q",
					seed, opt.Strategy, got, want)
			}
		}
	}
	if failFastErrors != seeds {
		t.Fatalf("fail-fast errored on %d/%d seeds", failFastErrors, seeds)
	}
}

// resultKeys renders a result set order-independently by its variable
// bindings. The workload query's result nodes are all variables, so the
// bindings fully determine each result; node captures are deliberately
// excluded because they differ representationally across strategies
// (pushed evaluations return tuples without concrete nodes, and node IDs
// follow invocation order).
func resultKeys(out *Outcome) string {
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
	// Insertion sort; sets are small.
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

// randomSpec draws a small but structurally diverse world.
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
