package bench

import (
	"fmt"
	"net/http/httptest"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/workload"
)

// evalWorld runs one evaluation over a fresh clone of the world's
// document and verifies the ground-truth result count.
func evalWorld(s Scale, w *workload.World, opt core.Options) (*core.Outcome, error) {
	if opt.Strategy == core.LazyNFQTyped && opt.Schema == nil {
		opt.Schema = w.Schema
	}
	opt.Metrics, opt.Tracer = s.Metrics, s.Tracer
	out, err := core.Evaluate(w.Doc.Clone(), w.Query, w.Registry, opt)
	if err != nil {
		return nil, err
	}
	if !out.Complete {
		return nil, fmt.Errorf("%v: evaluation incomplete", opt.Strategy)
	}
	if len(out.Results) != w.ExpectedResults {
		return nil, fmt.Errorf("%v: got %d results, want %d",
			opt.Strategy, len(out.Results), w.ExpectedResults)
	}
	return out, nil
}

// E1 sweeps document size and compares every strategy: the paper's
// headline claim that pruning irrelevant calls cuts end-to-end time by
// orders of magnitude (Sections 1, 8).
func E1(s Scale) (Table, error) {
	t := Table{
		ID:      "E1",
		Title:   "strategies across document sizes (latency 10ms/call)",
		Columns: []string{"hotels", "strategy", "calls", "rounds", "virt-time", "bytes", "results"},
	}
	strategies := []core.Options{
		{Strategy: core.NaiveFixpoint},
		{Strategy: core.TopDownEager},
		{Strategy: core.LazyLPQ},
		{Strategy: core.LazyNFQ},
		{Strategy: core.LazyNFQTyped, Layering: true, Parallel: true},
	}
	for _, hotels := range s.E1Sizes {
		spec := workload.DefaultSpec()
		spec.Hotels = hotels
		spec.HiddenHotels = hotels / 5
		w := workload.Hotels(spec)
		var naive, best time.Duration
		for _, opt := range strategies {
			out, err := evalWorld(s, w, opt)
			if err != nil {
				return t, err
			}
			label := opt.Strategy.String()
			if opt.Parallel {
				label += "+par"
			}
			t.Rows = append(t.Rows, []string{
				itoa(hotels), label,
				itoa(out.Stats.CallsInvoked), itoa(out.Stats.Rounds),
				ms(out.Stats.VirtualTime), kb(out.Stats.BytesFetched),
				itoa(len(out.Results)),
			})
			switch opt.Strategy {
			case core.NaiveFixpoint:
				naive = out.Stats.VirtualTime
			case core.LazyNFQTyped:
				best = out.Stats.VirtualTime
			}
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"hotels=%d: typed-lazy is %s faster than naive (all strategies returned %d correct results)",
			hotels, ratio(naive, best), w.ExpectedResults))
	}
	return t, nil
}

// E2 sweeps per-call latency: the lazy advantage scales with call cost,
// since saved time ≈ pruned calls × latency.
func E2(s Scale) (Table, error) {
	t := Table{
		ID:      "E2",
		Title:   "naive vs typed-lazy across per-call latency",
		Columns: []string{"latency", "naive-time", "lazy-time", "speedup"},
	}
	for _, lat := range s.E2Latencies {
		spec := workload.DefaultSpec()
		spec.Latency = lat
		w := workload.Hotels(spec)
		naive, err := evalWorld(s, w, core.Options{Strategy: core.NaiveFixpoint})
		if err != nil {
			return t, err
		}
		lazy, err := evalWorld(s, w, core.Options{Strategy: core.LazyNFQTyped})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			lat.String(),
			ms(naive.Stats.VirtualTime), ms(lazy.Stats.VirtualTime),
			ratio(naive.Stats.VirtualTime, lazy.Stats.VirtualTime),
		})
	}
	return t, nil
}

// E3 sweeps result selectivity with pushing on and off (Section 7): the
// transfer saving tracks the fraction of the result the query keeps.
func E3(s Scale) (Table, error) {
	t := Table{
		ID:      "E3",
		Title:   "query pushing across selectivity (100 restaurants/call)",
		Columns: []string{"match%", "bytes-plain", "bytes-push", "saving", "time-plain", "time-push"},
	}
	for _, sel := range s.E3Selectivities {
		spec := workload.DefaultSpec()
		spec.PushCapable = true
		spec.RestosPerCall = 100
		spec.FiveStarRestos = sel
		w := workload.Hotels(spec)
		plain, err := evalWorld(s, w, core.Options{Strategy: core.LazyNFQTyped})
		if err != nil {
			return t, err
		}
		push, err := evalWorld(s, w, core.Options{Strategy: core.LazyNFQTyped, Push: true})
		if err != nil {
			return t, err
		}
		saving := "-"
		if plain.Stats.BytesFetched > 0 {
			saving = fmt.Sprintf("%.0f%%",
				100*(1-float64(push.Stats.BytesFetched)/float64(plain.Stats.BytesFetched)))
		}
		t.Rows = append(t.Rows, []string{
			itoa(sel), kb(plain.Stats.BytesFetched), kb(push.Stats.BytesFetched), saving,
			ms(plain.Stats.VirtualTime), ms(push.Stats.VirtualTime),
		})
	}
	return t, nil
}

// E4 sweeps extensional document bulk: F-guide relevance detection cost
// follows the number of call-bearing paths, direct NFQ evaluation the
// number of document nodes (Section 6.2).
func E4(s Scale) (Table, error) {
	t := Table{
		ID:      "E4",
		Title:   "relevance detection: direct NFQs vs F-guide across document bulk",
		Columns: []string{"doc-nodes", "detect-direct", "detect-guide", "speedup", "guide-cands", "calls"},
	}
	for _, bulk := range s.E4Bulks {
		spec := workload.DefaultSpec()
		spec.MaterializedRestos = bulk
		w := workload.Hotels(spec)
		direct, err := evalWorld(s, w, core.Options{Strategy: core.LazyNFQ})
		if err != nil {
			return t, err
		}
		guided, err := evalWorld(s, w, core.Options{Strategy: core.LazyNFQ, UseGuide: true})
		if err != nil {
			return t, err
		}
		if direct.Stats.CallsInvoked != guided.Stats.CallsInvoked {
			return t, fmt.Errorf("E4: guide changed the relevant set (%d vs %d)",
				direct.Stats.CallsInvoked, guided.Stats.CallsInvoked)
		}
		t.Rows = append(t.Rows, []string{
			itoa(w.Doc.Size()),
			ms(direct.Stats.DetectTime), ms(guided.Stats.DetectTime),
			ratio(direct.Stats.DetectTime, guided.Stats.DetectTime),
			itoa(guided.Stats.GuideCandidates), itoa(guided.Stats.CallsInvoked),
		})
	}
	return t, nil
}

// E5 sweeps the nesting depth of calls-returning-calls and compares plain
// NFQA against layered and layered+parallel processing (Section 4).
func E5(s Scale) (Table, error) {
	t := Table{
		ID:      "E5",
		Title:   "sequencing across call-chain depth",
		Columns: []string{"depth", "mode", "nfq-evals", "rounds", "virt-time", "calls"},
	}
	modes := []struct {
		name string
		opt  core.Options
	}{
		{"flat", core.Options{Strategy: core.LazyNFQ}},
		{"layered", core.Options{Strategy: core.LazyNFQ, Layering: true}},
		{"layered+par", core.Options{Strategy: core.LazyNFQ, Layering: true, Parallel: true}},
		// The §4.4 future-work ablation: batch whole layers even when
		// the independence condition fails. Minimal rounds, but it may
		// invoke calls a strictly relevant rewriting skips.
		{"speculative", core.Options{Strategy: core.LazyNFQ, Layering: true, Speculative: true}},
	}
	for _, depth := range s.E5Depths {
		spec := workload.DefaultSpec()
		spec.RatingChainDepth = depth
		w := workload.Hotels(spec)
		var calls int
		for _, m := range modes {
			out, err := evalWorld(s, w, m.opt)
			if err != nil {
				return t, err
			}
			if m.opt.Speculative {
				if out.Stats.CallsInvoked < calls {
					return t, fmt.Errorf("E5: speculative invoked fewer calls than the relevant set")
				}
			} else if calls == 0 {
				calls = out.Stats.CallsInvoked
			} else if calls != out.Stats.CallsInvoked {
				return t, fmt.Errorf("E5: mode %s changed the relevant set", m.name)
			}
			t.Rows = append(t.Rows, []string{
				itoa(depth), m.name,
				itoa(out.Stats.RelevanceQueries), itoa(out.Stats.Rounds),
				ms(out.Stats.VirtualTime), itoa(out.Stats.CallsInvoked),
			})
		}
	}
	return t, nil
}

// E6 sweeps the number of service kinds and compares exact against
// lenient type analysis (Sections 5, 6.1): the lenient graph schema is
// cheaper to decide but admits calls the exact analysis rules out.
func E6(s Scale) (Table, error) {
	t := Table{
		ID:      "E6",
		Title:   "exact vs lenient satisfiability across service kinds (star query)",
		Columns: []string{"kinds", "mode", "analysis", "calls", "results"},
	}
	for _, kinds := range s.E6Kinds {
		spec := workload.DefaultSpec()
		spec.TeaserKinds = kinds
		w := workload.Hotels(spec)
		for _, mode := range []schema.Mode{schema.Exact, schema.Lenient} {
			out, err := core.Evaluate(w.Doc.Clone(), w.StarQuery, w.Registry, core.Options{
				Strategy: core.LazyNFQTyped, Schema: w.Schema, SchemaMode: mode,
				Metrics: s.Metrics, Tracer: s.Tracer,
			})
			if err != nil {
				return t, err
			}
			name := "exact"
			if mode == schema.Lenient {
				name = "lenient"
			}
			t.Rows = append(t.Rows, []string{
				itoa(kinds), name,
				ms(out.Stats.AnalysisTime), itoa(out.Stats.CallsInvoked),
				itoa(len(out.Results)),
			})
		}
	}
	return t, nil
}

// E7 compares full NFQs, join-relaxed NFQs and LPQs on a join-heavy
// query: the accuracy/efficiency trade-off of Section 6.1.
func E7(s Scale) (Table, error) {
	t := Table{
		ID:      "E7",
		Title:   "join relaxation: detection cost vs calls invoked",
		Columns: []string{"hotels", "mode", "detect", "nfq-evals", "calls", "results"},
	}
	for _, hotels := range s.E7Hotels {
		spec := workload.DefaultSpec()
		spec.Hotels = hotels
		spec.TagJoinEvery = 2
		w := workload.Hotels(spec)
		modes := []struct {
			name string
			opt  core.Options
		}{
			{"nfq", core.Options{Strategy: core.LazyNFQ}},
			{"nfq-relaxed", core.Options{Strategy: core.LazyNFQ, RelaxJoins: true}},
			{"lpq", core.Options{Strategy: core.LazyLPQ}},
		}
		var want int
		for i, m := range modes {
			m.opt.Metrics, m.opt.Tracer = s.Metrics, s.Tracer
			out, err := core.Evaluate(w.Doc.Clone(), w.JoinQuery, w.Registry, m.opt)
			if err != nil {
				return t, err
			}
			if i == 0 {
				want = len(out.Results)
			} else if len(out.Results) != want {
				return t, fmt.Errorf("E7: mode %s changed the results", m.name)
			}
			t.Rows = append(t.Rows, []string{
				itoa(hotels), m.name,
				ms(out.Stats.DetectTime), itoa(out.Stats.RelevanceQueries),
				itoa(out.Stats.CallsInvoked), itoa(len(out.Results)),
			})
		}
	}
	return t, nil
}

// E8 runs the engine against real HTTP services on the loopback
// interface: the implementation check of Section 8.
func E8(s Scale) (Table, error) {
	t := Table{
		ID:      "E8",
		Title:   "end-to-end over HTTP (loopback, server sleeps 2ms/call)",
		Columns: []string{"hotels", "strategy", "http-calls", "wall-time", "results"},
	}
	for _, hotels := range s.E8Sizes {
		spec := workload.DefaultSpec()
		spec.Hotels = hotels
		spec.HiddenHotels = hotels / 5
		spec.PushCapable = true
		spec.Latency = 2 * time.Millisecond
		w := workload.Hotels(spec)
		srv := httptest.NewServer(soap.NewServer(w.Registry, true))
		client := &soap.Client{BaseURL: srv.URL}
		reg, err := client.RegistryFor()
		if err != nil {
			srv.Close()
			return t, err
		}
		for _, opt := range []core.Options{
			{Strategy: core.NaiveFixpoint},
			{Strategy: core.LazyNFQTyped, Schema: w.Schema, Push: true, Layering: true},
		} {
			opt.Clock = service.NewWallClock(false)
			opt.Metrics, opt.Tracer = s.Metrics, s.Tracer
			start := time.Now()
			out, err := core.Evaluate(w.Doc.Clone(), w.Query, reg, opt)
			if err != nil {
				srv.Close()
				return t, err
			}
			if len(out.Results) != w.ExpectedResults {
				srv.Close()
				return t, fmt.Errorf("E8: %v got %d results, want %d",
					opt.Strategy, len(out.Results), w.ExpectedResults)
			}
			t.Rows = append(t.Rows, []string{
				itoa(hotels), opt.Strategy.String(),
				itoa(out.Stats.CallsInvoked),
				ms(time.Since(start)), itoa(len(out.Results)),
			})
		}
		srv.Close()
	}
	return t, nil
}

// E9 sweeps the injected fault rate and compares naive against lazy
// evaluation under a best-effort retry policy: laziness pays twice under
// faults, because every pruned call is also a call that can neither fail
// nor burn retry backoff. Each run must still converge to the fault-free
// result set.
func E9(s Scale) (Table, error) {
	t := Table{
		ID:      "E9",
		Title:   "fault-rate sweep: naive vs lazy, best-effort with retries",
		Columns: []string{"fault-rate", "strategy", "calls", "retries", "failed", "virt-time", "results"},
	}
	retry := core.RetryPolicy{
		MaxAttempts: 25, Backoff: time.Millisecond,
		MaxBackoff: 50 * time.Millisecond, Jitter: 0.5, Seed: 9,
	}
	strategies := []core.Options{
		{Strategy: core.NaiveFixpoint},
		{Strategy: core.LazyNFQ, Layering: true, Parallel: true},
	}
	for _, rate := range s.E9Rates {
		spec := workload.DefaultSpec()
		w := workload.Hotels(spec)
		for _, opt := range strategies {
			reg := w.Registry
			if rate > 0 {
				faults := service.NewFaults(service.FaultSpec{
					Seed: 9, ErrorRate: rate, TimeoutRate: rate / 4,
				})
				faults.Instrument(s.Metrics)
				reg = faults.Wrap(w.Registry)
			}
			opt.Retry = retry
			opt.Failure = core.BestEffort
			opt.Metrics, opt.Tracer = s.Metrics, s.Tracer
			out, err := core.Evaluate(w.Doc.Clone(), w.Query, reg, opt)
			if err != nil {
				return t, err
			}
			if len(out.Failures) != 0 || !out.Complete {
				return t, fmt.Errorf("E9: %v at rate %.2f gave up on %d calls (complete=%t)",
					opt.Strategy, rate, len(out.Failures), out.Complete)
			}
			if len(out.Results) != w.ExpectedResults {
				return t, fmt.Errorf("E9: %v at rate %.2f got %d results, want %d",
					opt.Strategy, rate, len(out.Results), w.ExpectedResults)
			}
			label := opt.Strategy.String()
			if opt.Parallel {
				label += "+par"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f%%", rate*100), label,
				itoa(out.Stats.CallsInvoked), itoa(out.Stats.Retries),
				itoa(out.Stats.FailedCalls),
				ms(out.Stats.VirtualTime), itoa(len(out.Results)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"every run converged to the fault-free result set with zero abandoned calls")
	return t, nil
}
