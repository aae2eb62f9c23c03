// Package plan implements the cost-based invocation planner the
// roadmap's item 4 calls for: each invocation round consults the
// per-service statistics profiles (internal/profile) learned from live
// traffic and decides how the round's batch executes — which worker
// runs which calls (slowest first, balanced by longest-processing-time
// assignment), how wide the pool actually needs to be, whether to ship
// and whether to ship a pushable subquery per service.
//
// Planning never changes what an evaluation computes. The engine-side
// contract (core.InvocationPlanner) only lets a plan reorder and resize
// work: responses are applied in member order after the pool drains and
// a batch is charged its slowest member either way, so results, Stats
// and trace events are bit-identical with the planner on or off — the
// differential tests in this package pin that across seeds, widths and
// injected faults. A cold planner (no profiles yet) assigns every
// service the same uniform prior cost, which collapses its schedule to
// the engine's static striped assignment.
package plan

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/telemetry"
)

// DefaultMinSamples is how many observed wire calls a service profile
// needs before the planner trusts it over the uniform prior — and how
// many fruitless push attempts it takes to veto pushing to a service.
const DefaultMinSamples = 3

// uniformPrior is the cost assumed for a service with no (or too few)
// observations. Its absolute value is irrelevant; what matters is that
// it is equal across unprofiled services, so a cold planner has no
// grounds to deviate from the static schedule.
const uniformPrior = 10 * time.Millisecond

// refreshEvery bounds how stale the cached profile snapshot may get on
// the sequential path, where AllowPush is consulted without a
// surrounding PlanBatch (which always refreshes).
const refreshEvery = 32

// Options configures a CostPlanner.
type Options struct {
	// MinSamples is the observation threshold for trusting a profile
	// (0 means DefaultMinSamples).
	MinSamples int
}

// PlanStats are the planner's cumulative decision counters, surfaced
// under -stats alongside the engine's own numbers.
type PlanStats struct {
	// Batches counts PlanBatch consultations.
	Batches int
	// Reorders counts batches scheduled in a non-static order.
	Reorders int
	// WidthTrims counts batches run on fewer workers than offered.
	WidthTrims int
	// PushVetoes counts subqueries withheld from push-deaf services.
	PushVetoes int
}

// estimate is one service's planning view, derived from its profile.
type estimate struct {
	cost         time.Duration
	selectivity  float64
	calls        uint64
	faultRate    float64
	pushAttempts uint64
	pushed       uint64
	profiled     bool
}

// CostPlanner is a core.InvocationPlanner over live service profiles.
// It is safe for concurrent use, so the session layer can share one
// planner (and one profiler) across every evaluation it serves.
type CostPlanner struct {
	prof *profile.Profiler
	opt  Options

	mu      sync.Mutex
	est     map[string]estimate
	sinceRF int
	stats   PlanStats

	metBatches  *telemetry.Counter
	metReorders *telemetry.Counter
	metTrims    *telemetry.Counter
	metVetoes   *telemetry.Counter
	metSeconds  *telemetry.Histogram
}

var _ core.InvocationPlanner = (*CostPlanner)(nil)

// New returns a planner reading from prof. A nil profiler is valid:
// every service stays at the uniform prior and the planner never
// deviates from the static schedule.
func New(prof *profile.Profiler, opt Options) *CostPlanner {
	if opt.MinSamples <= 0 {
		opt.MinSamples = DefaultMinSamples
	}
	return &CostPlanner{prof: prof, opt: opt, est: map[string]estimate{}}
}

// Instrument resolves the axml_plan_* instruments against reg, so the
// planner's decisions show up on /metrics. Optional; without it the
// planner only keeps its own PlanStats.
func (p *CostPlanner) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p.metBatches = reg.Counter(telemetry.MetricPlanBatches)
	p.metReorders = reg.Counter(telemetry.MetricPlanReorders)
	p.metTrims = reg.Counter(telemetry.MetricPlanWidthTrims)
	p.metVetoes = reg.Counter(telemetry.MetricPlanPushVetoes)
	p.metSeconds = reg.Histogram(telemetry.MetricPlanSeconds)
}

// Stats returns the cumulative decision counters.
func (p *CostPlanner) Stats() PlanStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// refreshLocked re-derives the estimate table from the profiler. A
// service is trusted once it has MinSamples wire calls: its cost is the
// P95 effective latency inflated by the fault rate (a flaky service
// costs its retries too). Below the threshold it keeps the uniform
// prior.
func (p *CostPlanner) refreshLocked() {
	p.sinceRF = 0
	if p.prof == nil {
		return
	}
	for _, s := range p.prof.Snapshot() {
		e := estimate{
			cost:         uniformPrior,
			selectivity:  s.Selectivity,
			calls:        s.Calls,
			faultRate:    s.FaultRate,
			pushAttempts: s.PushAttempts,
			pushed:       s.Pushed,
		}
		if s.Calls >= uint64(p.opt.MinSamples) {
			e.cost = time.Duration(float64(s.P95) * (1 + s.FaultRate))
			e.profiled = true
		}
		p.est[s.Service] = e
	}
}

// estimateLocked returns a service's planning view, defaulting cold
// services to the uniform prior.
func (p *CostPlanner) estimateLocked(service string) estimate {
	if e, ok := p.est[service]; ok {
		return e
	}
	return estimate{cost: uniformPrior}
}

// PlanBatch schedules one batch: members are ranked most-expensive
// first (ties broken toward lower selectivity, then batch order) and
// assigned greedily to the least-loaded worker queue — the classic
// longest-processing-time heuristic, which a batch charged max-member
// cost rewards directly. The width is then trimmed to the smallest pool
// that still achieves the same predicted makespan, so equal-cost tails
// do not fan out over idle workers.
func (p *CostPlanner) PlanBatch(calls []core.PlanCall, width int) core.BatchPlan {
	t0 := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refreshLocked()
	p.stats.Batches++
	p.metBatches.Inc()
	if width < 1 {
		width = 1
	}
	n := len(calls)
	costs := make([]time.Duration, n)
	ests := make([]estimate, n)
	for i, c := range calls {
		ests[i] = p.estimateLocked(c.Service)
		costs[i] = ests[i].cost
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if costs[ia] != costs[ib] {
			return costs[ia] > costs[ib]
		}
		return ests[ia].selectivity < ests[ib].selectivity
	})
	assign := func(w int) ([][]int, time.Duration) {
		queues := make([][]int, w)
		loads := make([]time.Duration, w)
		for _, i := range order {
			best := 0
			for q := 1; q < w; q++ {
				if loads[q] < loads[best] {
					best = q
				}
			}
			queues[best] = append(queues[best], i)
			loads[best] += costs[i]
		}
		makespan := loads[0]
		for _, l := range loads[1:] {
			if l > makespan {
				makespan = l
			}
		}
		return queues, makespan
	}
	queues, makespan := assign(width)
	chosen := width
	for w := 1; w < width; w++ {
		if q, m := assign(w); m <= makespan {
			queues, makespan, chosen = q, m, w
			break
		}
	}
	if chosen < width {
		p.stats.WidthTrims++
		p.metTrims.Inc()
	}
	reordered := false
	for i, o := range order {
		if i != o {
			reordered = true
			break
		}
	}
	if reordered {
		p.stats.Reorders++
		p.metReorders.Inc()
	}
	bp := core.BatchPlan{
		Width:  chosen,
		Queues: queues,
		Attrs:  p.rationaleLocked(calls, ests, chosen, width, makespan, reordered),
	}
	p.metSeconds.Observe(time.Since(t0))
	return bp
}

// rationaleLocked renders the cost inputs behind a plan as span attrs:
// one line per distinct service in the batch plus the schedule summary,
// so -explain answers "why this order and width".
func (p *CostPlanner) rationaleLocked(calls []core.PlanCall, ests []estimate, chosen, offered int, makespan time.Duration, reordered bool) []telemetry.Attr {
	attrs := []telemetry.Attr{
		{Key: "makespan", Value: makespan.String()},
		{Key: "reordered", Value: strconv.FormatBool(reordered)},
	}
	if chosen < offered {
		attrs = append(attrs, telemetry.Attr{Key: "width_trimmed_from", Value: strconv.Itoa(offered)})
	}
	seen := map[string]bool{}
	const maxLines = 12
	for i, c := range calls {
		if seen[c.Service] {
			continue
		}
		seen[c.Service] = true
		if len(seen) > maxLines {
			attrs = append(attrs, telemetry.Attr{Key: "services_elided", Value: strconv.Itoa(countDistinct(calls) - maxLines)})
			break
		}
		e := ests[i]
		src := "prior"
		if e.profiled {
			src = "profile"
		}
		attrs = append(attrs, telemetry.Attr{
			Key: "svc:" + c.Service,
			Value: fmt.Sprintf("cost=%v calls=%d fault=%.2f sel=%.1f src=%s",
				e.cost, e.calls, e.faultRate, e.selectivity, src),
		})
	}
	return attrs
}

func countDistinct(calls []core.PlanCall) int {
	seen := map[string]bool{}
	for _, c := range calls {
		seen[c.Service] = true
	}
	return len(seen)
}

// AllowPush vetoes shipping subqueries to a service that provably
// ignores them: at least MinSamples successful invocations carried a
// subquery and not one was answered with bindings. The response of such
// a service is identical with or without the subquery, so the veto only
// saves serialization and wire bytes — it can never change a result.
func (p *CostPlanner) AllowPush(service string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sinceRF++
	if p.sinceRF >= refreshEvery || len(p.est) == 0 {
		p.refreshLocked()
	}
	e, ok := p.est[service]
	if !ok || e.pushAttempts < uint64(p.opt.MinSamples) || e.pushed > 0 {
		return true
	}
	p.stats.PushVetoes++
	p.metVetoes.Inc()
	return false
}

// AdmitSpeculative admits every call of a speculative batch; the engine
// no longer asks.
func (p *CostPlanner) AdmitSpeculative([]core.PlanCall) []int { return nil }
