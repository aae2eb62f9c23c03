// Package telemetry is the observability layer of the AXML engine: a
// metrics registry (counters, gauges, log-scale latency histograms with
// zero-allocation hot-path updates and Prometheus-style exposition), a
// hierarchical span tracer with a bounded in-memory ring buffer and an
// optional JSONL sink, an explain-profile renderer, and HTTP handlers
// for live introspection (/metrics, /debug/trace, /debug/pprof).
//
// The paper's central claims are quantitative — lazy pruning cuts
// evaluation time "by orders of magnitude" (Sections 1, 8) — and this
// package is how a running engine proves it: every evaluation can emit
// a span tree (evaluate → layer → round → detect/invoke) whose
// per-phase times sum to the total, and every serving process can be
// scraped for tail latencies.
//
// Metric names are a stable interface: see the constants below and the
// table in doc/OBSERVABILITY.md. Renaming a metric is a breaking change.
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stable metric names. Instrumented packages (core, service, soap)
// register through these constants so the exposition surface cannot
// drift silently; doc/OBSERVABILITY.md documents each.
const (
	// Engine (internal/core).
	MetricEvaluations          = "axml_evaluations_total"
	MetricCallsInvoked         = "axml_calls_invoked_total"
	MetricCallsPruned          = "axml_calls_pruned_total"
	MetricRetries              = "axml_retries_total"
	MetricGiveUps              = "axml_giveups_total"
	MetricPushedCalls          = "axml_pushed_calls_total"
	MetricEvalSeconds          = "axml_eval_seconds"
	MetricDetectSeconds        = "axml_detect_seconds"
	MetricInvokeWallSeconds    = "axml_invoke_wall_seconds"
	MetricInvokeVirtualSeconds = "axml_invoke_virtual_seconds"

	// Response cache (internal/service.Cache).
	MetricCacheHits        = "axml_cache_hits_total"
	MetricCacheMisses      = "axml_cache_misses_total"
	MetricCacheCoalesced   = "axml_cache_coalesced_total"
	MetricCacheExpirations = "axml_cache_expirations_total"
	MetricCacheEntries     = "axml_cache_entries"

	// Fault injector (internal/service.Faults).
	MetricFaultsInjected = "axml_faults_injected_total"

	// Multi-tenant query sessions (internal/session).
	MetricSessionsTotal       = "axml_sessions_total"
	MetricSessionsActive      = "axml_sessions_active"
	MetricSessionsQueued      = "axml_sessions_queued"
	MetricSessionsShed        = "axml_sessions_shed_total"
	MetricSessionsMemo        = "axml_sessions_memo_total"
	MetricSessionsResumed     = "axml_sessions_resumed_total"
	MetricSessionsShapeReused = "axml_sessions_shape_reused_total"
	MetricSessionsCancelled   = "axml_sessions_cancelled_total"
	MetricSessionSeconds      = "axml_session_seconds"
	MetricSessionQueueSeconds = "axml_session_queue_seconds"
	MetricSessionWriteSeconds = "axml_session_write_seconds"
	MetricSessionLockWait     = "axml_session_lock_wait_seconds"
	MetricInvokeInflight      = "axml_invocations_inflight"

	// F-guide lifecycle (internal/core, internal/session). Builds counts
	// the full constructions of the engine and the session (a repository
	// open builds its guide too, counted as an open below), Warm counts
	// engine runs that reused an externally supplied guide, Patches
	// counts incremental ApplyExpansion updates — a restart from the
	// repository shows Warm > 0 with Builds staying at 0.
	MetricGuideBuilds  = "axml_fguide_builds_total"
	MetricGuideWarm    = "axml_fguide_warm_total"
	MetricGuidePatches = "axml_fguide_patches_total"

	// Memo tables (internal/core): evaluators that started on the table an
	// earlier evaluation of their query shape handed back, not a new one.
	MetricMemoTablesReused = "axml_memo_tables_reused_total"

	// Persistent repository (internal/repo). WarmOpens counts opens
	// that rewrote nothing, Repairs the manifests rewritten by the
	// others, Corruptions the damaged parts found.
	MetricRepoWarmOpens   = "axml_repo_warm_opens_total"
	MetricRepoRepairs     = "axml_repo_index_repairs_total"
	MetricRepoCorruptions = "axml_repo_corruptions_total"

	// HTTP transport (internal/soap).
	MetricHTTPRequests       = "axml_http_requests_total"
	MetricHTTPFaults         = "axml_http_faults_total"
	MetricHTTPHandlerSeconds = "axml_http_handler_seconds"
	MetricHTTPClientSeconds  = "axml_http_client_seconds"

	// Cost-based invocation planner (internal/plan). Batches counts
	// batches planned; Reorders counts batches whose execution schedule
	// differs from static document-order striping; WidthTrims counts
	// batches run below the requested pool width; PushVetoes counts
	// calls whose subquery was withheld from a provably push-ignoring
	// service. Seconds is planning time itself.
	MetricPlanBatches    = "axml_plan_batches_total"
	MetricPlanReorders   = "axml_plan_reorders_total"
	MetricPlanWidthTrims = "axml_plan_width_trims_total"
	MetricPlanPushVetoes = "axml_plan_push_vetoes_total"
	MetricPlanSeconds    = "axml_plan_seconds"

	// Tracer ring evictions (Tracer.InstrumentDrops) — non-zero means
	// /debug/trace and -explain are showing a truncated window.
	MetricSpansDropped = "axml_spans_dropped_total"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; updates are a single atomic add.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (e.g. current cache
// entries). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistBuckets is the number of log-scale histogram buckets. Bucket 0
// holds sub-microsecond (and zero) observations; bucket i (1 ≤ i <
// HistBuckets-1) holds durations d with 2^(i-1)µs ≤ d < 2^i µs; the
// last bucket is the overflow (+Inf) bucket. 40 buckets reach 2^38 µs
// ≈ 3.2 days, far past any latency this system charges.
const HistBuckets = 40

// Histogram is a log-scale latency histogram. The zero value is ready
// to use; Observe is a bucket index computation plus three atomic adds
// and never allocates — safe on the engine's hot paths.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // microseconds
	max     atomic.Int64 // microseconds
	buckets [HistBuckets]atomic.Uint64
}

// BucketOf returns the bucket index a duration falls in.
func BucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us <= 0 {
		return 0
	}
	b := bits.Len64(uint64(us))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// BucketBound returns the exclusive upper bound of bucket i (2^i µs);
// the last bucket is unbounded and reports its lower bound.
func BucketBound(i int) time.Duration {
	if i <= 0 {
		return time.Microsecond
	}
	if i >= HistBuckets-1 {
		i = HistBuckets - 2
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.count.Add(1)
	h.sum.Add(us)
	h.buckets[BucketOf(d)].Add(1)
	for {
		old := h.max.Load()
		if us <= old || h.max.CompareAndSwap(old, us) {
			break
		}
	}
}

// Load restores a previously snapshotted state into an empty histogram
// — the service profiler reopens persisted latency profiles through it.
// Loading into a histogram that has already observed values gives the
// sum of both states.
func (h *Histogram) Load(s HistogramSnapshot) {
	if h == nil {
		return
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum.Microseconds())
	for i := 0; i < len(s.Buckets) && i < HistBuckets; i++ {
		h.buckets[i].Add(s.Buckets[i])
	}
	us := s.Max.Microseconds()
	for {
		old := h.max.Load()
		if us <= old || h.max.CompareAndSwap(old, us) {
			break
		}
	}
}

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return h.snapshot()
}

// snapshot copies the histogram's state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     time.Duration(h.sum.Load()) * time.Microsecond,
		Max:     time.Duration(h.max.Load()) * time.Microsecond,
		Buckets: make([]uint64, HistBuckets),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count uint64
	// Sum is the total observed duration.
	Sum time.Duration
	// Max is the largest single observation.
	Max time.Duration
	// Buckets holds per-bucket counts (see HistBuckets for the scale).
	Buckets []uint64
}

// Quantile estimates the q-quantile (0 < q ≤ 1) as the upper bound of
// the bucket the rank falls in — a conservative log-scale estimate. The
// top bucket reports Max, and an empty histogram reports 0.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			if i == 0 {
				return 0
			}
			if i == len(s.Buckets)-1 {
				return s.Max
			}
			b := BucketBound(i)
			if s.Max > 0 && b > s.Max {
				return s.Max
			}
			return b
		}
	}
	return s.Max
}

// Mean returns the average observation, or 0 when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Registry is a named collection of metrics. Instruments are created on
// first use and live for the registry's lifetime, so hot paths resolve
// an instrument once and update it with atomics only. A nil *Registry
// is a valid no-op sink: every getter returns nil and the nil
// instruments swallow updates, which is how "telemetry disabled" costs
// a single pointer test.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	extra    []func(io.Writer) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument, for tests and
// JSON export.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteProm renders the registry in the Prometheus text exposition
// format: counters and gauges as single samples, histograms as
// cumulative le-bucketed series with _sum and _count, durations in
// seconds.
func (r *Registry) WriteProm(w io.Writer) error {
	s := r.Snapshot()
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		pf("# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		pf("# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		pf("# TYPE %s histogram\n", name)
		var cum uint64
		for i, n := range h.Buckets {
			cum += n
			if n == 0 && i != len(h.Buckets)-1 {
				continue // keep the exposition compact: only non-empty buckets plus +Inf
			}
			if i == len(h.Buckets)-1 {
				pf("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
			} else {
				pf("%s_bucket{le=%q} %d\n", name, promSeconds(BucketBound(i)), cum)
			}
		}
		pf("%s_sum %s\n", name, promSeconds(h.Sum))
		pf("%s_count %d\n", name, h.Count)
	}
	if err != nil || r == nil {
		return err
	}
	r.mu.RLock()
	extra := append([]func(io.Writer) error(nil), r.extra...)
	r.mu.RUnlock()
	for _, fn := range extra {
		if err := fn(w); err != nil {
			return err
		}
	}
	return nil
}

// AddPromWriter registers an extra exposition writer that WriteProm
// invokes after the registry's own series. The flat registry holds
// unlabeled series only; subsystems that expose labeled families (the
// per-service profiler's axml_service_* series) append themselves here
// so one /metrics scrape covers everything.
func (r *Registry) AddPromWriter(fn func(io.Writer) error) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.extra = append(r.extra, fn)
	r.mu.Unlock()
}

// promSeconds formats a duration as seconds for Prometheus samples.
func promSeconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
