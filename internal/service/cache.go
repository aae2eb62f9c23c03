package service

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// CacheSpec configures a response memo cache.
type CacheSpec struct {
	// TTL bounds how long a stored response stays servable; 0 means
	// forever. AXML service results are quasi-static between evaluations
	// (the paper's repositories re-fetch on a validity horizon), so the
	// default is aggressive reuse; deployments fronting live providers
	// set a TTL.
	TTL time.Duration
	// MaxEntries bounds the number of cached responses; 0 means
	// unbounded. Eviction is FIFO — the workload repeats identical calls
	// in bursts, so recency tracking buys little over insertion order.
	MaxEntries int
	// Now overrides the time source for TTL decisions; nil means
	// time.Now. Tests use it to age entries deterministically.
	Now func() time.Time
}

// CacheStats counts what a cache did.
type CacheStats struct {
	// Hits counts invocations served from the cache without touching the
	// wrapped registry — no latency, no transfer, no fault exposure.
	Hits int
	// Misses counts invocations that went through to the wrapped
	// registry (successful ones are then stored).
	Misses int
	// Coalesced counts invocations that piggybacked on an identical
	// in-flight call instead of issuing their own (singleflight).
	Coalesced int
	// Expired counts entries dropped because their TTL lapsed.
	Expired int
	// Evictions counts entries dropped to respect MaxEntries.
	Evictions int
}

// HitRate returns the fraction of lookups served locally (hits plus
// coalesced waits over all lookups), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Coalesced + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Cache memoises successful service responses keyed by (service name,
// canonical parameter forest, pushed-subquery fingerprint), with
// singleflight deduplication of identical concurrent invocations. AXML
// documents repeat calls — the same GetTemp("Paris") embedded at many
// nodes — and every repeat served from the cache skips the entire
// latency/retry path.
//
// Layering (it wraps a Registry exactly like Faults does):
//
//	reg := cache.Wrap(faults.Wrap(base))
//
// puts the cache next to the engine: a hit bypasses fault injection and
// network cost, a miss runs the full flaky path, and only *successful*
// classed responses are ever stored — a fault is never cached, so the
// engine's RetryPolicy sees every failure it would see uncached, and a
// best-effort evaluation can never be fed a remembered failure (or mask a
// fresh one) by the cache. Under singleflight, callers coalesced onto a
// failing invocation all receive that invocation's fault, exactly as if
// they had shared the wire — unless it failed because its own caller left (a
// context that ended): then one of them invokes in its place.
//
// Cache is safe for concurrent use. The off switch is wiring: evaluate
// against the unwrapped registry (cmd flags expose this as -no-cache).
type Cache struct {
	spec CacheSpec

	mu       sync.Mutex
	entries  map[string]*cacheEntry
	order    []string // insertion order, for FIFO eviction
	inflight map[string]*flight
	stats    CacheStats
	met      cacheMetrics
	onEvent  func(service string, event CacheEvent)
}

// CacheEvent classifies one cache lookup outcome for observers.
type CacheEvent int

// Cache lookup outcomes reported to Notify observers.
const (
	CacheHit CacheEvent = iota
	CacheMiss
	CacheCoalesce
)

// cacheMetrics mirrors CacheStats into a telemetry registry, plus a live
// entry-count gauge. All fields are nil until Instrument is called; nil
// instruments swallow updates.
type cacheMetrics struct {
	hits        *telemetry.Counter
	misses      *telemetry.Counter
	coalesced   *telemetry.Counter
	evictions   *telemetry.Counter
	expirations *telemetry.Counter
	entries     *telemetry.Gauge
}

type cacheEntry struct {
	resp     Response // master copy; every hit returns a clone
	storedAt time.Time
}

// flight is one in-progress invocation other callers may wait on.
type flight struct {
	done chan struct{}
	err  error
	// abandoned: err is the end of the leader's own context, not the
	// service's answer — it says nothing to a follower still being waited for.
	abandoned bool
}

// NewCache returns an empty cache.
func NewCache(spec CacheSpec) *Cache {
	return &Cache{
		spec:     spec,
		entries:  map[string]*cacheEntry{},
		inflight: map[string]*flight{},
	}
}

// Instrument routes the cache's counters through a telemetry registry in
// addition to CacheStats: axml_cache_{hits,misses,coalesced,evictions,
// expirations}_total plus the axml_cache_entries gauge. Call it before
// the cache serves traffic; a nil registry is a no-op.
func (c *Cache) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met = cacheMetrics{
		hits:        reg.Counter(telemetry.MetricCacheHits),
		misses:      reg.Counter(telemetry.MetricCacheMisses),
		coalesced:   reg.Counter(telemetry.MetricCacheCoalesced),
		evictions:   reg.Counter(telemetry.MetricCacheEvictions),
		expirations: reg.Counter(telemetry.MetricCacheExpirations),
		entries:     reg.Gauge(telemetry.MetricCacheEntries),
	}
	c.met.entries.Set(int64(len(c.entries)))
}

// Notify registers a per-lookup observer (the service profiler feeds
// per-service hit rates from it). fn runs under the cache lock on every
// hit/miss/coalesce and must be fast and must not call back into the
// cache. Call it before the cache serves traffic.
func (c *Cache) Notify(fn func(service string, event CacheEvent)) {
	c.mu.Lock()
	c.onEvent = fn
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Reset drops every entry and zeroes the counters. In-flight invocations
// are unaffected (their waiters still get the shared response; it is just
// not stored).
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*cacheEntry{}
	c.order = nil
	c.stats = CacheStats{}
	c.met.entries.Set(0)
}

// Len returns the number of stored responses.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Wrap returns a registry proxying reg through the cache. The wrapped
// services advertise the same latency and push capability; their
// invocations consult the cache first and delegate to reg on a miss.
func (c *Cache) Wrap(reg *Registry) *Registry {
	return reg.Proxy(func(inner *Service, next Invoker) Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (Response, error) {
			if !inner.CanPush {
				pushed = nil
			}
			return c.invoke(ctx, next, inner.Name, params, pushed)
		}
	})
}

// Key renders the canonical cache identity of an invocation: the service
// name, each parameter tree's canonical serialisation, and the pushed
// subquery's fingerprint. Two calls with structurally identical parameters
// and the same pushed query share a key wherever they sit in the document.
// The bool is false when the parameters cannot be serialised; such calls
// bypass the cache.
func Key(name string, params []*tree.Node, pushed *pattern.Pattern) (string, bool) {
	size := len(name) + 2
	rendered := make([][]byte, len(params))
	for i, p := range params {
		b, err := tree.Marshal(p)
		if err != nil {
			return "", false
		}
		rendered[i] = b
		size += len(b) + 1
	}
	var sb strings.Builder
	sb.Grow(size + 64)
	sb.WriteString(name)
	for _, b := range rendered {
		sb.WriteByte(0)
		sb.Write(b)
	}
	sb.WriteByte(0)
	if pushed != nil {
		sb.WriteString(pushed.String())
	}
	return sb.String(), true
}

func (c *Cache) now() time.Time {
	if c.spec.Now != nil {
		return c.spec.Now()
	}
	return time.Now()
}

func (c *Cache) invoke(ctx context.Context, next Invoker, name string, params []*tree.Node, pushed *pattern.Pattern) (Response, error) {
	key, ok := Key(name, params, pushed)
	if !ok {
		return next(ctx, params, pushed)
	}
	// Each invocation lands in exactly one of Hits, Coalesced or Misses:
	// a waiter that loops back to read the stored entry is already
	// counted as Coalesced and must not also count as a Hit.
	coalesced := false
	for {
		c.mu.Lock()
		if e := c.entries[key]; e != nil {
			if c.spec.TTL > 0 && c.now().Sub(e.storedAt) > c.spec.TTL {
				c.dropLocked(key)
				c.stats.Expired++
				c.met.expirations.Inc()
			} else {
				if !coalesced {
					c.stats.Hits++
					c.met.hits.Inc()
					if c.onEvent != nil {
						c.onEvent(name, CacheHit)
					}
				}
				resp := cloneResponse(e.resp)
				c.mu.Unlock()
				// A hit is served locally: nothing crosses the wire, so
				// it carries no latency and no transfer bytes.
				resp.Latency = 0
				resp.Bytes = 0
				return resp, nil
			}
		}
		if f := c.inflight[key]; f != nil {
			if !coalesced {
				coalesced = true
				c.stats.Coalesced++
				c.met.coalesced.Inc()
				if c.onEvent != nil {
					c.onEvent(name, CacheCoalesce)
				}
			}
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return Response{}, ctx.Err()
			}
			if f.err != nil && !f.abandoned {
				return Response{}, f.err
			}
			// The leader stored the response (success path); loop to
			// serve it from the table. If it was evicted in between — or
			// the leader's caller hung up on it — the retry becomes a
			// fresh leader: still correct, just rarer.
			continue
		}
		if !coalesced {
			c.stats.Misses++
			c.met.misses.Inc()
			if c.onEvent != nil {
				c.onEvent(name, CacheMiss)
			}
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		resp, err := next(ctx, params, pushed)
		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil {
			master := cloneResponse(resp)
			// The master must not remember the remote span subtree: a
			// replayed response did no remote work, and every hit must
			// serve identical bytes regardless of which call populated
			// the entry.
			master.RemoteTrace = nil
			c.storeLocked(key, master)
		}
		c.mu.Unlock()
		f.err, f.abandoned = err, err != nil && ctx.Err() != nil
		close(f.done)
		if err != nil {
			return Response{}, err
		}
		return resp, nil
	}
}

// storeLocked inserts a master copy and enforces MaxEntries FIFO.
func (c *Cache) storeLocked(key string, resp Response) {
	if _, exists := c.entries[key]; !exists {
		c.order = append(c.order, key)
	}
	c.entries[key] = &cacheEntry{resp: resp, storedAt: c.now()}
	for c.spec.MaxEntries > 0 && len(c.entries) > c.spec.MaxEntries {
		oldest := c.order[0]
		c.dropLocked(oldest)
		c.stats.Evictions++
		c.met.evictions.Inc()
	}
	c.met.entries.Set(int64(len(c.entries)))
}

// dropLocked removes one key from the table and the FIFO order.
func (c *Cache) dropLocked(key string) {
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.met.entries.Set(int64(len(c.entries)))
}

// cloneResponse deep-copies the forest so that callers can splice their
// copy into a document (which mutates parents and assigns IDs) without
// corrupting the cached master.
func cloneResponse(r Response) Response {
	r.Forest = tree.CloneForest(r.Forest)
	return r
}

// Keys returns the stored keys, sorted, for tests and tooling.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
