package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/tree"
)

// cacheWorld builds a registry with one counting service returning a
// two-node forest derived from its first parameter.
func cacheWorld(latency time.Duration) (*Registry, *int) {
	calls := 0
	reg := NewRegistry()
	reg.Register(&Service{
		Name:    "GetTemp",
		Latency: latency,
		Handler: func(params []*tree.Node) ([]*tree.Node, error) {
			calls++
			city := "?"
			if len(params) > 0 {
				city = params[0].Text()
			}
			e := tree.NewElement("temp")
			e.Append(tree.NewText(city))
			return []*tree.Node{e, tree.NewText("C")}, nil
		},
	})
	return reg, &calls
}

func paris() []*tree.Node { return []*tree.Node{tree.NewText("Paris")} }

func TestCacheHitSkipsWireAndHandler(t *testing.T) {
	base, calls := cacheWorld(50 * time.Millisecond)
	c := NewCache(CacheSpec{})
	reg := c.Wrap(base)

	first, err := reg.Invoke("GetTemp", paris(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Latency != 50*time.Millisecond || first.Bytes == 0 {
		t.Fatalf("miss should carry real latency and bytes, got %v/%d", first.Latency, first.Bytes)
	}
	second, err := reg.Invoke("GetTemp", paris(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if *calls != 1 {
		t.Fatalf("handler ran %d times, want 1", *calls)
	}
	if second.Latency != 0 || second.Bytes != 0 {
		t.Fatalf("hit should be free: latency %v bytes %d", second.Latency, second.Bytes)
	}
	if len(second.Forest) != 2 || !second.Forest[0].Equal(first.Forest[0]) {
		t.Fatalf("hit forest differs from the original response")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if hr := c.Stats().HitRate(); hr != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", hr)
	}
}

// TestCacheHitForestsAreIsolated splices a hit's forest into a document
// (which re-parents nodes and assigns IDs) and checks later hits are
// untouched clones.
func TestCacheHitForestsAreIsolated(t *testing.T) {
	base, _ := cacheWorld(0)
	c := NewCache(CacheSpec{})
	reg := c.Wrap(base)

	reg.Invoke("GetTemp", paris(), nil)
	hit1, _ := reg.Invoke("GetTemp", paris(), nil)

	root := tree.NewElement("r")
	call := root.Append(tree.NewCall("GetTemp"))
	doc := tree.NewDocument(root)
	doc.ReplaceCall(call, hit1.Forest)

	hit2, _ := reg.Invoke("GetTemp", paris(), nil)
	for _, n := range hit2.Forest {
		if n.Parent != nil || n.ID != 0 {
			t.Fatalf("cached master leaked document state: parent=%v id=%d", n.Parent, n.ID)
		}
	}
	if !hit2.Forest[0].Equal(hit1.Forest[0]) {
		t.Fatal("hit forests diverged structurally")
	}
}

func TestCacheKeyCanonicalisation(t *testing.T) {
	p := pattern.MustParse(`/temp/$V -> $V`)
	k1, ok1 := Key("GetTemp", paris(), nil)
	k2, ok2 := Key("GetTemp", paris(), nil)
	k3, _ := Key("GetTemp", []*tree.Node{tree.NewText("Oslo")}, nil)
	k4, _ := Key("GetTemp", paris(), p)
	k5, _ := Key("GetRain", paris(), nil)
	if !ok1 || !ok2 {
		t.Fatal("serialisable params must produce a key")
	}
	if k1 != k2 {
		t.Fatal("identical invocations must share a key")
	}
	for name, other := range map[string]string{"params": k3, "pushed": k4, "service": k5} {
		if other == k1 {
			t.Fatalf("key ignores the %s component", name)
		}
	}
	// Structurally identical parameter trees share a key wherever the
	// nodes came from.
	e1 := tree.NewElement("city")
	e1.Append(tree.NewText("Paris"))
	e2 := tree.NewElement("city")
	e2.Append(tree.NewText("Paris"))
	ka, _ := Key("GetTemp", []*tree.Node{e1}, nil)
	kb, _ := Key("GetTemp", []*tree.Node{e2}, nil)
	if ka != kb {
		t.Fatal("structurally equal params must share a key")
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	base, calls := cacheWorld(0)
	c := NewCache(CacheSpec{TTL: time.Minute, Now: func() time.Time { return now }})
	reg := c.Wrap(base)

	reg.Invoke("GetTemp", paris(), nil)
	now = now.Add(30 * time.Second)
	reg.Invoke("GetTemp", paris(), nil) // still fresh
	if *calls != 1 {
		t.Fatalf("fresh entry re-fetched: %d handler calls", *calls)
	}
	now = now.Add(31 * time.Second) // 61s past storage
	reg.Invoke("GetTemp", paris(), nil)
	if *calls != 2 {
		t.Fatalf("expired entry served: %d handler calls, want 2", *calls)
	}
	if st := c.Stats(); st.Expired != 1 || st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want expired=1 misses=2 hits=1", st)
	}
}

// TestCacheTTLExpiryOnVirtualClock wires the engine's clock into the
// cache the way axmlquery does (CacheSpec.Now = ClockNow(clock)): TTLs
// then lapse as simulated rounds accumulate, with no wall time passing.
func TestCacheTTLExpiryOnVirtualClock(t *testing.T) {
	clock := &SimClock{}
	base, calls := cacheWorld(0)
	c := NewCache(CacheSpec{TTL: time.Minute, Now: ClockNow(clock)})
	reg := c.Wrap(base)

	reg.Invoke("GetTemp", paris(), nil)
	clock.Advance(30 * time.Second)
	reg.Invoke("GetTemp", paris(), nil) // still fresh on the virtual timeline
	if *calls != 1 {
		t.Fatalf("fresh entry re-fetched: %d handler calls", *calls)
	}
	clock.Advance(31 * time.Second) // 61 virtual seconds past storage
	reg.Invoke("GetTemp", paris(), nil)
	if *calls != 2 {
		t.Fatalf("entry did not expire on the virtual clock: %d handler calls, want 2", *calls)
	}
	if st := c.Stats(); st.Expired != 1 || st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want expired=1 misses=2 hits=1", st)
	}
}

func TestCacheFIFOEviction(t *testing.T) {
	base, calls := cacheWorld(0)
	c := NewCache(CacheSpec{MaxEntries: 2})
	reg := c.Wrap(base)

	for _, city := range []string{"Paris", "Oslo", "Rome"} {
		reg.Invoke("GetTemp", []*tree.Node{tree.NewText(city)}, nil)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// Paris was first in, so it went first out.
	reg.Invoke("GetTemp", paris(), nil)
	if *calls != 4 {
		t.Fatalf("evicted Paris should re-fetch: %d handler calls, want 4", *calls)
	}
	// Oslo and Rome survive.
	reg.Invoke("GetTemp", []*tree.Node{tree.NewText("Rome")}, nil)
	if *calls != 4 {
		t.Fatalf("Rome should still be cached: %d handler calls", *calls)
	}
}

// TestCacheSingleflight fires many identical concurrent invocations while
// the first one is deliberately stalled inside the handler: exactly one
// handler execution serves everybody.
func TestCacheSingleflight(t *testing.T) {
	const followers = 8
	entered := make(chan struct{})
	release := make(chan struct{})
	count := 0

	reg := NewRegistry()
	reg.Register(&Service{
		Name: "Slow",
		Handler: func(params []*tree.Node) ([]*tree.Node, error) {
			count++
			close(entered)
			<-release
			return []*tree.Node{tree.NewText("v")}, nil
		},
	})
	c := NewCache(CacheSpec{})
	cached := c.Wrap(reg)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cached.Invoke("Slow", nil, nil)
	}()
	<-entered // the leader is now stalled inside the handler
	results := make(chan error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cached.Invoke("Slow", nil, nil)
			results <- err
		}()
	}
	close(release)
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("follower failed: %v", err)
		}
	}
	if count != 1 {
		t.Fatalf("handler ran %d times under identical concurrent load, want 1", count)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != followers {
		t.Fatalf("stats = %+v, want 1 miss and %d hits+coalesced", st, followers)
	}
}

// TestCacheNeverStoresFaults layers the cache over the fault injector the
// way the engine does — cache.Wrap(faults.Wrap(base)) — and checks a
// retrying caller sees every failure it would see uncached, with only the
// eventual success stored.
func TestCacheNeverStoresFaults(t *testing.T) {
	base, handlerCalls := cacheWorld(10 * time.Millisecond)
	faults := NewFaults(FaultSpec{FailFirst: 2})
	c := NewCache(CacheSpec{})
	reg := c.Wrap(faults.Wrap(base))

	for attempt := 1; attempt <= 2; attempt++ {
		_, err := reg.Invoke("GetTemp", paris(), nil)
		if err == nil {
			t.Fatalf("attempt %d: fault swallowed by the cache", attempt)
		}
		if !Retryable(err) {
			t.Fatalf("attempt %d: injected transient fault lost its class: %v", attempt, err)
		}
		if c.Len() != 0 {
			t.Fatalf("attempt %d: a failure was cached", attempt)
		}
	}
	if _, err := reg.Invoke("GetTemp", paris(), nil); err != nil {
		t.Fatalf("third attempt should succeed: %v", err)
	}
	if _, err := reg.Invoke("GetTemp", paris(), nil); err != nil {
		t.Fatal(err)
	}
	if *handlerCalls != 1 {
		t.Fatalf("handler ran %d times, want 1 (two faulted attempts never reached it)", *handlerCalls)
	}
	if got := faults.Stats().Invocations; got != 3 {
		t.Fatalf("injector saw %d invocations, want 3 (the fourth was a cache hit)", got)
	}
	if st := c.Stats(); st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want misses=3 hits=1", st)
	}
}

// TestCacheCoalescedWaitersShareFault: callers coalesced onto a failing
// leader receive the leader's fault, and nothing is stored.
func TestCacheCoalescedWaitersShareFault(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	reg := NewRegistry()
	first := true
	reg.Register(&Service{
		Name: "Flaky",
		Handler: func(params []*tree.Node) ([]*tree.Node, error) {
			if first {
				first = false
				close(entered)
				<-release
				return nil, &Fault{Service: "Flaky", Class: Transient, Msg: "boom"}
			}
			return []*tree.Node{tree.NewText("ok")}, nil
		},
	})
	c := NewCache(CacheSpec{})
	cached := c.Wrap(reg)

	leaderErr := make(chan error, 1)
	go func() {
		_, err := cached.Invoke("Flaky", nil, nil)
		leaderErr <- err
	}()
	<-entered
	followerErr := make(chan error, 1)
	go func() {
		_, err := cached.Invoke("Flaky", nil, nil)
		followerErr <- err
	}()
	// Give the follower a moment to coalesce, then let the leader fail.
	// If it arrives late it becomes a fresh leader and succeeds — both
	// schedules are legal; only the leader's fault must not be cached.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-leaderErr; err == nil || !Retryable(err) {
		t.Fatalf("leader error = %v, want transient fault", err)
	}
	err := <-followerErr
	st := c.Stats()
	if st.Coalesced > 0 {
		// The follower shared the leader's wire, so it shares the fault.
		if err == nil || !Retryable(err) {
			t.Fatalf("coalesced follower error = %v, want the leader's transient fault", err)
		}
		if c.Len() != 0 {
			t.Fatal("a shared fault was cached")
		}
	} else if err != nil {
		t.Fatalf("independent follower should have succeeded: %v", err)
	}
}

// TestCacheFollowerOutlivesLeader: a caller coalesced behind an identical
// in-flight invocation waits on that invocation or on its own context,
// whichever ends first, and a leader whose caller hung up fails nobody but
// itself — the follower invokes in its place and is still counted once, as
// coalesced.
func TestCacheFollowerOutlivesLeader(t *testing.T) {
	var calls atomic.Int32
	entered := make(chan struct{}, 2)
	reg := NewRegistry()
	reg.Register(&Service{
		Name: "Remote",
		RemoteCtx: func(ctx context.Context, _ []*tree.Node, _ *pattern.Pattern) (Response, error) {
			entered <- struct{}{}
			if calls.Add(1) == 1 { // the leader's provider never answers
				<-ctx.Done()
				return Response{}, ctx.Err()
			}
			return Response{Forest: []*tree.Node{tree.NewText("v")}}, nil
		},
	})
	c := NewCache(CacheSpec{})
	cached := c.Wrap(reg)
	waitCoalesced := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); c.Stats().Coalesced < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("stats = %+v, want %d coalesced", c.Stats(), n)
			}
		}
	}

	leaderCtx, hangUp := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := cached.InvokeContext(leaderCtx, "Remote", nil, nil)
		leader <- err
	}()
	<-entered // the leader is stalled in the provider

	// A follower whose own caller leaves stops waiting.
	goneCtx, gone := context.WithCancel(context.Background())
	impatient := make(chan error, 1)
	go func() {
		_, err := cached.InvokeContext(goneCtx, "Remote", nil, nil)
		impatient <- err
	}()
	waitCoalesced(1)
	gone()
	select {
	case err := <-impatient:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("impatient follower: got %v, want its own context's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a follower does not wait on its own context")
	}

	type answer struct {
		resp Response
		err  error
	}
	follower := make(chan answer, 1)
	go func() {
		resp, err := cached.Invoke("Remote", nil, nil)
		follower <- answer{resp, err}
	}()
	waitCoalesced(2)
	hangUp()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: got %v, want context.Canceled", err)
	}
	got := <-follower
	if got.err != nil || len(got.resp.Forest) != 1 || got.resp.Forest[0].Text() != "v" {
		t.Fatalf("follower: got %+v, %v; want the provider's response", got.resp, got.err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("provider invoked %d times, want 2 (the leader, then the follower in its place)", n)
	}
	if st := c.Stats(); st.Misses != 1 || st.Coalesced != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 miss, 2 coalesced, 0 hits", st)
	}
}

// TestCachePushedInvocations: a pushed invocation is cached under its
// query fingerprint; the plain invocation of the same service is a
// distinct entry.
func TestCachePushedInvocations(t *testing.T) {
	handlerCalls := 0
	reg := NewRegistry()
	reg.Register(&Service{
		Name:    "List",
		CanPush: true,
		Handler: func(params []*tree.Node) ([]*tree.Node, error) {
			handlerCalls++
			e := tree.NewElement("entry")
			e.Append(tree.NewElement("name")).Append(tree.NewText("x"))
			return []*tree.Node{e}, nil
		},
	})
	c := NewCache(CacheSpec{})
	cached := c.Wrap(reg)
	q := pattern.MustParse(`/entry/name/$V -> $V`)

	p1, err := cached.Invoke("List", nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Pushed {
		t.Fatal("push capability lost through the cache wrapper")
	}
	p2, _ := cached.Invoke("List", nil, q)
	if !p2.Pushed || handlerCalls != 1 {
		t.Fatalf("pushed hit broken: pushed=%v handlerCalls=%d", p2.Pushed, handlerCalls)
	}
	plain, _ := cached.Invoke("List", nil, nil)
	if plain.Pushed || handlerCalls != 2 {
		t.Fatalf("plain call must miss separately: pushed=%v handlerCalls=%d", plain.Pushed, handlerCalls)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2 (pushed and plain)", c.Len())
	}
}

// TestCacheResetDropsEntries: Reset empties the table and zeroes counters.
func TestCacheResetDropsEntries(t *testing.T) {
	base, calls := cacheWorld(0)
	c := NewCache(CacheSpec{})
	reg := c.Wrap(base)
	for i := 0; i < 3; i++ {
		reg.Invoke("GetTemp", paris(), nil)
	}
	if *calls != 1 {
		t.Fatalf("handler calls = %d, want 1", *calls)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset left entries behind")
	}
	reg.Invoke("GetTemp", paris(), nil)
	if *calls != 2 {
		t.Fatalf("post-Reset invoke should miss: handler calls = %d", *calls)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("post-Reset stats = %+v, want a single miss", st)
	}
}

// TestCacheKeysSorted: Keys is deterministic for tooling.
func TestCacheKeysSorted(t *testing.T) {
	base, _ := cacheWorld(0)
	c := NewCache(CacheSpec{})
	reg := c.Wrap(base)
	for _, city := range []string{"Rome", "Paris", "Oslo"} {
		reg.Invoke("GetTemp", []*tree.Node{tree.NewText(city)}, nil)
	}
	ks := c.Keys()
	if len(ks) != 3 {
		t.Fatalf("got %d keys, want 3", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("keys not sorted at %d", i)
		}
	}
}

// TestCacheUnknownServicePassthrough: wrapping preserves the unknown-
// service error path.
func TestCacheUnknownServicePassthrough(t *testing.T) {
	base, _ := cacheWorld(0)
	reg := NewCache(CacheSpec{}).Wrap(base)
	if _, err := reg.Invoke("Nope", nil, nil); err == nil {
		t.Fatal("unknown service must error through the cache")
	}
	var f *Fault
	if _, err := reg.Invoke("Nope", nil, nil); errors.As(err, &f) {
		t.Fatalf("unknown service error should not be a classified fault: %v", err)
	}
}

// TestCacheStatsHitRateZero guards the divide-by-zero edge.
func TestCacheStatsHitRateZero(t *testing.T) {
	if hr := (CacheStats{}).HitRate(); hr != 0 {
		t.Fatalf("empty hit rate = %v, want 0", hr)
	}
}

// TestCacheConcurrentMixedKeys hammers the cache from many goroutines
// across several keys; run under -race this is the cache's concurrency
// proof.
func TestCacheConcurrentMixedKeys(t *testing.T) {
	var handlerCalls atomic.Int64
	base := NewRegistry()
	base.Register(&Service{
		Name: "GetTemp",
		Handler: func(params []*tree.Node) ([]*tree.Node, error) {
			handlerCalls.Add(1)
			return []*tree.Node{tree.NewText(params[0].Text())}, nil
		},
	})
	c := NewCache(CacheSpec{MaxEntries: 2})
	reg := c.Wrap(base)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				city := fmt.Sprintf("city-%d", (g+i)%4)
				if _, err := reg.Invoke("GetTemp", []*tree.Node{tree.NewText(city)}, nil); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 2 {
		t.Fatalf("MaxEntries violated: %d entries", c.Len())
	}
}

// TestCacheFaultsConcurrent hammers the engine's production layering —
// cache.Wrap(faults.Wrap(base)) — from many goroutines with retries, the
// load shape a bounded invocation pool produces. Under -race this proves
// the singleflight dedup and the deterministic injector share no unsynced
// state; semantically, every goroutine must eventually succeed (the
// injector faults periodically, so one retry loop outlasts it) and
// failures must never be cached.
func TestCacheFaultsConcurrent(t *testing.T) {
	var handlerCalls atomic.Int64
	base := NewRegistry()
	base.Register(&Service{
		Name: "GetTemp",
		Handler: func(params []*tree.Node) ([]*tree.Node, error) {
			handlerCalls.Add(1)
			return []*tree.Node{tree.NewText(params[0].Text())}, nil
		},
	})
	faults := NewFaults(FaultSpec{Seed: 7, ErrorRate: 0.3})
	c := NewCache(CacheSpec{})
	reg := c.Wrap(faults.Wrap(base))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				city := fmt.Sprintf("city-%d", (g*i)%5)
				var err error
				for attempt := 0; attempt < 25; attempt++ {
					if _, err = reg.Invoke("GetTemp", []*tree.Node{tree.NewText(city)}, nil); err == nil {
						break
					}
					if !Retryable(err) {
						t.Errorf("injected fault lost its retryable class: %v", err)
						return
					}
				}
				if err != nil {
					t.Errorf("no success within 25 attempts: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 5 {
		t.Fatalf("cache holds %d entries, want at most the 5 distinct keys", c.Len())
	}
}
