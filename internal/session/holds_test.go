package session

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// TestStaleReaderPassesHeldWrite: while a write is held inside its
// invocation — its run holding nothing — a hot text that an earlier write
// made stale finishes a resumed engine run within 2 s, with the naive
// fixpoint's answer, stored at the version it was evaluated at. Once the
// write is let go its splice makes that answer stale again.
func TestStaleReaderPassesHeldWrite(t *testing.T) {
	reg, scenarios := workload.Suite(suiteSpec())
	gated, arm, entered := gateFirstInvocation(reg)
	m := NewManager(Config{Registry: gated, Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}, MaxActive: 4})
	sc := scenarios[0]
	if err := m.AddDocument(sc.Name, sc.Doc.Clone(), sc.Schema); err != nil {
		t.Fatal(err)
	}
	e := resident(t, m, sc.Name)
	ask := func(q string) *Result {
		t.Helper()
		res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: q})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hot := sc.Queries[0]
	want := naiveOracle(t, reg, sc.Doc, hot)
	ask(hot)
	ask(hot) // read: hot from here
	ask(pointQuery(3))
	ask(hot) // an engine run whose state stays resident
	if w := ask(pointQuery(5)); w.Stats.CallsInvoked == 0 {
		t.Fatal("the first write invoked nothing")
	}

	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	arm(gate)
	wrote := make(chan error, 1)
	go func() {
		_, err := m.Query(context.Background(), Request{Document: sc.Name, Query: pointQuery(1)})
		wrote <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the write never reached its handler")
	}
	at := e.master.Version()
	read := make(chan *Result, 1)
	resumed := m.Stats().Resumed
	go func() {
		res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: hot})
		if err != nil {
			t.Error(err)
		}
		read <- res
	}()
	select {
	case res := <-read:
		if res == nil {
			t.FailNow()
		}
		if res.Memo || m.Stats().Resumed != resumed+1 {
			t.Fatalf("the stale read: memo=%v, resumed %d → %d; want a resumed engine run", res.Memo, resumed, m.Stats().Resumed)
		}
		if !res.Complete || canon(res.Bindings) != want {
			t.Fatalf("the stale read's answer differs from the naive fixpoint:\n got %s\nwant %s", canon(res.Bindings), want)
		}
		if res.answer == nil || res.answer.at != at {
			t.Fatalf("the stale read's answer is not stored at version %d, the one it was evaluated at", at)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a stale read waited out a write's invocation")
	}
	if !ask(hot).Memo {
		t.Fatal("the repeat of the stale read, the write still held, is not a memo answer")
	}

	release()
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if e.master.Version() == at {
		t.Fatal("the held write spliced nothing")
	}
	if res := ask(hot); res.Memo || canon(res.Bindings) != want {
		t.Fatalf("the read after the write: memo=%v, answer %s; want an engine run answering %s", res.Memo, canon(res.Bindings), want)
	}
}

// TestWritesInvokeAtOnce: two writes of one document, each a never-seen
// point query, are both inside their invocations at the same time — the
// gate lets neither go on until both have arrived — and both answer what
// the naive fixpoint does. A first write has invoked the calls every point
// query finds relevant (the hidden hotels), so each of the two has calls of
// its own to invoke.
func TestWritesInvokeAtOnce(t *testing.T) {
	reg, scenarios := workload.Suite(suiteSpec())
	var armed atomic.Bool
	var arrived atomic.Int32
	both := make(chan struct{})
	gated := reg.Proxy(func(_ *service.Service, next service.Invoker) service.Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			if !armed.Load() {
				return next(ctx, params, pushed)
			}
			if arrived.Add(1) == 2 {
				close(both)
			}
			select {
			case <-both:
			case <-ctx.Done():
				return service.Response{}, ctx.Err()
			}
			return next(ctx, params, pushed)
		}
	})
	m := NewManager(Config{Registry: gated, Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}, MaxActive: 4})
	sc := scenarios[0]
	if err := m.AddDocument(sc.Name, sc.Doc.Clone(), sc.Schema); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(context.Background(), Request{Document: sc.Name, Query: pointQuery(5)}); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, k := range []int{1, 3} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := pointQuery(k)
			res, err := m.Query(ctx, Request{Document: sc.Name, Query: q})
			if err != nil {
				t.Errorf("write %d: %v (the writes were not inside their invocations at once)", k, err)
				return
			}
			if want := naiveOracle(t, reg, sc.Doc, q); !res.Complete || res.Stats.CallsInvoked == 0 || canon(res.Bindings) != want {
				t.Errorf("write %d: complete=%v, %d calls, answer %s; want %s", k, res.Complete, res.Stats.CallsInvoked, canon(res.Bindings), want)
			}
		}()
	}
	wg.Wait()
}

// TestSharedCallInvokedOnce: two texts whose one relevant call is the same
// call, asked at once. The first claims the call and is held inside its
// invocation; the second detects it, waits for the claim holding nothing —
// a lock-wait sample as long as the hold — and reads the splice. The
// service counts one invocation, and both answer the naive fixpoint's.
func TestSharedCallInvokedOnce(t *testing.T) {
	gate := make(chan struct{})
	doc, base := gatedWorld(gate)
	var invoked atomic.Int32
	entered := make(chan struct{}, 1)
	reg := base.Proxy(func(_ *service.Service, next service.Invoker) service.Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			if invoked.Add(1) == 1 {
				entered <- struct{}{}
			}
			return next(ctx, params, pushed)
		}
	})
	metrics := telemetry.NewRegistry()
	m := NewManager(Config{Registry: reg, Metrics: metrics, Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}, MaxActive: 4})
	if err := m.AddDocument("d", doc.Clone(), nil); err != nil {
		t.Fatal(err)
	}
	texts := []string{gatedQuery, `/r//v/$W -> $W`}
	results := make([]*Result, len(texts))
	var wg sync.WaitGroup
	ask := func(i int) {
		defer wg.Done()
		res, err := m.Query(context.Background(), Request{Document: "d", Query: texts[i]})
		if err != nil {
			t.Error(err)
		}
		results[i] = res
	}
	wg.Add(1)
	go ask(0)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first text never reached its handler")
	}
	wg.Add(1)
	go ask(1)
	waitUntil(t, func() bool { return m.Stats().Active == 2 })
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := invoked.Load(); n != 1 {
		t.Fatalf("the shared call was invoked %d times, want once", n)
	}
	for i, q := range texts {
		if want := naiveOracle(t, base, doc, q); !results[i].Complete || canon(results[i].Bindings) != want {
			t.Fatalf("%q: complete=%v, answer %s; want %s", q, results[i].Complete, canon(results[i].Bindings), want)
		}
	}
	if calls := results[0].Stats.CallsInvoked + results[1].Stats.CallsInvoked; calls != 1 {
		t.Fatalf("the two runs report %d invocations, want 1", calls)
	}
	if w := metrics.Histogram(telemetry.MetricSessionLockWait).Snapshot(); w.Max < 50*time.Millisecond {
		t.Fatalf("the longest lock wait was %v: the second text did not wait for the claim", w.Max)
	}
}

// TestEvictionSkipsRunInFlight: a text whose run is held inside its
// invocation has neither an answer nor resident state — the first a full
// map's sweep forgets — yet it is not forgotten: once let go, its answer
// is stored, and its repeat is a memo answer. The texts that fill the map
// have no relevant call.
func TestEvictionSkipsRunInFlight(t *testing.T) {
	gate := make(chan struct{})
	_, reg := gatedWorld(gate)
	entered := make(chan struct{}, 1)
	reg = reg.Proxy(func(_ *service.Service, next service.Invoker) service.Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			entered <- struct{}{}
			return next(ctx, params, pushed)
		}
	})
	root := tree.NewElement("r")
	root.Append(tree.NewElement("g")).Append(tree.NewCall("slow"))
	m := NewManager(Config{Registry: reg, Engine: core.Options{Strategy: core.LazyNFQ}, MaxActive: 2})
	if err := m.AddDocument("d", tree.NewDocument(root), nil); err != nil {
		t.Fatal(err)
	}
	e := resident(t, m, "d")
	ask := func(q string) *Result {
		t.Helper()
		res, err := m.Query(context.Background(), Request{Document: "d", Query: q})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const inFlight = `/r/g/v/$V -> $V`
	done := make(chan *Result, 1)
	go func() {
		res, err := m.Query(context.Background(), Request{Document: "d", Query: inFlight})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the run never reached its handler")
	}
	for i := 0; len(remembered(e)) < maxHotQueries; i++ {
		ask(fmt.Sprintf(`/r/k%d/$V -> $V`, i))
	}
	ask(`/r/full/$V -> $V`) // a full map: the sweep
	if !remembered(e)[inFlight] {
		t.Fatal("the sweep forgot a text whose run was in flight")
	}
	close(gate)
	if res := <-done; res == nil || !res.Complete || res.answer == nil {
		t.Fatal("the run in flight did not store its answer")
	}
	if res := ask(inFlight); !res.Memo || len(res.Bindings) != 1 {
		t.Fatalf("the text's repeat: memo=%v, %d bindings; want its stored answer", res.Memo, len(res.Bindings))
	}
}

// TestConcurrentWritesShareNoTable: four writers at once, each a series of
// never-seen point queries of one shape on one master, every one answering
// what the naive fixpoint does. The writes share the shape's analysis and
// the master, and each fills memo tables of its own, its answer's anchored
// at the hotel it names: under -race two writes filling one table at once
// would be a reported race.
func TestConcurrentWritesShareNoTable(t *testing.T) {
	spec := suiteSpec()
	spec.Hotels, spec.HiddenHotels = 48, 8
	m, scenarios, reg := newSuiteManager(t, Config{MaxActive: 4,
		Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}}, spec)
	sc := scenarios[0]
	const writers = 4
	var texts [writers][]string
	want := map[string]string{}
	for k := 1; k < spec.Hotels+spec.HiddenHotels; k += 2 { // odd hotels: no hot text materialises them
		q := pointQuery(k)
		texts[k/2%writers] = append(texts[k/2%writers], q)
		want[q] = naiveOracle(t, reg, sc.Doc, q)
	}
	var wg sync.WaitGroup
	for _, mine := range texts {
		wg.Add(1)
		go func(mine []string) {
			defer wg.Done()
			for _, q := range mine {
				res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: q})
				if err != nil {
					t.Error(err)
					return
				}
				if !res.Complete || canon(res.Bindings) != want[q] {
					t.Errorf("%s: complete=%v, answer %s; want %s", q, res.Complete, canon(res.Bindings), want[q])
				}
			}
		}(mine)
	}
	wg.Wait()
}
