package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
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

// resident returns the manager's entry for a document already loaded.
func resident(t testing.TB, m *Manager, name string) *entry {
	t.Helper()
	e, err := m.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// remembered returns the query texts document e remembers.
func remembered(e *entry) map[string]bool {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	texts := make(map[string]bool, len(e.queries))
	for src := range e.queries {
		texts[src] = true
	}
	return texts
}

// TestMemoAnswerTakesNoLock pins the hit path's locking: with the entry
// lock held for writing — an engine run splicing the master, or one only
// waiting for it — a memo answer still returns.
func TestMemoAnswerTakesNoLock(t *testing.T) {
	m, scenarios, _ := newSuiteManager(t, Config{Engine: core.Options{Strategy: core.LazyNFQ}}, suiteSpec())
	sc := scenarios[0]
	req := Request{Document: sc.Name, Query: sc.Queries[0]}
	if _, err := m.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	e := resident(t, m, sc.Name)
	e.mu.Lock()
	defer e.mu.Unlock()
	done := make(chan *Result, 1)
	go func() {
		res, err := m.Query(context.Background(), req)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res != nil && !res.Memo {
			t.Fatal("repeat query on an unchanged master was not a memo answer")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("memo answer blocked behind a writer: the hit path takes the entry lock")
	}
}

// gateFirstInvocation wraps reg so that the first invocation after arm is
// called reports on entered and blocks until the channel arm was given is
// closed, or its context ends: a write held inside its invocation, its run
// holding nothing of the master, the call it invokes claimed.
func gateFirstInvocation(reg *service.Registry) (gated *service.Registry, arm func(chan struct{}), entered <-chan struct{}) {
	var held atomic.Pointer[chan struct{}]
	in := make(chan struct{}, 1)
	gated = reg.Proxy(func(_ *service.Service, next service.Invoker) service.Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			if gate := held.Swap(nil); gate != nil {
				in <- struct{}{}
				select {
				case <-*gate:
				case <-ctx.Done():
					return service.Response{}, ctx.Err()
				}
			}
			return next(ctx, params, pushed)
		}
	})
	return gated, func(gate chan struct{}) { held.Store(&gate) }, in
}

// TestMemoAnswerDuringEngineRun: while a write's handler is blocked, before
// any splice, inside its engine run, a memo read of another hot text on the
// same document is answered from its stored answer within 2 s. Once the write is let go, the hot text's next
// read is a resumed engine run whose answer is the naive fixpoint's.
func TestMemoAnswerDuringEngineRun(t *testing.T) {
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
	ask(hot)
	ask(hot) // read: hot from here
	ask(pointQuery(3))
	ask(hot) // an engine run whose state stays resident
	if !ask(hot).Memo {
		t.Fatal("the hot text's repeat on an unchanged master is not a memo answer")
	}

	at := e.master.Version()
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	arm(gate)
	wrote := make(chan error, 1)
	go func() {
		res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: pointQuery(1)})
		if err == nil && res.Stats.CallsInvoked == 0 {
			err = errors.New("the write invoked nothing")
		}
		wrote <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the write never reached its handler")
	}
	if e.master.Version() != at {
		t.Fatal("the write spliced before its handler was held")
	}
	read := make(chan *Result, 1)
	go func() {
		res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: hot})
		if err != nil {
			t.Error(err)
		}
		read <- res
	}()
	select {
	case res := <-read:
		if res == nil || !res.Memo {
			t.Fatal("a read during the write's engine run, before its first splice, was not a memo answer")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a memo read waited for a write's engine run")
	}

	release()
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	resumed := m.Stats().Resumed
	res := ask(hot)
	if res.Memo || m.Stats().Resumed != resumed+1 {
		t.Fatalf("the read after the write: memo=%v, resumed %d → %d; want a resumed engine run", res.Memo, resumed, m.Stats().Resumed)
	}
	if want := naiveOracle(t, reg, sc.Doc, hot); !res.Complete || canon(res.Bindings) != want {
		t.Fatalf("the resumed run's answer differs from the naive fixpoint:\n got %s\nwant %s", canon(res.Bindings), want)
	}
}

// TestLockWaitObserved: axml_session_lock_wait_seconds records a resumed
// read's wait behind a write that holds the entry lock for 60 ms — one
// sample, its engine run's read hold, of at least 50 ms — and nothing for
// memo reads, which take no lock.
func TestLockWaitObserved(t *testing.T) {
	metrics := telemetry.NewRegistry()
	m, scenarios, reg := newSuiteManager(t, Config{Metrics: metrics, Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}, MaxActive: 4}, suiteSpec())
	sc := scenarios[0]
	e := resident(t, m, sc.Name)
	hot := Request{Document: sc.Name, Query: sc.Queries[0]}
	ask := func(req Request) *Result {
		t.Helper()
		res, err := m.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ask(hot)
	ask(hot) // read: hot from here
	ask(Request{Document: sc.Name, Query: pointQuery(1)})
	ask(hot) // an engine run whose state stays resident
	waits := metrics.Histogram(telemetry.MetricSessionLockWait)
	before := waits.Snapshot()
	for i := 0; i < 10; i++ {
		if !ask(hot).Memo {
			t.Fatal("a repeat on an unchanged master is not a memo answer")
		}
	}
	if n := waits.Snapshot().Count; n != before.Count {
		t.Fatalf("10 memo reads took %d lock-wait samples, want none", n-before.Count)
	}

	// A write that holds the lock: it splices one museum call, so the hot
	// answer is stale, and keeps the lock while the hot read queues for it.
	resumed := m.Stats().Resumed
	e.mu.Lock()
	var museum *tree.Node
	for _, c := range e.master.Calls() {
		if c.Label == "getNearbyMuseums" {
			museum = c
			break
		}
	}
	resp, err := reg.Invoke(museum.Label, tree.CloneForest(museum.Children), nil)
	if err != nil {
		e.mu.Unlock()
		t.Fatal(err)
	}
	e.guide.ApplyExpansion(e.master.ReplaceCall(museum, resp.Forest))
	read := make(chan error, 1)
	go func() {
		res, err := m.Query(context.Background(), hot)
		if err == nil && res.Memo {
			err = errors.New("the read after a splice was a memo answer")
		}
		read <- err
	}()
	waitUntil(t, func() bool { return m.Stats().Active == 1 })
	time.Sleep(60 * time.Millisecond)
	e.mu.Unlock()
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if m.Stats().Resumed != resumed+1 {
		t.Fatal("the read behind the write did not resume")
	}
	after := waits.Snapshot()
	if after.Count != before.Count+1 || after.Sum-before.Sum < 50*time.Millisecond || after.Max < 50*time.Millisecond {
		t.Fatalf("the read behind a 60 ms write: %d lock-wait samples summing to %v, the largest %v; want 1, of at least 50ms",
			after.Count-before.Count, after.Sum-before.Sum, after.Max)
	}
}

// TestStoredAnswersUnderWrites interleaves, over 20 seeds, the suite's
// hot queries with never-seen point queries that splice the masters.
// Every answer equals the naive-fixpoint oracle; every memo answer equals
// the snapshot evaluation of the master as it stands; and an answer is a
// memo answer exactly when no call has been spliced into its document
// since that query last ran to completion — in particular, the first hot
// query after a write that spliced is never one.
func TestStoredAnswersUnderWrites(t *testing.T) {
	spec := suiteSpec()
	oracle := map[string]string{} // a function of (document, query) only: one serves every seed
	for seed := int64(0); seed < 20; seed++ {
		m, scenarios, reg := newSuiteManager(t, Config{Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}}, spec)
		rng := rand.New(rand.NewSource(seed))
		fresh := map[string]bool{} // doc|query → answered since the document's last splice
		unseen := map[string][]int{}
		for _, sc := range scenarios[:2] {
			for k := 0; k < spec.Hotels+spec.HiddenHotels; k++ {
				if k%spec.TargetEvery != 0 {
					unseen[sc.Name] = append(unseen[sc.Name], k)
				}
			}
		}

		for step := 0; step < 60; step++ {
			sc := scenarios[rng.Intn(len(scenarios))]
			qsrc := sc.Queries[rng.Intn(len(sc.Queries))]
			if ks := unseen[sc.Name]; len(ks) > 0 && rng.Intn(4) == 0 {
				i := rng.Intn(len(ks))
				qsrc = pointQuery(ks[i])
				unseen[sc.Name] = append(ks[:i], ks[i+1:]...)
			}
			key := sc.Name + "|" + qsrc
			if _, ok := oracle[key]; !ok {
				oracle[key] = naiveOracle(t, reg, sc.Doc, qsrc)
			}

			res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: qsrc})
			if err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, key, err)
			}
			if !res.Complete || canon(res.Bindings) != oracle[key] {
				t.Fatalf("seed %d step %d %s: complete=%v, answer differs from the naive fixpoint:\n got %s\nwant %s",
					seed, step, key, res.Complete, canon(res.Bindings), oracle[key])
			}
			if res.Memo != fresh[key] {
				t.Fatalf("seed %d step %d %s: memo=%v, but answered-since-last-splice=%v", seed, step, key, res.Memo, fresh[key])
			}
			if res.Memo {
				e := resident(t, m, sc.Name)
				e.mu.RLock()
				rs, _ := pattern.Eval(e.master, pattern.MustParse(qsrc))
				e.mu.RUnlock()
				if got := canon(cloneBindings(rs)); got != canon(res.Bindings) {
					t.Fatalf("seed %d step %d %s: memo answer is not the master's snapshot result:\n got %s\nwant %s",
						seed, step, key, canon(res.Bindings), got)
				}
			}
			if res.Stats.CallsInvoked > 0 {
				for k := range fresh {
					if strings.HasPrefix(k, sc.Name+"|") {
						delete(fresh, k)
					}
				}
			}
			fresh[key] = true
		}
	}
}

// flatWorld is a document without calls: every query over it completes
// without splicing, so every answer stays fresh.
func flatWorld() *tree.Document {
	root := tree.NewElement("r")
	root.Append(tree.NewElement("v")).Append(tree.NewText("x"))
	return tree.NewDocument(root)
}

// TestHotQueryStateIsBounded sends a document more distinct query texts
// than it may remember — each a shape of its own, the document having no
// schema: the map and the manager's shapes stay within maxHotQueries, a hot query
// asked throughout keeps being answered from its stored answer, a text
// that finds every remembered answer hot is answered without displacing
// one, and once the master changes the stale texts are the first to go,
// their shapes with them.
func TestHotQueryStateIsBounded(t *testing.T) {
	m := NewManager(Config{Registry: service.NewRegistry(), Engine: core.Options{Strategy: core.LazyNFQ}})
	if err := m.AddDocument("d", flatWorld(), nil); err != nil {
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
	const hot = `/r/v/$V -> $V`
	ask(hot)
	for i := 0; i < 2*maxHotQueries+100; i++ {
		ask(fmt.Sprintf(`/r/k%d/$V -> $V`, i))
		if n := len(remembered(e)); n > maxHotQueries {
			t.Fatalf("after %d distinct queries the document remembers %d texts, cap %d", i+1, n, maxHotQueries)
		}
		if n := m.Stats().Shapes; n > maxHotQueries {
			t.Fatalf("after %d distinct shapes the manager keeps %d, cap %d", i+1, n, maxHotQueries)
		}
		if i%50 == 0 {
			if res := ask(hot); !res.Memo || len(res.Bindings) != 1 {
				t.Fatalf("after %d distinct queries the hot query lost its stored answer (memo=%v, %d bindings)", i+1, res.Memo, len(res.Bindings))
			}
		}
	}

	for n := len(remembered(e)); n < maxHotQueries; n = len(remembered(e)) {
		ask(fmt.Sprintf(`/r/fill%d/$V -> $V`, n))
	}
	for q := range remembered(e) { // memo answers do not touch the map
		if !ask(q).Memo {
			t.Fatalf("%q lost its stored answer on an unchanged master", q)
		}
	}
	if res, texts := ask(`/r/v/$W -> $W`), remembered(e); len(res.Bindings) != 1 || len(texts) != maxHotQueries || texts[`/r/v/$W -> $W`] {
		t.Fatalf("a text arriving at %d hot ones: %d bindings, %d texts remembered; want it answered and not kept",
			maxHotQueries, len(res.Bindings), len(texts))
	}
	e.mu.Lock()
	e.master.Adopt(e.master.Root.Append(tree.NewElement("w"))) // a mutation no engine reports
	e.mu.Unlock()
	ask(`/r/after/$V -> $V`)
	if n := len(remembered(e)); n != 1 {
		t.Fatalf("a full map of stale answers kept %d texts beside the new one, want 1 in all", n)
	}
	if n := m.Stats().Shapes; n != 1 {
		t.Fatalf("the sweep left one text and %d shapes, want 1", n)
	}
}

// BenchmarkMemoAnswer measures Manager.Query on a master that is complete
// for the query — the whole serving path of a memo answer except HTTP.
func BenchmarkMemoAnswer(b *testing.B) {
	reg, scenarios := workload.Suite(suiteSpec())
	m := NewManager(Config{Registry: reg, Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}})
	sc := scenarios[0]
	if err := m.AddDocument(sc.Name, sc.Doc, sc.Schema); err != nil {
		b.Fatal(err)
	}
	req := Request{Document: sc.Name, Query: sc.Queries[0]}
	if _, err := m.Query(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Query(context.Background(), req)
		if err != nil || !res.Memo {
			b.Fatalf("memo=%v err=%v", res != nil && res.Memo, err)
		}
	}
}

// discardWriter is a ResponseWriter that keeps the status and the headers
// and drops the body.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// memoOverHTTP builds a manager over the suite at the given size, fills the
// travel master for its first query until that query's answer is a memo
// answer, and returns a function that serves one POST /query for it
// through Handler to a discarding writer, with the answer's binding count.
func memoOverHTTP(tb testing.TB, hotels int) (serve func(), bindings int) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = hotels, hotels/5
	reg, scenarios := workload.Suite(spec)
	m := NewManager(Config{Registry: reg, Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}})
	sc := scenarios[0]
	if err := m.AddDocument(sc.Name, sc.Doc, sc.Schema); err != nil {
		tb.Fatal(err)
	}
	for {
		res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0]})
		if err != nil {
			tb.Fatal(err)
		}
		if res.Memo {
			bindings = len(res.Bindings)
			break
		}
	}
	body, _ := json.Marshal(QueryRequest{Document: sc.Name, Query: sc.Queries[0]})
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/query", rd)
	w := &discardWriter{header: http.Header{}}
	h := Handler(m)
	return func() {
		rd.Reset(body)
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			tb.Fatalf("POST /query: status %d", w.code)
		}
	}, bindings
}

// BenchmarkMemoAnswerHTTP measures a memo answer's whole server side —
// decode, Manager.Query, write — on the 500-hotel travel document: what a
// serve-hot request costs the server, without the network.
func BenchmarkMemoAnswerHTTP(b *testing.B) {
	serve, _ := memoOverHTTP(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// memoHTTPAllocs bounds the allocations of one POST /query answered with a
// memo answer: request decode, lookup and headers. None may depend on the
// number of bindings — the stored answer is sent as the bytes it was
// encoded to once.
const memoHTTPAllocs = 40

// TestMemoAnswerHTTPAllocationCeiling pins BenchmarkMemoAnswerHTTP's
// allocations per request under a ceiling that does not grow with the
// answer: a small document and the 500-hotel one both stay under it.
func TestMemoAnswerHTTPAllocationCeiling(t *testing.T) {
	for _, hotels := range []int{20, 500} {
		serve, bindings := memoOverHTTP(t, hotels)
		serve() // the first send encodes the stored answer
		allocs := testing.AllocsPerRun(50, serve)
		t.Logf("%d hotels, %d bindings: %.0f allocations per memo request", hotels, bindings, allocs)
		if allocs > memoHTTPAllocs {
			t.Fatalf("%d hotels, %d bindings: %.0f allocations per memo request, ceiling %d", hotels, bindings, allocs, memoHTTPAllocs)
		}
	}
}

// BenchmarkReevalAfterWrite measures what a reader pays after a write: a
// hot query's engine run on a serving-size master that a never-seen point
// query has just spliced. The write, and the memo read that keeps the
// query hot, are untimed; the re-run must be an engine run (not a memo
// answer) that invokes nothing.
func BenchmarkReevalAfterWrite(b *testing.B) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 500, 100
	var m *Manager
	var hot Request
	next := 0 // next write target, among the odd hotels: never a hot query's match
	ask := func(req Request) *Result {
		res, err := m.Query(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	fill := func() {
		reg, scenarios := workload.Suite(spec)
		m = NewManager(Config{Registry: reg, Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}})
		sc := scenarios[0]
		if err := m.AddDocument(sc.Name, sc.Doc, sc.Schema); err != nil {
			b.Fatal(err)
		}
		hot = Request{Document: sc.Name, Query: sc.Queries[0]}
		for !ask(hot).Memo {
		}
		next = 1
	}
	fill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if next >= spec.Hotels {
			fill()
		}
		if w := ask(Request{Document: hot.Document, Query: pointQuery(next)}); w.Stats.CallsInvoked == 0 {
			b.Fatalf("write %d invoked no call", next)
		}
		next += 2
		b.StartTimer()
		res := ask(hot)
		b.StopTimer()
		if res.Memo || res.Stats.CallsInvoked != 0 {
			b.Fatalf("re-run after a write: memo=%v, %d calls invoked; want an engine run that invokes nothing", res.Memo, res.Stats.CallsInvoked)
		}
		if !ask(hot).Memo {
			b.Fatal("repeat of the re-run is not a memo answer")
		}
		b.StartTimer()
	}
}
