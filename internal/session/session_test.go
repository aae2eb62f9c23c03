package session

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/plan"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/repo"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// suiteSpec keeps the differential worlds small enough for the seeded
// sweeps to stay fast under -race while still covering hidden hotels,
// intensional ratings and the join workload.
func suiteSpec() workload.HotelSpec {
	spec := workload.DefaultSpec()
	spec.Hotels = 12
	spec.HiddenHotels = 4
	return spec
}

// canon renders bindings canonically: each binding's sorted k=v pairs,
// then the whole multiset sorted — the "bit-identical results" the
// differential tests compare.
func canon(bs []tree.Binding) string {
	keys := make([]string, len(bs))
	for i, b := range bs {
		parts := make([]string, 0, len(b))
		for k, v := range b {
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts)
		keys[i] = strings.Join(parts, ",")
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// serialOracle evaluates every (scenario, query) pair on a fresh clone,
// serially — the single-tenant ground truth. Keys are "doc|query".
func serialOracle(t *testing.T, reg *service.Registry, scenarios []workload.Scenario, engine core.Options) map[string]string {
	t.Helper()
	oracle := map[string]string{}
	for _, sc := range scenarios {
		for _, qsrc := range sc.Queries {
			q, err := pattern.Parse(qsrc)
			if err != nil {
				t.Fatalf("parse %q: %v", qsrc, err)
			}
			opts := engine.WithSchema(sc.Schema)
			opts.Clock = &service.SimClock{}
			out, err := core.Evaluate(sc.Doc.Clone(), q, reg, opts)
			if err != nil {
				t.Fatalf("oracle %s %q: %v", sc.Name, qsrc, err)
			}
			if !out.Complete {
				t.Fatalf("oracle %s %q incomplete", sc.Name, qsrc)
			}
			oracle[sc.Name+"|"+qsrc] = canon(cloneBindings(out.Results))
		}
	}
	return oracle
}

// newSuiteManager assembles the full serving stack — base registry under
// ServingRegistry's pool, profiler and response cache, manager — and
// loads every scenario document.
func newSuiteManager(t *testing.T, cfg Config, spec workload.HotelSpec) (*Manager, []workload.Scenario, *service.Registry) {
	t.Helper()
	reg, scenarios := workload.Suite(spec)
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	cfg.Registry = ServingRegistry(reg, service.NewCache(service.CacheSpec{MaxEntries: 4096}), profile.New(0, nil), 16, cfg.Metrics)
	m := NewManager(cfg)
	for _, sc := range scenarios {
		if err := m.AddDocument(sc.Name, sc.Doc.Clone(), sc.Schema); err != nil {
			t.Fatal(err)
		}
	}
	return m, scenarios, reg
}

// pointQuery asks for the restaurants near one uniquely named hotel of
// the travel/distributed documents. Asked for the first time it is a
// write: it invokes that hotel's getNearbyRestos call and splices the
// master.
func pointQuery(k int) string {
	return fmt.Sprintf(`/hotels/hotel[name="Hotel-%d"]/nearby//restaurant[name=$X][rating=$R] -> $X, $R`, k)
}

// naiveOracle answers qsrc on a fully materialised clone of doc — the
// naive fixpoint, which shares nothing with the lazy engine but the
// pattern matcher.
func naiveOracle(t *testing.T, reg *service.Registry, doc *tree.Document, qsrc string) string {
	t.Helper()
	out, err := core.Evaluate(doc.Clone(), pattern.MustParse(qsrc), reg, core.Options{Strategy: core.NaiveFixpoint})
	if err != nil {
		t.Fatalf("naive oracle %q: %v", qsrc, err)
	}
	return canon(cloneBindings(out.Results))
}

// TestHammerSharedMaster is the concurrency hammer: N goroutines × M
// mixed hot queries against one manager sharing the masters, their stored
// answers, the response cache and the invocation pool, each JSON-encoding
// the bindings it was handed (the slice a memo answer shares with every
// other), while writer goroutines splice the masters with never-seen
// point queries and isolated-mode goroutines evaluate private clones of
// the same entries — under -race. The hot queries are resident, so their
// re-runs read every write's splices from the master's records under the
// entry's write lock and resume; the isolated runs share each text's prepared query with
// the shared ones and nothing else. Every write is held at its first
// invocation — in its engine run, under the write lock, before it splices —
// until a reader of its document has been served a memo answer, or 100 ms
// have passed: memo reads run during writes, and some must. Every single
// answer, memo or not, must equal the serial oracle — correctness, not just
// survival.
func TestHammerSharedMaster(t *testing.T) {
	engine := core.Options{Strategy: core.LazyNFQ, Incremental: true}
	m, scenarios, reg := newSuiteManager(t, Config{
		Engine:    engine,
		MaxActive: 12,      // every goroutine: a reader queued behind a write holds no token a memo reader needs
		MaxQueued: 1 << 16, // the hammer asserts on results, not shedding
	}, suiteSpec())
	oracle := serialOracle(t, reg, scenarios, engine)

	type job struct{ doc, query string }
	var jobs []job
	for _, sc := range scenarios {
		for _, q := range sc.Queries {
			jobs = append(jobs, job{sc.Name, q})
		}
	}
	// The writes: every uniquely named hotel of the two hotel documents.
	spec := suiteSpec()
	var writes []job
	for _, sc := range scenarios[:2] {
		for k := 0; k < spec.Hotels+spec.HiddenHotels; k++ {
			if k%spec.TargetEvery != 0 {
				q := pointQuery(k)
				writes = append(writes, job{sc.Name, q})
				oracle[sc.Name+"|"+q] = naiveOracle(t, reg, sc.Doc, q)
			}
		}
	}

	// Per document: the queries begun, the number begun when the write held
	// now began its hold (0 while none is), and the memo answers to queries
	// begun during a hold that returned before it ended. One write of a
	// document holds at a time: the hold is inside its engine run.
	type holds struct{ begun, heldAt, during atomic.Int64 }
	byDoc := map[string]*holds{}
	for _, sc := range scenarios {
		byDoc[sc.Name] = new(holds)
	}
	type heldWrite struct {
		doc  string
		held atomic.Bool
	}
	type writeKey struct{}
	var readDuringWrite atomic.Int64 // writes during whose hold a memo answer of their document was served
	m.cfg.Registry = m.cfg.Registry.Proxy(func(_ *service.Service, next service.Invoker) service.Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			if w, ok := ctx.Value(writeKey{}).(*heldWrite); ok && !w.held.Swap(true) {
				d := byDoc[w.doc]
				seen := d.during.Load()
				d.heldAt.Store(d.begun.Load())
				for deadline := time.Now().Add(100 * time.Millisecond); d.during.Load() == seen && time.Now().Before(deadline); {
					time.Sleep(100 * time.Microsecond)
				}
				d.heldAt.Store(0)
				if d.during.Load() != seen {
					readDuringWrite.Add(1)
				}
			}
			return next(ctx, params, pushed)
		}
	})

	const goroutines = 8
	const perGoroutine = 50
	const writers = 2
	const isolated = 2
	const perIsolated = 12
	run := func(ctx context.Context, g int, j job) error {
		d := byDoc[j.doc]
		seq := d.begun.Add(1)
		res, err := m.Query(ctx, Request{
			Tenant:   fmt.Sprintf("tenant-%d", g),
			Document: j.doc,
			Query:    j.query,
			Isolated: g >= goroutines+writers,
		})
		if err != nil {
			return fmt.Errorf("goroutine %d: %s %q: %w", g, j.doc, j.query, err)
		}
		if h := d.heldAt.Load(); res.Memo && h != 0 && seq > h {
			d.during.Add(1)
		}
		if !res.Complete {
			return fmt.Errorf("goroutine %d: %s %q incomplete", g, j.doc, j.query)
		}
		if _, err := json.Marshal(res.Bindings); err != nil {
			return fmt.Errorf("goroutine %d: %s %q: encode: %w", g, j.doc, j.query, err)
		}
		if got, want := canon(res.Bindings), oracle[j.doc+"|"+j.query]; got != want {
			return fmt.Errorf("goroutine %d: %s %q diverges from serial oracle:\n got %s\nwant %s",
				g, j.doc, j.query, got, want)
		}
		return nil
	}
	bg := context.Background()
	// Every hot query has been read once before the hammer starts, so each
	// keeps its engine state from its first re-run on.
	for pass := 0; pass < 2; pass++ {
		for _, j := range jobs {
			if err := run(bg, 0, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	errs := make(chan error, goroutines+writers+isolated)
	var wg, writing sync.WaitGroup
	var writesDone atomic.Bool
	var reads atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			// At least perGoroutine reads, and on until the writes are done.
			for i := 0; i < perGoroutine || !writesDone.Load(); i++ {
				reads.Add(1)
				if err := run(bg, g, jobs[rng.Intn(len(jobs))]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writing.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Done()
			for i := w; i < len(writes); i += writers {
				write := context.WithValue(bg, writeKey{}, &heldWrite{doc: writes[i].doc})
				if err := run(write, goroutines+w, writes[i]); err != nil {
					errs <- err
					return
				}
				// Re-ask the written document's hot queries, so that by the
				// next write each has been through the engine since this
				// one, whatever the readers happen to pick.
				for _, j := range jobs {
					if j.doc != writes[i].doc {
						continue
					}
					if err := run(bg, goroutines+w, j); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < isolated; i++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perIsolated; i++ {
				if err := run(bg, g, jobs[rng.Intn(len(jobs))]); err != nil {
					errs <- err
					return
				}
			}
		}(goroutines + writers + i)
	}
	writing.Wait()
	writesDone.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := m.Stats()
	// Two warm-up passes; the readers; each write and its document's two
	// hot queries; the isolated runs.
	if want := int64(2*len(jobs)) + reads.Load() + int64(3*len(writes)+isolated*perIsolated); st.Served != want {
		t.Fatalf("served %d queries, want %d", st.Served, want)
	}
	if st.Resumed == 0 {
		t.Fatal("no engine run resumed resident state: the writes' splices were never read from the records")
	}
	if readDuringWrite.Load() == 0 {
		t.Fatalf("no reader was served a memo answer while one of %d writes of its document was held: readers wait for writers", len(writes))
	}
	t.Logf("%d of %d writes had a memo answer of their document served while they were held", readDuringWrite.Load(), len(writes))
	// Sharing must have paid: once a document is complete for a query,
	// repeats are memo answers until a write splices it. With at least 400
	// reads over 8 query kinds and 24 writes the majority are stored answers.
	if st.Memo < reads.Load()/2 {
		t.Fatalf("only %d/%d memo answers — stored answers are not being reused", st.Memo, st.Served)
	}
	ts := m.TenantStats()
	var total int64
	for _, v := range ts {
		total += v.Queries
	}
	if total != st.Served {
		t.Fatalf("tenant accounting %d != served %d", total, st.Served)
	}
}

// TestSharedProjectionEquivalence runs every (scenario, query) pair
// through two managers — projection enabled and disabled — and demands
// identical bindings and completeness, equal also to the serial oracle.
// Each query runs twice per manager: the first pass is the engine run
// (projected or not), the second must be that run's stored answer — a
// memo answer with zero Stats.
func TestSharedProjectionEquivalence(t *testing.T) {
	spec := suiteSpec()
	oracleReg, oracleScenarios := workload.Suite(spec)
	oracle := serialOracle(t, oracleReg, oracleScenarios, core.Options{Strategy: core.LazyNFQ, Incremental: true})

	for _, noProject := range []bool{false, true} {
		engine := core.Options{Strategy: core.LazyNFQ, Incremental: true, NoProject: noProject}
		m, scenarios, _ := newSuiteManager(t, Config{Engine: engine, MaxActive: 4}, spec)
		for _, sc := range scenarios {
			for _, qsrc := range sc.Queries {
				for pass := 0; pass < 2; pass++ {
					res, err := m.Query(context.Background(), Request{
						Tenant: "t", Document: sc.Name, Query: qsrc,
					})
					if err != nil {
						t.Fatalf("noProject=%v %s %q pass %d: %v", noProject, sc.Name, qsrc, pass, err)
					}
					if !res.Complete {
						t.Fatalf("noProject=%v %s %q pass %d: incomplete", noProject, sc.Name, qsrc, pass)
					}
					if got, want := canon(res.Bindings), oracle[sc.Name+"|"+qsrc]; got != want {
						t.Fatalf("noProject=%v %s %q pass %d diverges from oracle:\n got %s\nwant %s",
							noProject, sc.Name, qsrc, pass, got, want)
					}
					if pass == 1 && (!res.Memo || res.Stats != (core.Stats{})) {
						t.Fatalf("noProject=%v %s %q: repeat on an unchanged master: memo=%v stats=%+v, want a memo answer with zero Stats",
							noProject, sc.Name, qsrc, res.Memo, res.Stats)
					}
				}
			}
		}
	}
}

// TestDifferentialWidths is the 20-seed sweep: the same seeded query mix
// evaluated multi-tenant at session widths 1, 2, 4 and 8 must be
// bit-identical — bindings and completeness flags — to single-tenant
// serial evaluation.
func TestDifferentialWidths(t *testing.T) {
	spec := suiteSpec()
	engine := core.Options{Strategy: core.LazyNFQ, Incremental: true}

	// One oracle serves every width and seed: scenarios and handlers are
	// deterministic, so ground truth is a function of (doc, query) only.
	oracleReg, oracleScenarios := workload.Suite(spec)
	oracle := serialOracle(t, oracleReg, oracleScenarios, engine)

	type job struct{ doc, query string }
	var jobs []job
	for _, sc := range oracleScenarios {
		for _, q := range sc.Queries {
			jobs = append(jobs, job{sc.Name, q})
		}
	}

	for _, width := range []int{1, 2, 4, 8} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			mix := make([]job, 24)
			for i := range mix {
				mix[i] = jobs[rng.Intn(len(jobs))]
			}

			m, _, _ := newSuiteManager(t, Config{
				Engine:    engine,
				MaxActive: width,
				MaxQueued: 1 << 16,
			}, spec)

			var wg sync.WaitGroup
			errs := make(chan error, len(mix))
			for i, j := range mix {
				wg.Add(1)
				go func(i int, j job) {
					defer wg.Done()
					res, err := m.Query(context.Background(), Request{Document: j.doc, Query: j.query})
					if err != nil {
						errs <- fmt.Errorf("width %d seed %d req %d: %w", width, seed, i, err)
						return
					}
					if !res.Complete {
						errs <- fmt.Errorf("width %d seed %d req %d: incomplete (serial is complete)", width, seed, i)
						return
					}
					if got, want := canon(res.Bindings), oracle[j.doc+"|"+j.query]; got != want {
						errs <- fmt.Errorf("width %d seed %d req %d (%s %q): concurrent result differs from serial:\n got %s\nwant %s",
							width, seed, i, j.doc, j.query, got, want)
						return
					}
					errs <- nil
				}(i, j)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestIsolatedMatchesShared checks the two evaluation modes agree: a
// private-clone query returns the same bindings as shared-master
// evaluation and leaves the master untouched.
func TestIsolatedMatchesShared(t *testing.T) {
	engine := core.Options{Strategy: core.LazyNFQ}
	m, scenarios, reg := newSuiteManager(t, Config{Engine: engine, MaxActive: 4}, suiteSpec())
	oracle := serialOracle(t, reg, scenarios, engine)

	sc := scenarios[0]
	iso, err := m.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0], Isolated: true})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := m.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	want := oracle[sc.Name+"|"+sc.Queries[0]]
	if canon(iso.Bindings) != want {
		t.Fatalf("isolated diverges from oracle:\n got %s\nwant %s", canon(iso.Bindings), want)
	}
	if canon(shared.Bindings) != want {
		t.Fatalf("shared diverges from oracle:\n got %s\nwant %s", canon(shared.Bindings), want)
	}
	if shared.Memo {
		t.Fatal("first shared query claims a memo answer — the isolated run leaked materialisation into the master")
	}
}

// TestMemoFastPath checks the repeat-query path: same document, same
// query, no interleaved mutation — the second answer must be the stored
// one, without an engine run, and still match.
func TestMemoFastPath(t *testing.T) {
	engine := core.Options{Strategy: core.LazyNFQ}
	m, scenarios, _ := newSuiteManager(t, Config{Engine: engine, MaxActive: 2}, suiteSpec())

	sc := scenarios[0]
	first, err := m.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if first.Memo {
		t.Fatal("first query cannot be a memo answer")
	}
	if first.Stats.CallsInvoked == 0 {
		t.Fatal("first query invoked no calls — the fixture is too materialised to test anything")
	}
	second, err := m.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Memo {
		t.Fatal("repeat query on an unchanged master should be a memo answer")
	}
	if second.Stats.CallsInvoked != 0 {
		t.Fatalf("memo answer invoked %d calls", second.Stats.CallsInvoked)
	}
	if canon(first.Bindings) != canon(second.Bindings) {
		t.Fatalf("memo answer differs from engine answer:\n got %s\nwant %s",
			canon(second.Bindings), canon(first.Bindings))
	}

	// A query that mutates the master (different query, new relevant
	// calls) invalidates the fast path; the next repeat re-runs the
	// engine and then memoises again.
	if _, err := m.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[1]}); err != nil {
		t.Fatal(err)
	}
	third, err := m.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if canon(third.Bindings) != canon(first.Bindings) {
		t.Fatal("post-mutation repeat diverged")
	}
}

// gatedWorld builds a single-call document whose service blocks until
// the gate channel is closed or its invocation's context ends, like a
// remote provider — the synthetic overload and drain fixture.
func gatedWorld(gate <-chan struct{}) (*tree.Document, *service.Registry) {
	reg := service.NewRegistry()
	reg.Register(&service.Service{
		Name: "slow",
		RemoteCtx: func(ctx context.Context, _ []*tree.Node, _ *pattern.Pattern) (service.Response, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return service.Response{}, ctx.Err()
			}
			n := tree.NewElement("v")
			n.Append(tree.NewText("done"))
			return service.Response{Forest: []*tree.Node{n}}, nil
		},
	})
	root := tree.NewElement("r")
	root.Append(tree.NewCall("slow"))
	return tree.NewDocument(root), reg
}

const gatedQuery = `/r/v/$V -> $V`

// TestOverloadShedsWithRetryAfter drives the admission path to
// saturation: capacity 1, queue 1 — the second query queues, the third
// is shed with ShedError carrying the Retry-After hint, and the
// sessions_shed/sessions_active telemetry moves accordingly.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	doc, reg := gatedWorld(gate)
	metrics := telemetry.NewRegistry()
	m := NewManager(Config{
		Registry:   reg,
		Metrics:    metrics,
		Engine:     core.Options{Strategy: core.LazyNFQ},
		MaxActive:  1,
		MaxQueued:  1,
		RetryAfter: 1300 * time.Millisecond,
	})
	if err := m.AddDocument("d", doc, nil); err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		close(started)
		_, err := m.Query(context.Background(), Request{Tenant: "a", Document: "d", Query: gatedQuery})
		first <- err
	}()
	<-started
	waitUntil(t, func() bool { return m.Stats().Active == 1 })
	if got := metrics.Snapshot().Gauges[telemetry.MetricSessionsActive]; got != 1 {
		t.Fatalf("sessions_active gauge = %d, want 1", got)
	}

	second := make(chan error, 1)
	go func() {
		_, err := m.Query(context.Background(), Request{Tenant: "b", Document: "d", Query: gatedQuery})
		second <- err
	}()
	waitUntil(t, func() bool { return m.Stats().Queued == 1 })

	// Queue full: the third query is shed immediately.
	_, err := m.Query(context.Background(), Request{Tenant: "c", Document: "d", Query: gatedQuery})
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("expected ShedError, got %v", err)
	}
	if shed.RetryAfter != 1300*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 1300ms", shed.RetryAfter)
	}
	if got := metrics.Snapshot().Counters[telemetry.MetricSessionsShed]; got != 1 {
		t.Fatalf("sessions_shed counter = %d, want 1", got)
	}
	if ts := m.TenantStats()["c"]; ts.Shed != 1 {
		t.Fatalf("tenant c shed count = %d, want 1", ts.Shed)
	}

	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("first query failed: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("queued query failed: %v", err)
	}
	if got := metrics.Snapshot().Gauges[telemetry.MetricSessionsActive]; got != 0 {
		t.Fatalf("sessions_active gauge = %d after completion, want 0", got)
	}
	if got := metrics.Snapshot().Counters[telemetry.MetricSessionsTotal]; got != 2 {
		t.Fatalf("sessions_total = %d, want 2", got)
	}
}

// TestDrainLetsActiveFinish checks shutdown semantics: during Drain an
// in-flight query runs to completion, a queued one is refused with
// ErrDraining, and new queries are refused immediately.
func TestDrainLetsActiveFinish(t *testing.T) {
	gate := make(chan struct{})
	doc, reg := gatedWorld(gate)
	m := NewManager(Config{
		Registry:  reg,
		Engine:    core.Options{Strategy: core.LazyNFQ},
		MaxActive: 1,
		MaxQueued: 4,
	})
	if err := m.AddDocument("d", doc, nil); err != nil {
		t.Fatal(err)
	}

	first := make(chan *Result, 1)
	firstErr := make(chan error, 1)
	go func() {
		res, err := m.Query(context.Background(), Request{Document: "d", Query: gatedQuery})
		first <- res
		firstErr <- err
	}()
	waitUntil(t, func() bool { return m.Stats().Active == 1 })

	queued := make(chan error, 1)
	go func() {
		_, err := m.Query(context.Background(), Request{Document: "d", Query: gatedQuery})
		queued <- err
	}()
	waitUntil(t, func() bool { return m.Stats().Queued == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- m.Drain(ctx)
	}()

	// The queued query is refused promptly, while the active one is
	// still blocked in its service call.
	if err := <-queued; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued query: got %v, want ErrDraining", err)
	}
	select {
	case <-drained:
		t.Fatal("drain returned while a query was still active")
	case <-time.After(50 * time.Millisecond):
	}

	// New arrivals are refused immediately.
	if _, err := m.Query(context.Background(), Request{Document: "d", Query: gatedQuery}); !errors.Is(err, ErrDraining) {
		t.Fatalf("new query during drain: got %v, want ErrDraining", err)
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-firstErr; err != nil {
		t.Fatalf("in-flight query failed during drain: %v", err)
	}
	if res := <-first; res == nil || !res.Complete || len(res.Bindings) != 1 {
		t.Fatalf("in-flight query result corrupted by drain: %+v", res)
	}
}

// TestDrainDeadline checks a Drain whose active query never finishes
// gives up when its context expires.
func TestDrainDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	doc, reg := gatedWorld(gate)
	m := NewManager(Config{Registry: reg, Engine: core.Options{Strategy: core.LazyNFQ}, MaxActive: 1})
	if err := m.AddDocument("d", doc, nil); err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = m.Query(context.Background(), Request{Document: "d", Query: gatedQuery})
	}()
	waitUntil(t, func() bool { return m.Stats().Active == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: got %v, want DeadlineExceeded", err)
	}
}

// TestDrainPastBudgetCancelsAndPersists: -drain-timeout is a bound. When the
// budget expires with an evaluation stuck in a provider, Drain cancels it,
// waits for it to let go of its master, persists every master as the clean
// path does and only then reports the timeout — so what the run had spliced
// before it was cut is not lost, and what is on disk is a valid rewriting:
// any query over it still has the naive oracle's answer. The provider may
// answer its caller's departure, or be an in-process handler that never
// sees it and blocks until the test ends: the bound holds for both.
func TestDrainPastBudgetCancelsAndPersists(t *testing.T) {
	for _, v := range []struct {
		name  string
		stuck func(t *testing.T, reg *service.Registry, third chan<- struct{}) *service.Registry
	}{
		{"provider-answers-departure", func(_ *testing.T, reg *service.Registry, third chan<- struct{}) *service.Registry {
			var calls atomic.Int32
			return reg.Proxy(func(_ *service.Service, next service.Invoker) service.Invoker {
				return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
					if calls.Add(1) == 3 {
						close(third)
						<-ctx.Done()
						return service.Response{}, ctx.Err()
					}
					return next(ctx, params, pushed)
				}
			})
		}},
		{"handler-blocks", func(t *testing.T, reg *service.Registry, third chan<- struct{}) *service.Registry {
			var calls atomic.Int32
			ended := make(chan struct{})
			t.Cleanup(func() { close(ended) })
			blocking := service.NewRegistry()
			for _, name := range reg.Names() {
				inner := *reg.Lookup(name)
				handler := inner.Handler
				inner.Handler = func(params []*tree.Node) ([]*tree.Node, error) {
					if calls.Add(1) == 3 {
						close(third)
						<-ended
					}
					return handler(params)
				}
				blocking.Register(&inner)
			}
			return blocking
		}},
	} {
		t.Run(v.name, func(t *testing.T) {
			drainPastBudget(t, v.stuck)
		})
	}
}

func drainPastBudget(t *testing.T, stuck func(*testing.T, *service.Registry, chan<- struct{}) *service.Registry) {
	dir := t.TempDir()
	rp, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg, scenarios := workload.Suite(suiteSpec())
	// The third invocation meets a provider that holds it.
	third := make(chan struct{})
	m := NewManager(Config{Registry: stuck(t, reg, third), Repo: rp, Engine: core.Options{Strategy: core.LazyNFQ}})
	for _, sc := range scenarios {
		if err := m.AddDocument(sc.Name, sc.Doc.Clone(), sc.Schema); err != nil {
			t.Fatal(err)
		}
	}
	cut := make(chan error, 1)
	go func() {
		_, err := m.Query(context.Background(), Request{Document: scenarios[0].Name, Query: scenarios[0].Queries[0]})
		cut <- err
	}()
	<-third

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: got %v, want DeadlineExceeded", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("drain with a 50ms budget took %v", d)
	}
	select {
	case err := <-cut:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the evaluation Drain cut short: got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain returned with the evaluation still running")
	}
	if st := m.Stats(); st.Active != 0 {
		t.Fatalf("drain returned with evaluations still active: %+v", st)
	}

	reopened, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		if rep, err := reopened.VerifyIndex(sc.Name); err != nil || !rep.OK {
			t.Fatalf("%s: persisted index: %+v, %v", sc.Name, rep, err)
		}
		for _, qsrc := range sc.Queries {
			o, err := reopened.Get(sc.Name)
			if err != nil {
				t.Fatalf("%s was not persisted: %v", sc.Name, err)
			}
			out, err := core.Evaluate(o.Doc, pattern.MustParse(qsrc), reg, core.Options{Strategy: core.LazyNFQ})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canon(cloneBindings(out.Results)), naiveOracle(t, reg, sc.Doc, qsrc); got != want {
				t.Fatalf("%s %q over the persisted master:\n got %s\nwant %s", sc.Name, qsrc, got, want)
			}
		}
	}
}

// TestRequestErrors covers the client-error paths: unknown documents and
// unparsable queries classify for their HTTP statuses.
func TestRequestErrors(t *testing.T) {
	m, scenarios, _ := newSuiteManager(t, Config{Engine: core.Options{Strategy: core.LazyNFQ}}, suiteSpec())

	_, err := m.Query(context.Background(), Request{Document: "no-such-doc", Query: `/a/$X -> $X`})
	var unknown *UnknownDocumentError
	if !errors.As(err, &unknown) || unknown.Name != "no-such-doc" {
		t.Fatalf("got %v, want UnknownDocumentError", err)
	}

	_, err = m.Query(context.Background(), Request{Document: scenarios[0].Name, Query: `[[[`})
	var bad *BadQueryError
	if !errors.As(err, &bad) {
		t.Fatalf("got %v, want BadQueryError", err)
	}

	// A handler's error crosses the four serving layers (cache, profile,
	// pool, base) named once and with its class intact.
	base := service.NewRegistry()
	base.Register(&service.Service{Name: "svc", Handler: func([]*tree.Node) ([]*tree.Node, error) {
		return nil, &service.Fault{Class: service.Transient, Msg: "boom"}
	}})
	serving := ServingRegistry(base, service.NewCache(service.CacheSpec{}), profile.New(0, nil), 2, nil)
	_, err = serving.Invoke("svc", nil, nil)
	if want := "service svc: transient fault: boom"; err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
	if service.ClassOf(err) != service.Transient || !service.Retryable(err) {
		t.Fatalf("class lost crossing the serving stack: %v", err)
	}
}

// waitUntil polls cond with a deadline — the tests' only clock
// dependence, used for "the goroutine has reached the blocking point"
// conditions that channels cannot express without changing the code
// under test.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreBackedRepository checks the persistence path: Drain writes
// every master back to the repository, and a fresh manager faults
// documents in from it on first query — including the materialisation
// the previous incarnation already paid for.
func TestStoreBackedRepository(t *testing.T) {
	st, err := repo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg, scenarios := workload.Suite(suiteSpec())
	engine := core.Options{Strategy: core.LazyNFQ}
	oracle := serialOracle(t, reg, scenarios, engine)

	m1 := NewManager(Config{Registry: reg, Repo: st, Engine: engine})
	sc := scenarios[0]
	if err := m1.AddDocument(sc.Name, sc.Doc.Clone(), sc.Schema); err != nil {
		t.Fatal(err)
	}
	first, err := m1.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CallsInvoked == 0 {
		t.Fatal("first query invoked nothing")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if !st.Exists(sc.Name) {
		t.Fatal("drain did not persist the master")
	}

	// Second incarnation: no AddDocument — the repository supplies the
	// document, already materialised for this query.
	m2 := NewManager(Config{Registry: reg, Repo: st, Engine: engine})
	res, err := m2.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canon(res.Bindings), oracle[sc.Name+"|"+sc.Queries[0]]; got != want {
		t.Fatalf("restored document diverges:\n got %s\nwant %s", got, want)
	}
	if !res.Complete {
		t.Fatal("restored query incomplete")
	}
	// The faulted-in entry arrives with its schema and keeps typed pruning:
	// the master is already complete for this query under the same
	// strategy, and the restored run invokes nothing at all.
	if res.Stats.CallsInvoked != 0 {
		t.Fatalf("restored master re-invoked %d calls — persistence lost the materialisation or the schema",
			res.Stats.CallsInvoked)
	}
}

// slowBackend is a repository backend whose every read takes 50 ms.
type slowBackend struct{ repo.Backend }

func (b slowBackend) ReadFile(name string) ([]byte, error) {
	time.Sleep(50 * time.Millisecond)
	return b.Backend.ReadFile(name)
}

// TestElapsedCountsTheRepositoryLoad: the first query on a document the
// repository faults in reports the load in Result.Elapsed and in
// axml_session_seconds — the time from admission, not from the evaluation.
func TestElapsedCountsTheRepositoryLoad(t *testing.T) {
	reg, scenarios := workload.Suite(suiteSpec())
	sc := scenarios[0]
	mem := repo.NewMemBackend()
	rp, err := repo.New(mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Put(sc.Name, sc.Doc.Clone(), repo.PutOptions{Schema: sc.Schema}); err != nil {
		t.Fatal(err)
	}
	slow, err := repo.New(slowBackend{mem})
	if err != nil {
		t.Fatal(err)
	}
	metrics := telemetry.NewRegistry()
	m := NewManager(Config{Registry: reg, Repo: slow, Metrics: metrics, Engine: core.Options{Strategy: core.LazyNFQ}})
	res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < 50*time.Millisecond {
		t.Fatalf("the query that faulted its document in reports Elapsed %v, under the 50ms one read takes", res.Elapsed)
	}
	if got := metrics.Histogram(telemetry.MetricSessionSeconds).Snapshot().Max; got < 50*time.Millisecond {
		t.Fatalf("%s max %v, under the 50ms one read takes", telemetry.MetricSessionSeconds, got)
	}
}

// TestRepoBackedRestartOpensWarm is the restart-path acceptance test for
// the persistent indexed repository: a manager serves queries (expanding
// calls, patching the entry's F-guide in place), drains, and a second
// incarnation over the same directory answers identically with ZERO
// guide builds — the index is decoded from disk and adopted by the
// engine, never rebuilt. The on-disk index must also track expansion:
// after every drain it verifies as identical to a fresh build over the
// expanded master.
func TestRepoBackedRestartOpensWarm(t *testing.T) {
	dir := t.TempDir()
	rp1, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg, scenarios := workload.Suite(suiteSpec())
	engine := core.Options{Strategy: core.LazyNFQ, UseGuide: true}
	oracle := serialOracle(t, reg, scenarios, engine)
	sc := scenarios[0]

	met1 := telemetry.NewRegistry()
	m1 := NewManager(Config{Registry: reg, Repo: rp1, Metrics: met1, Engine: engine})
	if err := m1.AddDocument(sc.Name, sc.Doc.Clone(), sc.Schema); err != nil {
		t.Fatal(err)
	}
	if v := met1.Counter(telemetry.MetricGuideBuilds).Value(); v != 1 {
		t.Fatalf("registration built %d guides, want exactly 1", v)
	}
	first, err := m1.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CallsInvoked == 0 {
		t.Fatal("first query expanded nothing; the test needs mutations")
	}
	if v := met1.Counter(telemetry.MetricGuidePatches).Value(); v == 0 {
		t.Fatal("call expansion did not patch the entry's guide")
	}
	// The one build at registration is still the only one: every
	// expansion was an in-place patch.
	if v := met1.Counter(telemetry.MetricGuideBuilds).Value(); v != 1 {
		t.Fatalf("evaluation rebuilt the guide (builds=%d)", v)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Drain persisted the patched guide as-is; it must verify as exactly
	// the index of the expanded master.
	rep, err := rp1.VerifyIndex(sc.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("persisted index does not match the expanded master: %+v", rep)
	}

	// Second incarnation: fresh repository handle, fresh metrics. The
	// document, schema and index all come from disk.
	rp2, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	met2 := telemetry.NewRegistry()
	m2 := NewManager(Config{Registry: reg, Repo: rp2, Metrics: met2, Engine: engine})
	if err := m2.Preload(sc.Name); err != nil {
		t.Fatal(err)
	}
	if v := met2.Counter(telemetry.MetricRepoWarmOpens).Value(); v != 1 {
		t.Fatalf("preload warm opens = %d, want 1", v)
	}
	res, err := m2.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canon(res.Bindings), oracle[sc.Name+"|"+sc.Queries[0]]; got != want {
		t.Fatalf("restarted incarnation diverges:\n got %s\nwant %s", got, want)
	}
	if !res.Complete {
		t.Fatal("restarted query incomplete")
	}
	// The acceptance criterion: the warm reopen performed ZERO guide
	// builds anywhere — not at preload, not in the engine.
	if v := met2.Counter(telemetry.MetricGuideBuilds).Value(); v != 0 {
		t.Fatalf("restart rebuilt the guide %d times; want 0", v)
	}
	if v := met2.Counter(telemetry.MetricGuideWarm).Value(); v == 0 {
		t.Fatal("engine never adopted the warm guide")
	}
	if v := met2.Counter(telemetry.MetricRepoRebuilds).Value(); v != 0 {
		t.Fatalf("repository rebuilt %d indexes on a clean reopen", v)
	}

	// Run the rest of the scenario's queries (more expansion), drain, and
	// require the twice-persisted index to still verify exactly.
	for _, qsrc := range sc.Queries[1:] {
		out, err := m2.Query(context.Background(), Request{Document: sc.Name, Query: qsrc})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canon(out.Bindings), oracle[sc.Name+"|"+qsrc]; got != want {
			t.Fatalf("restarted %q diverges:\n got %s\nwant %s", qsrc, got, want)
		}
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := m2.Drain(ctx2); err != nil {
		t.Fatal(err)
	}
	rep, err = rp2.VerifyIndex(sc.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("index persisted by the second incarnation fails verification: %+v", rep)
	}
	if v := met2.Counter(telemetry.MetricGuideBuilds).Value(); v != 0 {
		t.Fatalf("second incarnation built %d guides end to end; want 0", v)
	}
}

// TestPlannerThreadsThroughSessions pins the Config.Engine.Planner
// contract: the template is copied into every session's options, so one
// shared cost planner schedules all tenants' batches — and, being a
// pure reorder/resize layer, leaves every answer equal to the
// planner-free serial oracle.
func TestPlannerThreadsThroughSessions(t *testing.T) {
	spec := suiteSpec()
	engine := core.Options{Strategy: core.LazyNFQ, Layering: true, Parallel: true, InvokeWorkers: 4, Incremental: true}
	oracleReg, oracleScenarios := workload.Suite(spec)
	oracle := serialOracle(t, oracleReg, oracleScenarios, engine)

	planner := plan.New(nil, plan.Options{})
	engine.Planner = planner
	m, scenarios, _ := newSuiteManager(t, Config{Engine: engine, MaxActive: 4}, spec)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, sc := range scenarios {
		for _, qsrc := range sc.Queries {
			for _, isolated := range []bool{false, true} {
				wg.Add(1)
				go func(sc workload.Scenario, qsrc string, isolated bool) {
					defer wg.Done()
					res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: qsrc, Isolated: isolated})
					if err != nil {
						errs <- fmt.Errorf("%s %q isolated=%v: %w", sc.Name, qsrc, isolated, err)
						return
					}
					if got, want := canon(res.Bindings), oracle[sc.Name+"|"+qsrc]; got != want {
						errs <- fmt.Errorf("%s %q isolated=%v: planned session diverges from oracle:\n got %s\nwant %s",
							sc.Name, qsrc, isolated, got, want)
					}
				}(sc, qsrc, isolated)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if planner.Stats().Batches == 0 {
		t.Fatal("shared planner was never consulted — Engine.Planner did not thread through the session template")
	}
}
