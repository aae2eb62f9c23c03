package session

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/telemetry/spantest"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// invokeLog collects, through a tracer's sink, the calls an evaluation
// invokes, in order, as "service path".
type invokeLog struct {
	tracer *telemetry.Tracer
	calls  []string
}

func newInvokeLog() *invokeLog {
	l := &invokeLog{tracer: telemetry.NewTracer(0)}
	l.tracer.SetSink(func(s telemetry.Span) {
		if s.Name == "invoke" {
			l.calls = append(l.calls, spantest.Attr(s, "service")+" "+spantest.Attr(s, "path"))
		}
	})
	return l
}

// take returns the calls logged since the last take.
func (l *invokeLog) take() []string {
	out := l.calls
	l.calls = nil
	return out
}

// residents counts the document's texts that hold resident engine state.
func residents(e *entry) (n int, texts []string) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	for src, h := range e.queries {
		h.run.Lock()
		if h.resident != nil {
			n++
			texts = append(texts, src)
		}
		h.run.Unlock()
	}
	return n, texts
}

// TestResumedMatchesFresh is the resumed-vs-fresh differential: the
// TestStoredAnswersUnderWrites schedule — hot queries interleaved with
// never-seen point queries that splice the masters, 20 seeds — with every
// engine run of the session, resumed or not, compared bit for bit against
// a fresh guideless core.Evaluate on a clone of the master as it stood:
// bindings in order, completeness, the number and the sequence of invoked
// calls by service and path, and the virtual time; and against the
// naive-fixpoint oracle. The Memo ⇔ no-splice-since-completion assertion
// is unchanged. Never-seen texts must leave no resident state, and the
// runs after writes must in fact resume.
//
// Beside the honest writes a forger splices, under the entry lock, a
// five-star restaurant in place of a museum call (core's forge): under a
// Best Western hotel or one whose name is its tag, a write that changes a
// hot answer — which the typed variants, whose analysis leaves those calls
// pending, take. A forged document's oracle is the naive fixpoint of the
// master as it stood. A resumed run's bindings share the previous answer's
// array exactly when they equal it row for row; any other engine run's
// never do.
func TestResumedMatchesFresh(t *testing.T) {
	spec := suiteSpec()
	variants := []struct {
		name    string
		engine  core.Options
		untyped bool // register the documents without their schemas
	}{
		{"untyped", core.Options{Strategy: core.LazyNFQ, Incremental: true}, true},
		{"typed", core.Options{Strategy: core.LazyNFQ, Incremental: true}, false},
		{"layering", core.Options{Strategy: core.LazyNFQ, Incremental: true, Layering: true}, false},
		{"width1", core.Options{Strategy: core.LazyNFQ, Incremental: true, Layering: true, InvokeWorkers: 1, Parallel: true}, false},
		{"width2", core.Options{Strategy: core.LazyNFQ, Incremental: true, Layering: true, InvokeWorkers: 2}, false},
		{"width4", core.Options{Strategy: core.LazyNFQ, Incremental: true, Layering: true, InvokeWorkers: 4}, false},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			oracle := map[string]string{}
			var resumed int64
			shared, changed := 0, 0
			for seed := int64(0); seed < 20; seed++ {
				reg, scenarios := workload.Suite(spec)
				log := newInvokeLog()
				m := NewManager(Config{Registry: reg, Engine: v.engine, Tracer: log.tracer})
				hot := map[string]bool{}
				for i := range scenarios {
					if v.untyped {
						scenarios[i].Schema = nil
					}
					sc := scenarios[i]
					if err := m.AddDocument(sc.Name, sc.Doc.Clone(), sc.Schema); err != nil {
						t.Fatal(err)
					}
					for _, q := range sc.Queries {
						hot[sc.Name+"|"+q] = true
					}
				}
				rng := rand.New(rand.NewSource(seed))
				fresh := map[string]bool{} // doc|query → answered since the document's last splice
				prev := map[string][]tree.Binding{}
				forged := map[string]bool{}
				unseen := map[string][]int{}
				for _, sc := range scenarios[:2] {
					for k := 0; k < spec.Hotels+spec.HiddenHotels; k++ {
						if k%spec.TargetEvery != 0 {
							unseen[sc.Name] = append(unseen[sc.Name], k)
						}
					}
				}

				// Every hot query is asked twice up front, so each has been read
				// once and is resident from its next run on; the random steps
				// then lean towards the two documents the writes go to.
				for step := -2 * len(hot); step < 60; step++ {
					var sc workload.Scenario
					var qsrc string
					if step < 0 {
						i := (-step - 1) / 2
						sc = scenarios[i/2]
						qsrc = sc.Queries[i%2]
					} else {
						sc = scenarios[rng.Intn(6)%len(scenarios)]
						if sc.Name == "travel" || sc.Name == "distributed" {
							if rng.Intn(8) == 0 && forgeMuseum(t, resident(t, m, sc.Name), rng) {
								forged[sc.Name] = true
								for k := range fresh {
									if strings.HasPrefix(k, sc.Name+"|") {
										delete(fresh, k)
									}
								}
								continue
							}
						}
						qsrc = sc.Queries[rng.Intn(len(sc.Queries))]
						if ks := unseen[sc.Name]; len(ks) > 0 && rng.Intn(4) == 0 {
							i := rng.Intn(len(ks))
							qsrc = pointQuery(ks[i])
							unseen[sc.Name] = append(ks[:i], ks[i+1:]...)
						}
					}
					key := sc.Name + "|" + qsrc
					if _, ok := oracle[key]; !ok {
						oracle[key] = naiveOracle(t, reg, sc.Doc, qsrc)
					}
					e := resident(t, m, sc.Name)
					e.mu.RLock()
					before := e.master.Clone()
					e.mu.RUnlock()
					want := oracle[key]
					if forged[sc.Name] {
						want = naiveOracle(t, reg, before, qsrc)
					}

					resumedBefore := m.Stats().Resumed
					res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: qsrc})
					if err != nil {
						t.Fatalf("seed %d step %d %s: %v", seed, step, key, err)
					}
					got := log.take()
					if !res.Complete || canon(res.Bindings) != want {
						t.Fatalf("seed %d step %d %s: complete=%v, answer differs from the naive fixpoint:\n got %s\nwant %s",
							seed, step, key, res.Complete, canon(res.Bindings), want)
					}
					if res.Memo != fresh[key] {
						t.Fatalf("seed %d step %d %s: memo=%v, but answered-since-last-splice=%v", seed, step, key, res.Memo, fresh[key])
					}
					if !res.Memo {
						ref := newInvokeLog()
						opts := v.engine.WithSchema(sc.Schema)
						opts.Clock, opts.Tracer = &service.SimClock{}, ref.tracer
						out, err := core.Evaluate(before, pattern.MustParse(qsrc), reg, opts)
						if err != nil {
							t.Fatalf("seed %d step %d %s: fresh evaluation: %v", seed, step, key, err)
						}
						want := ref.take()
						if !reflect.DeepEqual(res.Bindings, cloneBindings(out.Results)) {
							t.Fatalf("seed %d step %d %s: bindings differ from a fresh evaluation of the master as it stood:\n got %v\nwant %v",
								seed, step, key, res.Bindings, cloneBindings(out.Results))
						}
						if res.Complete != out.Complete || res.Stats.CallsInvoked != out.Stats.CallsInvoked ||
							res.Stats.VirtualTime != out.Stats.VirtualTime || res.Stats.FinalSize != out.Stats.FinalSize {
							t.Fatalf("seed %d step %d %s: complete=%v calls=%d virtual=%v size=%d, fresh evaluation says %v %d %v %d",
								seed, step, key, res.Complete, res.Stats.CallsInvoked, res.Stats.VirtualTime, res.Stats.FinalSize,
								out.Complete, out.Stats.CallsInvoked, out.Stats.VirtualTime, out.Stats.FinalSize)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d step %d %s: invoked\n %s\na fresh evaluation invokes\n %s",
								seed, step, key, strings.Join(got, "\n "), strings.Join(want, "\n "))
						}
						if p := prev[key]; len(p) > 0 && len(res.Bindings) > 0 {
							resumedRun := m.Stats().Resumed > resumedBefore
							share := &res.Bindings[0] == &p[0]
							equal := reflect.DeepEqual(cloneBindings(out.Results), p)
							if share != (resumedRun && equal) {
								t.Fatalf("seed %d step %d %s: resumed=%v, answer equal to the previous one=%v, but shares its bindings=%v",
									seed, step, key, resumedRun, equal, share)
							}
							switch {
							case share:
								shared++
							case resumedRun:
								changed++
							}
						}
					}
					prev[key] = res.Bindings
					if res.Stats.CallsInvoked > 0 {
						for k := range fresh {
							if strings.HasPrefix(k, sc.Name+"|") {
								delete(fresh, k)
							}
						}
					}
					fresh[key] = true
				}
				for _, sc := range scenarios {
					_, texts := residents(resident(t, m, sc.Name))
					for _, q := range texts {
						if !hot[sc.Name+"|"+q] {
							t.Fatalf("seed %d: never-seen text %q of %s left resident state", seed, q, sc.Name)
						}
					}
				}
				resumed += m.Stats().Resumed
			}
			t.Logf("%d engine runs resumed resident state: %d kept the previous answer's bindings, %d changed it", resumed, shared, changed)
			if resumed < 100 {
				t.Fatalf("%d engine runs of 20 seeds resumed resident state: the differential compares too little that is new", resumed)
			}
			if shared == 0 || (!v.untyped && changed == 0) {
				t.Fatalf("%d resumed runs kept their answer and %d changed it: a branch is not exercised", shared, changed)
			}
		})
	}
}

// forgeMuseum splices, under the entry lock, a five-star restaurant with a
// name and an address in place of a museum call of the master, chosen at
// random, and reports whether it found one: what no honest service returns.
func forgeMuseum(t *testing.T, e *entry, rng *rand.Rand) bool {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	var museums []*tree.Node
	for _, c := range e.master.Calls() {
		if c.Label == "getNearbyMuseums" {
			museums = append(museums, c)
		}
	}
	if len(museums) == 0 {
		return false
	}
	call := museums[rng.Intn(len(museums))]
	r := tree.NewElement("restaurant")
	r.Append(tree.NewElement("name")).Append(tree.NewText(fmt.Sprintf("Forged-%d", call.ID)))
	r.Append(tree.NewElement("address")).Append(tree.NewText("nowhere"))
	r.Append(tree.NewElement("rating")).Append(tree.NewText("*****"))
	e.guide.ApplyExpansion(e.master.ReplaceCall(call, []*tree.Node{r}))
	return true
}

// TestCancelledWriterLeavesResidentsSound: a write whose client hangs up
// after its first response was spliced ends with the context's error, gives
// back its holds, its claims and its admission token, and leaves the
// splice it did make in the master's records — the hot query's next run
// resumes and is, bit for bit, the fresh evaluation of the master as the
// cancelled write left it (TestResumedMatchesFresh's comparison).
func TestCancelledWriterLeavesResidentsSound(t *testing.T) {
	for _, v := range []struct {
		name   string
		engine core.Options
	}{
		{"sequential", core.Options{Strategy: core.LazyNFQ, Incremental: true}},
		{"width4", core.Options{Strategy: core.LazyNFQ, Incremental: true, Layering: true, InvokeWorkers: 4}},
	} {
		t.Run(v.name, func(t *testing.T) {
			reg, scenarios := workload.Suite(suiteSpec())
			sc := scenarios[0]
			// While a request is doomed, the first provider it reaches sees
			// its client leave — and answers all the same.
			var doomed atomic.Pointer[context.CancelFunc]
			leaving := reg.Proxy(func(_ *service.Service, next service.Invoker) service.Invoker {
				return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
					if hangUp := doomed.Swap(nil); hangUp != nil {
						(*hangUp)()
					}
					return next(ctx, params, pushed)
				}
			})
			log := newInvokeLog()
			m := NewManager(Config{Registry: leaving, Engine: v.engine, Tracer: log.tracer, MaxActive: 1, MaxQueued: -1})
			if err := m.AddDocument(sc.Name, sc.Doc.Clone(), sc.Schema); err != nil {
				t.Fatal(err)
			}
			e := resident(t, m, sc.Name)
			ask := func(qsrc string) *Result {
				t.Helper()
				res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: qsrc})
				if err != nil {
					t.Fatalf("%q: %v", qsrc, err)
				}
				return res
			}
			hot := sc.Queries[0]
			// Run, read the stored answer (the text is hot from here), write,
			// run again: this run's state stays resident.
			ask(hot)
			ask(hot)
			ask(pointQuery(1))
			ask(hot)
			if n, _ := residents(e); n != 1 {
				t.Fatalf("%d resident texts before the cancelled write, want the hot query's", n)
			}

			ctx, hangUp := context.WithCancel(context.Background())
			doomed.Store(&hangUp)
			at := e.master.Version()
			if _, err := m.Query(ctx, Request{Document: sc.Name, Query: pointQuery(2)}); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled write: got %v, want context.Canceled", err)
			}
			if e.master.Version() == at {
				t.Fatal("the cancelled write spliced nothing: the response that had arrived was dropped")
			}
			if st := m.Stats(); st.Active != 0 {
				t.Fatalf("the cancelled write kept its admission token: %+v", st)
			}
			if n, _ := residents(e); n != 1 {
				t.Fatalf("%d resident texts after the cancelled write, want the hot query's", n)
			}

			// MaxActive 1 and no queue: a leaked token or lock fails this ask.
			before := e.master.Clone()
			log.take()
			resumedBefore := m.Stats().Resumed
			res := ask(hot)
			got := log.take()
			if res.Memo || m.Stats().Resumed != resumedBefore+1 {
				t.Fatalf("the hot query's run after the cancelled write: memo=%v, resumed %d → %d; want an engine run that resumes",
					res.Memo, resumedBefore, m.Stats().Resumed)
			}
			ref := newInvokeLog()
			opts := v.engine.WithSchema(sc.Schema)
			opts.Clock, opts.Tracer = &service.SimClock{}, ref.tracer
			out, err := core.Evaluate(before, pattern.MustParse(hot), reg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Bindings, cloneBindings(out.Results)) || res.Complete != out.Complete ||
				res.Stats.CallsInvoked != out.Stats.CallsInvoked || res.Stats.VirtualTime != out.Stats.VirtualTime ||
				res.Stats.FinalSize != out.Stats.FinalSize || !reflect.DeepEqual(got, ref.take()) {
				t.Fatalf("resumed run differs from a fresh evaluation of the master as the cancelled write left it:\n got %v %+v %v\nwant %v %+v",
					res.Bindings, res.Stats, got, cloneBindings(out.Results), out.Stats)
			}
			if want := naiveOracle(t, reg, sc.Doc, hot); !res.Complete || canon(res.Bindings) != want {
				t.Fatalf("answer differs from the naive fixpoint:\n got %s\nwant %s", canon(res.Bindings), want)
			}
		})
	}
}

// namesWorld is a document where one write's response brings a service
// name the document has not held before (getB returns a getC call), two
// writes that bring none, and one service that breaks its signature: getE
// is declared to return x and also returns a getPlain call, whose w no
// typed analysis could have expected below /r/e.
func namesWorld() (*tree.Document, *schema.Schema, *service.Registry) {
	doc, err := tree.Unmarshal([]byte(`
<r>
  <a>
    <item><k>1</k><axml:call service="getV">1</axml:call></item>
    <item><k>2</k><axml:call service="getV">2</axml:call></item>
    <item><k>3</k><axml:call service="getV">3</axml:call></item>
  </a>
  <b><axml:call service="getB"/></b>
  <c><axml:call service="getPlain">c</axml:call></c>
  <d><axml:call service="getPlain">d</axml:call></d>
  <e><axml:call service="getE"/></e>
</r>`))
	if err != nil {
		panic(err)
	}
	sch := schema.MustParse(`
functions:
  getV     = [in: data, out: v]
  getB     = [in: data, out: w.getC]
  getC     = [in: data, out: w]
  getPlain = [in: data, out: w]
  getE     = [in: data, out: x]
elements:
  r    = a.b.c.d.e
  a    = item*
  item = k.(v|getV)
  b    = (w|getB|getC)*
  c    = (w|getPlain)*
  d    = (w|getPlain)*
  e    = (x|getE|w|getPlain)*
  x    = data
  k    = data
  v    = data
  w    = data
`)
	leaf := func(name, value string) *tree.Node {
		n := tree.NewElement(name)
		n.Append(tree.NewText(value))
		return n
	}
	reg := service.NewRegistry()
	reg.Register(&service.Service{Name: "getV", Latency: time.Millisecond, Handler: func(p []*tree.Node) ([]*tree.Node, error) {
		return []*tree.Node{leaf("v", "v"+p[0].Text())}, nil
	}})
	reg.Register(&service.Service{Name: "getB", Latency: time.Millisecond, Handler: func([]*tree.Node) ([]*tree.Node, error) {
		return []*tree.Node{leaf("w", "b"), tree.NewCall("getC")}, nil
	}})
	reg.Register(&service.Service{Name: "getC", Latency: time.Millisecond, Handler: func([]*tree.Node) ([]*tree.Node, error) {
		return []*tree.Node{leaf("w", "cc")}, nil
	}})
	reg.Register(&service.Service{Name: "getE", Latency: time.Millisecond, Handler: func([]*tree.Node) ([]*tree.Node, error) {
		return []*tree.Node{leaf("x", "x"), tree.NewCall("getPlain", tree.NewText("e"))}, nil
	}})
	reg.Register(&service.Service{Name: "getPlain", Latency: time.Millisecond, Handler: func(p []*tree.Node) ([]*tree.Node, error) {
		return []*tree.Node{leaf("w", p[0].Text())}, nil
	}})
	return doc, sch, reg
}

// TestResidentStateAndNewServiceNames walks one hot query through the
// residency rules. Its first run leaves nothing behind; once its stored
// answer has been read its next run keeps its state; the run after that
// resumes — after a write that brought no new service name it validates no
// candidate at all, after one that did it finds its relevance evaluators
// gone with the query objects they answered for and validates the remaining
// candidates again. Every answer is right, and the point-query writes never
// become resident.
func TestResidentStateAndNewServiceNames(t *testing.T) {
	doc, sch, reg := namesWorld()
	metrics := telemetry.NewRegistry()
	m := NewManager(Config{Registry: reg, Metrics: metrics, Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}})
	if err := m.AddDocument("d", doc, sch); err != nil {
		t.Fatal(err)
	}
	e := resident(t, m, "d")
	ask := func(q string) *Result {
		t.Helper()
		res, err := m.Query(context.Background(), Request{Document: "d", Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("%q: incomplete", q)
		}
		return res
	}
	const hot = `/r/a/item[k="1"]/v/$V -> $V`
	engineRun := func(wantResumed bool, wantResidents int) *Result {
		t.Helper()
		was := m.Stats().Resumed
		res := ask(hot)
		if res.Memo || canon(res.Bindings) != "V=v1" {
			t.Fatalf("hot query: memo=%v bindings %s, want an engine run answering V=v1", res.Memo, canon(res.Bindings))
		}
		if got := m.Stats().Resumed - was; (got == 1) != wantResumed {
			t.Fatalf("hot query: resumed=%d, want resumed=%v", got, wantResumed)
		}
		if n, texts := residents(e); n != wantResidents {
			t.Fatalf("%d resident texts %q, want %d", n, texts, wantResidents)
		}
		if !ask(hot).Memo {
			t.Fatal("repeat of the hot query on an unchanged master is not a memo answer")
		}
		return res
	}
	write := func(q, want string) {
		t.Helper()
		if res := ask(q); res.Stats.CallsInvoked == 0 || canon(res.Bindings) != want {
			t.Fatalf("write %q: %d calls, bindings %s, want %s", q, res.Stats.CallsInvoked, canon(res.Bindings), want)
		}
	}

	engineRun(false, 0) // never read before: one-shot
	write(`/r/c/w/$W -> $W`, "W=c")
	engineRun(false, 1) // read since: from the master, and kept
	write(`/r/d/w/$W -> $W`, "W=d")
	if res := engineRun(true, 1); res.Stats.GuideCandidates != 0 || res.Stats.CallsInvoked != 0 {
		t.Fatalf("resumed after a write elsewhere that brought no new name: %d candidates validated, %d calls invoked, want none",
			res.Stats.GuideCandidates, res.Stats.CallsInvoked)
	}
	write(`/r/b/w/$W -> $W`, "W=b;W=cc") // getB's response holds a getC call: a new name
	if res := engineRun(true, 1); res.Stats.GuideCandidates == 0 {
		t.Fatal("resumed after a write that brought a new service name: no candidate validated — the evaluators outlived their query objects")
	}
	if got, met := m.Stats().Resumed, metrics.Counter(telemetry.MetricSessionsResumed).Value(); got != 2 || met != 2 {
		t.Fatalf("Stats.Resumed = %d, %s = %d, want 2 and 2", got, telemetry.MetricSessionsResumed, met)
	}
}

// TestResumedRunInvokesWhatArrived covers the one way a call can become
// relevant to a query its document was complete for: a service that returns
// what its signature rules out. The hot query collects every w; the typed
// analysis prunes getE, declared to return x. When another query invokes
// getE and a getPlain call arrives with the response, the hot query's
// resumed run must be offered it through the splice records, invoke it, and
// answer like an evaluation from scratch.
func TestResumedRunInvokesWhatArrived(t *testing.T) {
	for _, engine := range []core.Options{
		{Strategy: core.LazyNFQ, Incremental: true},
		{Strategy: core.LazyNFQ, Incremental: true, Layering: true},
	} {
		doc, sch, reg := namesWorld()
		m := NewManager(Config{Registry: reg, Engine: engine})
		if err := m.AddDocument("d", doc, sch); err != nil {
			t.Fatal(err)
		}
		ask := func(q, want string, calls int, memo bool) {
			t.Helper()
			res, err := m.Query(context.Background(), Request{Document: "d", Query: q})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete || canon(res.Bindings) != want || res.Stats.CallsInvoked != calls || res.Memo != memo {
				t.Fatalf("layering=%v %q: complete=%v memo=%v, %d calls, bindings %s; want memo=%v, %d calls, %s",
					engine.Layering, q, res.Complete, res.Memo, res.Stats.CallsInvoked, canon(res.Bindings), memo, calls, want)
			}
		}
		const hot = `/r//w/$W -> $W`
		ask(hot, "W=b;W=c;W=cc;W=d", 4, false)
		ask(hot, "W=b;W=c;W=cc;W=d", 0, true)
		ask(`/r/a/item[k="2"]/v/$V -> $V`, "V=v2", 1, false)
		ask(hot, "W=b;W=c;W=cc;W=d", 0, false)  // from the master; state kept
		ask(`/r/e/x/$X -> $X`, "X=x", 1, false) // getE brings a getPlain call the hot query wants
		ask(hot, "W=b;W=c;W=cc;W=d;W=e", 1, false)
		if got := m.Stats().Resumed; got != 1 {
			t.Fatalf("layering=%v: Stats.Resumed = %d, want 1: the run that invoked the arrived call did not resume", engine.Layering, got)
		}
		ask(hot, "W=b;W=c;W=cc;W=d;W=e", 0, true)
	}
}

// BenchmarkWriteWithResidents measures what a write costs its writer while n
// other texts over the master are resident: one never-seen point query's
// engine run on the 500-hotel travel master, the setup and the checks
// untimed. A writer tells nobody of its splices — each resident reads them
// from the master's records when it next runs — so B/op and allocs/op do
// not grow with n. The sizes stop at 1000, not maxHotQueries: the writes'
// own texts are remembered too, and a full map would sweep the texts out
// before they become resident.
func BenchmarkWriteWithResidents(b *testing.B) {
	for _, n := range []int{1, 64, 1000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) { writeWithResidents(b, n) })
	}
}

func writeWithResidents(b *testing.B, n int) {
	m, doc, writes := writesWithResidents(b, n, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(writes) == 0 {
			b.StopTimer()
			m, doc, writes = writesWithResidents(b, n, nil)
			b.StartTimer()
		}
		w, err := m.Query(context.Background(), Request{Document: doc, Query: writes[0]})
		if err != nil {
			b.Fatal(err)
		}
		if w.Stats.CallsInvoked == 0 {
			b.Fatalf("%q invoked no call", writes[0])
		}
		writes = writes[1:]
	}
}

// writesWithResidents builds a manager over the 500-hotel travel master
// with n texts resident and one point query written, and returns the
// never-seen point queries left to write, each a write of the shape that one
// ran: a warm shape on a warm master. metrics, when set, receives the
// manager's counters.
func writesWithResidents(tb testing.TB, n int, metrics *telemetry.Registry) (m *Manager, doc string, writes []string) {
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = 500, 100
	for k := 0; k < spec.Hotels+spec.HiddenHotels; k++ {
		if k%spec.TargetEvery != 0 { // a hotel no hot text materialises
			writes = append(writes, pointQuery(k))
		}
	}
	ask := func(q string) *Result {
		res, err := m.Query(context.Background(), Request{Document: doc, Query: q})
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
	reg, scenarios := workload.Suite(spec)
	m = NewManager(Config{Registry: reg, Metrics: metrics, Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}})
	sc := scenarios[0]
	if err := m.AddDocument(sc.Name, sc.Doc, sc.Schema); err != nil {
		tb.Fatal(err)
	}
	doc = sc.Name
	texts := make([]string, n)
	for i := range texts {
		texts[i] = fmt.Sprintf(`/hotels/hotel[name="Hotel-%d"]/name/$X -> $X`, i)
		ask(texts[i])
		ask(texts[i]) // read: the text is hot from here
	}
	if ask(writes[0]).Stats.CallsInvoked == 0 { // a write: every stored answer is stale
		tb.Fatal("the first write invoked no call")
	}
	for _, q := range texts {
		ask(q) // an engine run whose state stays resident
	}
	if got, _ := residents(resident(tb, m, doc)); got != n {
		tb.Fatalf("%d resident texts, want %d", got, n)
	}
	return m, doc, writes[1:]
}

// warmWriteBytes bounds what one point-query write allocates on the
// 500-hotel travel master once its shape has been written: 1.57 MB when
// every evaluator grew its memo table from empty and the answer joined
// every hotel, about 0.69 MB once the first offer of guide candidates is
// probed at the hotel the write names, about 0.07 MB once the answer is
// too.
const warmWriteBytes = 128 << 10

// TestWarmWriteAllocationCeiling pins the anchored write: ten writes of a
// warm shape, beside one resident text, allocate at most warmWriteBytes
// each on average.
func TestWarmWriteAllocationCeiling(t *testing.T) {
	m, doc, writes := writesWithResidents(t, 1, nil)
	const n = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range writes[:n] {
		res, err := m.Query(context.Background(), Request{Document: doc, Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CallsInvoked == 0 {
			t.Fatalf("%q invoked no call: not a write", q)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per warm write", per)
	if per > warmWriteBytes {
		t.Fatalf("a warm write allocates %d bytes, ceiling %d", per, warmWriteBytes)
	}
}

// TestWarmWriteProbesNamedAnchor pins the probed first offer and the
// anchored answer: a warm write on the 500-hotel master validates only the
// guide candidates below the hotel its constant names — at most 8, where
// offering every candidate validated 1 200 — and recomputes at most twice
// as many memo entries, detection's and the answer's together, as that
// hotel's subtree has nodes, where joining the answer's row of every hotel
// recomputes at least one entry per hotel (600). The same text on a copy of
// the master, in a run that builds its own guide, answers the same bindings
// in the same order and still validates at least 1 000 candidates: the
// probes run on adopted guides only.
func TestWarmWriteProbesNamedAnchor(t *testing.T) {
	m, doc, writes := writesWithResidents(t, 1, nil)
	q := writes[0]
	e := resident(t, m, doc)
	e.mu.Lock()
	twin := e.master.Clone()
	e.mu.Unlock()
	res, err := m.Query(context.Background(), Request{Document: doc, Query: q})
	if err != nil {
		t.Fatal(err)
	}
	opt := m.cfg.Engine.WithSchema(e.schema)
	opt.UseGuide = true
	own, err := core.Evaluate(twin, pattern.MustParse(q), m.cfg.Registry, opt)
	if err != nil {
		t.Fatal(err)
	}
	hotel := 0 // nodes below the hotel q names, itself included
	e.mu.RLock()
	for _, h := range e.master.Root.Children {
		if strings.Contains(q, strconv.Quote(h.Children[0].Text())) {
			h.Walk(func(*tree.Node) bool { hotel++; return true })
		}
	}
	e.mu.RUnlock()
	t.Logf("%q: %d candidates validated and %d entries recomputed on the adopted guide, %d and %d on a guide of its own; %d nodes in the hotel",
		q, res.Stats.GuideCandidates, res.Stats.NodesVisited, own.Stats.GuideCandidates, own.Stats.NodesVisited, hotel)
	if res.Stats.CallsInvoked == 0 || own.Stats.CallsInvoked != res.Stats.CallsInvoked {
		t.Fatalf("%d calls invoked on the adopted guide, %d on a guide of its own; want the same write", res.Stats.CallsInvoked, own.Stats.CallsInvoked)
	}
	if want := cloneBindings(own.Results); !reflect.DeepEqual(res.Bindings, want) {
		t.Fatalf("the write answers %v on the adopted guide, %v on a guide of its own", res.Bindings, want)
	}
	if res.Stats.GuideCandidates > 8 {
		t.Fatalf("a warm write validates %d guide candidates, want at most 8", res.Stats.GuideCandidates)
	}
	if hotel == 0 || res.Stats.NodesVisited > 2*hotel {
		t.Fatalf("a warm write recomputes %d memo entries, want at most twice the %d nodes of the hotel it names", res.Stats.NodesVisited, hotel)
	}
	if own.Stats.GuideCandidates < 1000 {
		t.Fatalf("a run building its own guide validates %d candidates, want at least 1000: no probe there", own.Stats.GuideCandidates)
	}
}

// resumedRunCost measures a hot query's resumed engine run on the travel
// master at the given size, each run after a write that splices one museum
// call of a hotel the query does not match: the memo entries the run
// recomputes and its allocations, the write included.
func resumedRunCost(t *testing.T, hotels int) (visited int, allocs float64) {
	t.Helper()
	spec := workload.DefaultSpec()
	spec.Hotels, spec.HiddenHotels = hotels, hotels/5
	reg, scenarios := workload.Suite(spec)
	m := NewManager(Config{Registry: reg, Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}})
	sc := scenarios[0]
	if err := m.AddDocument(sc.Name, sc.Doc, sc.Schema); err != nil {
		t.Fatal(err)
	}
	hot := Request{Document: sc.Name, Query: sc.Queries[0]}
	ask := func(req Request) *Result {
		res, err := m.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ask(hot)
	ask(hot) // read: the text is hot from here
	ask(Request{Document: sc.Name, Query: pointQuery(1)})
	ask(hot) // an engine run whose state stays resident

	e := resident(t, m, sc.Name)
	var targets []*tree.Node
	for _, c := range e.master.Calls() {
		if c.Label == "getNearbyMuseums" && c.Parent.Parent.Children[0].Text() != workload.TargetName {
			targets = append(targets, c)
		}
	}
	run := func() {
		e.mu.Lock()
		call := targets[0]
		targets = targets[1:]
		resp, err := reg.Invoke(call.Label, tree.CloneForest(call.Children), nil)
		if err == nil {
			e.guide.ApplyExpansion(e.master.ReplaceCall(call, resp.Forest))
		}
		e.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		was := m.Stats().Resumed
		res := ask(hot)
		if res.Memo || m.Stats().Resumed != was+1 {
			t.Fatalf("%d hotels: the run after a write is not a resumed engine run (memo=%v)", hotels, res.Memo)
		}
		visited = res.Stats.NodesVisited
	}
	allocs = testing.AllocsPerRun(10, run)
	return visited, allocs
}

// TestResumedRunIsOChange is the result view's ceiling: after a write that
// splices one hotel the query does not match, a resumed run recomputes as
// many memo entries, and allocates as much, at 500 hotels as at 100 —
// within 1.5× — where re-joining the root element's rows and copying the
// bindings out would grow with the answer.
func TestResumedRunIsOChange(t *testing.T) {
	v100, a100 := resumedRunCost(t, 100)
	v500, a500 := resumedRunCost(t, 500)
	t.Logf("resumed run: 100 hotels %d entries recomputed, %.0f allocations; 500 hotels %d, %.0f", v100, a100, v500, a500)
	if float64(v500) > 1.5*float64(v100) || float64(v100) > 1.5*float64(v500) {
		t.Fatalf("entries recomputed: %d at 100 hotels, %d at 500 — not within 1.5×", v100, v500)
	}
	if a500 > 1.5*a100 || a100 > 1.5*a500 {
		t.Fatalf("allocations: %.0f at 100 hotels, %.0f at 500 — not within 1.5×", a100, a500)
	}
}

// TestStatsResidentRows: the rows resident evaluations keep are 0 on a
// fresh manager, grow with each text that becomes resident, are untouched
// by a memo read, are estimated at residentRowBytes a row, and return to 0
// once eviction sweeps the resident texts out — also as GET /stats reports
// them.
func TestStatsResidentRows(t *testing.T) {
	m, scenarios, _ := newSuiteManager(t, Config{Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}}, suiteSpec())
	sc := scenarios[0]
	e := resident(t, m, sc.Name)
	ask := func(q string) *Result {
		t.Helper()
		res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: q})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rows := func() int64 {
		t.Helper()
		rec := httptest.NewRecorder()
		Handler(m).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st Stats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.ResidentRows != m.Stats().ResidentRows || st.ResidentBytes != st.ResidentRows*residentRowBytes {
			t.Fatalf("GET /stats says %d rows, %d bytes; Stats says %d rows", st.ResidentRows, st.ResidentBytes, m.Stats().ResidentRows)
		}
		return st.ResidentRows
	}
	if n := rows(); n != 0 {
		t.Fatalf("%d resident rows before any query", n)
	}
	last := int64(0)
	for i, hot := range sc.Queries {
		ask(hot)
		ask(hot) // read: hot from here
		ask(pointQuery(2*i + 1))
		ask(hot) // its state stays resident
		n := rows()
		if n <= last {
			t.Fatalf("%d resident texts keep %d rows, %d before the last became resident", i+1, n, last)
		}
		last = n
	}
	ask(sc.Queries[0]) // resumes after the second text's write
	last = rows()
	if !ask(sc.Queries[0]).Memo || !ask(sc.Queries[1]).Memo {
		t.Fatal("the hot texts' repeats are not memo answers")
	}
	if n := rows(); n != last {
		t.Fatalf("memo reads moved the resident rows: %d → %d", last, n)
	}
	// Texts nobody reads: two eviction sweeps forget the hot ones, which are
	// not read in between.
	for i := 0; i < 3*maxHotQueries; i++ {
		if n, _ := residents(e); n == 0 {
			break
		}
		ask(fmt.Sprintf(`/hotels/none%d/$V -> $V`, i))
	}
	if n, texts := residents(e); n != 0 {
		t.Fatalf("%d texts still resident after the sweeps: %q", n, texts)
	}
	if n := rows(); n != 0 {
		t.Fatalf("%d resident rows once the resident texts are evicted", n)
	}
}

// TestShapeSharedWritesMatchOracle runs 200 point-query writes — never-seen
// texts of one shape, on the two hotel documents that share a schema, so
// all but the first are bound to the shape's shared analysis — each
// followed by a hot read of a suite query. Every write must invoke a call
// and answer what one grouped evaluation over the fully materialised world
// says of its hotel; every read must answer what the serial oracle says.
func TestShapeSharedWritesMatchOracle(t *testing.T) {
	spec := suiteSpec()
	spec.Hotels, spec.HiddenHotels = 200, 40
	engine := core.Options{Strategy: core.LazyNFQ, Incremental: true}
	metrics := telemetry.NewRegistry()
	m, scenarios, reg := newSuiteManager(t, Config{Engine: engine, Metrics: metrics}, spec)
	oracle := serialOracle(t, reg, scenarios, engine)

	full := scenarios[0].Doc.Clone()
	if _, err := core.Evaluate(full, pattern.MustParse(`/hotels`), reg, core.Options{Strategy: core.NaiveFixpoint}); err != nil {
		t.Fatal(err)
	}
	grouped := map[string][]tree.Binding{}
	rs, _ := pattern.Eval(full, pattern.MustParse(`/hotels/hotel[name=$N]/nearby//restaurant[name=$X][rating=$R] -> $N, $X, $R`))
	for _, r := range rs {
		n := r.Values["N"]
		grouped[n] = append(grouped[n], tree.Binding{"X": r.Values["X"], "R": r.Values["R"]})
	}

	rng := rand.New(rand.NewSource(1))
	ask := func(doc, q string) *Result {
		t.Helper()
		res, err := m.Query(context.Background(), Request{Document: doc, Query: q})
		if err != nil {
			t.Fatalf("%s %q: %v", doc, q, err)
		}
		if !res.Complete {
			t.Fatalf("%s %q: incomplete", doc, q)
		}
		return res
	}
	writes := 0
	for k := 1; writes < 200; k += 2 { // odd hotels: no hot query materialises them
		for _, doc := range []string{"travel", "distributed"} {
			res := ask(doc, pointQuery(k))
			if want := canon(grouped[fmt.Sprintf("Hotel-%d", k)]); res.Stats.CallsInvoked == 0 || canon(res.Bindings) != want {
				t.Fatalf("write %d (%s, Hotel-%d): %d calls invoked, answer\n %s\nwant\n %s",
					writes, doc, k, res.Stats.CallsInvoked, canon(res.Bindings), want)
			}
			writes++
			sc := scenarios[rng.Intn(len(scenarios))]
			q := sc.Queries[rng.Intn(len(sc.Queries))]
			if got, want := canon(ask(sc.Name, q).Bindings), oracle[sc.Name+"|"+q]; got != want {
				t.Fatalf("after write %d, %s %q:\n got %s\nwant %s", writes, sc.Name, q, got, want)
			}
		}
	}
	if n := metrics.Counter(telemetry.MetricSessionsShapeReused).Value(); n < int64(writes-1) {
		t.Fatalf("%d writes of one shape, %s = %d", writes, telemetry.MetricSessionsShapeReused, n)
	}
	if n := m.Stats().Shapes; n > 1+len(oracle) {
		t.Fatalf("%d shapes for one write shape and %d suite texts", n, len(oracle))
	}
}
