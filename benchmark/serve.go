package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/session"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// stack is an in-process session server on a loopback listener, wired
// exactly as `axmlload -self` wires it: response cache over profiler
// over a 16-slot invocation limiter, memory-only repository, and the
// given engine template.
type stack struct {
	mgr    *session.Manager
	cache  *service.Cache
	srv    *http.Server
	served chan struct{}
	client *http.Client
	url    string
}

type namedDoc struct {
	name   string
	doc    *tree.Document
	schema *schema.Schema
}

// selfEngine is axmlload's engine template.
var selfEngine = core.Options{Strategy: core.LazyNFQ, Incremental: true}

func newStack(reg *service.Registry, docs []namedDoc, engine core.Options, rec *recorder) (*stack, error) {
	metrics := telemetry.NewRegistry()
	prof := profile.New(0, nil)
	prof.ExposeProm(metrics)
	s := &stack{cache: service.NewCache(service.CacheSpec{}), served: make(chan struct{})}
	s.cache.Instrument(metrics)
	s.cache.Notify(prof.Notify())
	s.mgr = session.NewManager(session.Config{
		Registry: s.cache.Wrap(prof.Wrap(session.LimitRegistry(reg, 16, metrics))),
		Metrics:  metrics,
		Engine:   engine,
	})
	for _, d := range docs {
		// The manager materialises its masters in place; the oracle needs
		// the documents pristine.
		if err := s.mgr.AddDocument(d.name, d.doc.Clone(), d.schema); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	handler := session.Handler(s.mgr)
	if rec != nil {
		handler = traceHTTP(handler, rec)
	}
	s.srv = &http.Server{Handler: handler}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns ErrServerClosed from close
	}()
	clients := runtime.GOMAXPROCS(0)
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients}}
	return s, nil
}

func (s *stack) close() {
	s.client.CloseIdleConnections()
	_ = s.srv.Close()
	<-s.served
}

// post performs one POST /query. shed reports a 429.
func (s *stack) post(req session.QueryRequest, sp *open) (resp session.QueryResponse, shed bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return resp, false, err
	}
	hreq, err := http.NewRequest(http.MethodPost, s.url+"/query", bytes.NewReader(body))
	if err != nil {
		return resp, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	setSpanHeader(hreq, sp)
	hresp, err := s.client.Do(hreq)
	if err != nil {
		return resp, false, err
	}
	defer hresp.Body.Close()
	payload, err := io.ReadAll(hresp.Body)
	if err != nil {
		return resp, false, err
	}
	switch hresp.StatusCode {
	case http.StatusOK:
		return resp, false, json.Unmarshal(payload, &resp)
	case http.StatusTooManyRequests:
		return resp, true, nil
	}
	return resp, false, fmt.Errorf("POST /query: %s: %s", hresp.Status, bytes.TrimSpace(payload))
}

// ---- serve-hot and serve-churn ----

// job is one replayable hot query with its oracle answer.
type job struct {
	document, query, oracle string
	hotel                   bool // targets a hotel document (hundreds of bindings)
}

// writeTarget is one never-seen point query of serve-churn.
type writeTarget struct {
	document string
	hotel    int
}

type serve struct {
	e     *env
	churn bool
	st    *stack
	// order is the seeded permutation of the jobs the hot requests cycle
	// through: every query is asked equally often on every seed, so the
	// mix (and the number of re-evaluations a write causes) repeats.
	order   []int
	reg     *service.Registry
	docs    []namedDoc
	jobs    []job
	targets []writeTarget
	oracle  map[string]string // point-query answers by hotel name
	// warmCalls and warmVirtualMs are what filling the masters cost in
	// the paper's currency.
	warmCalls     int
	warmVirtualMs float64
	foot          float64
	next          atomic.Int64 // request index, shared by the clients
	began         time.Time    // start of the measuring window
}

// shedRetries bounds the retries after a 429; a request still shed after
// them counts as failed.
const shedRetries = 3

func setupServe(e *env, churn bool) (instance, error) {
	reg, scenarios := workload.Suite(hotelSpec(e.sc.serveHotels))
	s := &serve{e: e, churn: churn, reg: reg}
	for _, sc := range scenarios {
		s.docs = append(s.docs, namedDoc{sc.Name, sc.Doc, sc.Schema})
		hotel := sc.Name == "travel" || sc.Name == "distributed"
		for _, src := range sc.Queries {
			q, err := pattern.Parse(src)
			if err != nil {
				return nil, err
			}
			want, err := naive(sc.Doc, q, reg)
			if err != nil {
				return nil, err
			}
			s.jobs = append(s.jobs, job{document: sc.Name, query: src, oracle: want.answer, hotel: hotel})
			if churn && s.oracle == nil && hotel {
				// travel and distributed are the same world: one grouped
				// oracle serves the writes to both.
				s.oracle = pointOracle(want.doc)
			}
		}
	}
	dir, err := scratch(e, "footprint")
	if err != nil {
		return nil, err
	}
	if s.foot, err = storedRatio(dir, s.docs[0].doc, s.docs[0].schema); err != nil {
		return nil, err
	}
	if churn {
		// A write must invoke at least one call that no hot query has
		// materialised: odd hotels are neither "Best Western" (every 4th)
		// nor join matches (name = tag on even hotels).
		var all []writeTarget
		for _, doc := range []string{"travel", "distributed"} {
			for k := 1; k < e.sc.serveHotels; k += 2 {
				all = append(all, writeTarget{doc, k})
			}
		}
		for _, i := range permutation(e.seed, len(all)) {
			s.targets = append(s.targets, all[i])
		}
	}

	if e.rec != nil {
		s.reg = wrapHandlers(reg, e.rec, e.cnt)
	}
	if s.st, err = newStack(s.reg, s.docs, selfEngine, e.rec); err != nil {
		return nil, err
	}
	// Warm the masters: replay every hot query until each is answered
	// from the memo. A later query on the same document can splice the
	// master and send an earlier one through the engine once more, so
	// one round is not enough.
	for round := 0; ; round++ {
		memo := 0
		for _, j := range s.jobs {
			resp, _, err := s.st.post(session.QueryRequest{Document: j.document, Query: j.query}, nil)
			if err != nil {
				s.st.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			s.warmCalls += resp.CallsInvoked
			s.warmVirtualMs += resp.VirtualMs
			if resp.Memo {
				memo++
			}
		}
		if memo == len(s.jobs) {
			break
		}
		if round == 8 {
			s.st.close()
			return nil, fmt.Errorf("warm-up: masters not complete after %d rounds", round)
		}
	}
	return s, nil
}

// request describes request n of the schedule: a pure function of the
// seed, so every client goroutine derives the same sequence.
func (s *serve) request(n int64) (write bool, j job, tenant string, t writeTarget) {
	hot := n // index among the hot requests
	if s.churn {
		every := int64(s.e.sc.writeEvery)
		if n%every == every-1 {
			return true, job{}, "writer", s.targets[int(n/every)%len(s.targets)]
		}
		hot = n - n/every
	}
	// Hot requests come in blocks, each a fresh seeded permutation of the
	// jobs: every query is asked equally often on every seed, so the mix
	// (and the number of re-evaluations a write causes) repeats, while
	// which queries meet on the two clients varies from block to block.
	block, pos := hot/int64(len(s.jobs)), int(hot)%len(s.jobs)
	order := permutation(int64(splitmix(s.e.seed, uint64(block))), len(s.jobs))
	tenant = "t" + strconv.Itoa(int(splitmix(s.e.seed, uint64(n))%8))
	return false, s.jobs[order[pos]], tenant, writeTarget{}
}

func (s *serve) describe(n int) string {
	write, j, tenant, t := s.request(int64(n))
	if write {
		return "w " + t.document + " " + pointQuery(t.hotel)
	}
	return tenant + " " + j.document + " " + j.query
}

func (s *serve) measure(until time.Time, st *runStats) {
	st.seqHash = hashSequence(256, s.describe)
	// Closed loop: each client sends its next request when the previous
	// one is answered, as a tenant waiting for its reply does. One client
	// per processor — more connections than cores measures the scheduler.
	clients := runtime.GOMAXPROCS(0)
	maxWrites := int64(len(s.targets))
	parts := make([]runStats, clients)
	a0, t0 := allocBytes(), time.Now()
	s.began = t0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(part *runStats) {
			defer wg.Done()
			for time.Now().Before(until) {
				n := s.next.Add(1) - 1
				if s.churn && n/int64(s.e.sc.writeEvery) >= maxWrites {
					return // every write target used: a repeat would invoke nothing
				}
				s.one(n, part)
			}
		}(&parts[c])
	}
	wg.Wait()
	st.timedNs += int64(time.Since(t0))
	st.allocB += allocBytes() - a0
	for i := range parts {
		p := &parts[i]
		st.attempted += p.attempted
		st.failed += p.failed
		st.failures = append(st.failures, p.failures...)
		st.ops += p.ops
		st.opNs = append(st.opNs, p.opNs...)
		st.calls = append(st.calls, p.calls...)
		st.virtualMs = append(st.virtualMs, p.virtualMs...)
		st.reqs = append(st.reqs, p.reqs...)
		st.doneNs = append(st.doneNs, p.doneNs...)
		st.shed += p.shed
		st.writesWithoutCalls += p.writesWithoutCalls
	}
}

// one sends request n and verifies the answer.
func (s *serve) one(n int64, st *runStats) {
	write, j, tenant, target := s.request(n)
	req := session.QueryRequest{Tenant: tenant, Document: j.document, Query: j.query}
	want, kind := j.oracle, byte('s')
	switch {
	case write:
		req.Document, req.Query = target.document, pointQuery(target.hotel)
		want, kind = s.oracle[fmt.Sprintf("Hotel-%d", target.hotel)], 'w'
	case j.hotel:
		kind = 'h'
	}

	st.attempted++
	osp := s.e.rec.start("request", nil)
	defer osp.end()
	var resp session.QueryResponse
	var ns int64
	for try := 0; ; try++ {
		rsp := s.e.rec.start("http.roundtrip", osp)
		t0 := time.Now()
		r, shed, err := s.st.post(req, rsp)
		ns = int64(time.Since(t0))
		rsp.end()
		if err != nil {
			st.fail("%s: %v", req.Document, err)
			return
		}
		if !shed {
			resp = r
			break
		}
		st.shed++
		if try == shedRetries {
			st.fail("%s: shed %d times, gave up", req.Document, try+1)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	switch {
	case !resp.Complete:
		st.fail("%s %q: incomplete answer", req.Document, req.Query)
		return
	case canon(resp.Bindings) != want:
		st.fail("%s %q: answer differs from the naive fixpoint", req.Document, req.Query)
		return
	}
	st.ops++
	st.reqs = append(st.reqs, reqSample{op: osp.id(), ns: ns, kind: kind, memo: resp.Memo,
		queued: resp.QueuedMs, elapsed: resp.ElapsedMs})
	st.doneNs = append(st.doneNs, int64(time.Since(s.began)))
	switch kind {
	case 'h':
		// With writes about, the hot requests fall into two modes — memo
		// answers and re-evaluations — and the median of the mixture sits
		// between them and does not repeat. The op of serve-churn is the
		// re-evaluation: what a reader pays after a write.
		if !s.churn || !resp.Memo {
			st.opNs = append(st.opNs, ns)
		}
	case 'w':
		st.calls = append(st.calls, float64(resp.CallsInvoked))
		st.virtualMs = append(st.virtualMs, resp.VirtualMs)
		if resp.CallsInvoked == 0 {
			st.writesWithoutCalls++
		}
	}
}

func (s *serve) primary() primary {
	// The master-filling evaluation: the Figure-4 query on the travel
	// document under the template the manager derives for a document
	// that carries a schema.
	d := s.docs[0]
	opts := selfEngine
	opts.Strategy, opts.Schema = core.LazyNFQTyped, d.schema
	return primary{doc: d.doc, query: pattern.MustParse(s.jobs[0].query), querySrc: s.jobs[0].query,
		schema: d.schema, reg: s.reg, opts: opts, latency: workload.DefaultSpec().Latency,
		mgr: s.st.mgr, document: d.name}
}

func (s *serve) finish(st *runStats) {
	st.footprint = s.foot
	if !s.churn {
		// Every timed op is a memo answer and invokes nothing, so the
		// paper's currency is what filling the eight masters cost.
		st.calls = []float64{float64(s.warmCalls)}
		st.virtualMs = []float64{s.warmVirtualMs}
	}
	cs := s.st.cache.Stats()
	st.cacheHits, st.cacheLookups = cs.Hits+cs.Coalesced, cs.Hits+cs.Coalesced+cs.Misses
}

func (s *serve) close() { s.st.close() }
