// Package session turns the lazy evaluation engine into a multi-tenant
// query service: a repository of named AXML documents, each evaluated
// lazily in place by concurrent client sessions that share the master's
// materialisation, its stored answers, one response cache and one bounded
// invocation pool.
//
// The sharing is the point. The paper's laziness pays off per query —
// invoke only relevant calls — but a server amortises further across
// queries: a call materialised for one tenant's query never needs
// invoking again for anyone (the master document keeps the result), the
// response cache deduplicates identical invocations across documents,
// and the answer of an engine run that ended complete is stored per
// (document, query text) and handed to every repeat of the query until
// the master next changes — a memo answer is a stored answer, nothing is
// re-evaluated, and over HTTP nothing is re-encoded: POST /query sends the
// JSON the answer was encoded to once. Soundness rests on the paper's completeness invariant
// (Definition 3): a query's full result does not depend on how much of
// the document is already materialised, so evaluating against a master
// that other tenants have partially materialised returns exactly the
// serial-world result, and once the master is complete for a query that
// result stays the full result for as long as the document is unchanged.
//
// When the master does change, what a hot query pays is the change. Every
// resident master keeps a synced F-guide and every shared-mode run detects
// through it, so relevance detection costs the candidates, not the
// document. A text's analysis (core.Prepare) is done once. And a text whose
// stored answer has been read is resident: the engine state of its last
// complete run (core.Evaluation) stays with it, and its next engine run
// reads the splices other queries made since from the master's own splice
// records and resumes — offers its call views the calls that arrived,
// re-checks the verdicts the splices touched, invokes what became relevant,
// re-joins only the rows of its answer the splices touched. A write costs
// the same however many texts are resident: nobody is told of a splice,
// each reader catches up when it next runs.
// The answer is still an engine run's (Result.Memo false), bit for bit the
// one an evaluation from scratch would give; when no row of it changed
// (core.Outcome.Unchanged) it is stored again as the bindings and the JSON
// the previous answer already had. A text nobody came back for — every
// one-off point query — runs one-shot and leaves nothing behind.
//
// Concurrency control is two-level. A weighted FIFO admission semaphore
// bounds the queries executing at once and sheds load (ShedError → HTTP
// 429) when its bounded wait queue overflows — backpressure, never
// unbounded buffering. Within a document, engine runs in shared mode
// serialise on the entry's write lock (the engine mutates the master in
// place), and isolated-mode queries take the read lock to clone the master
// and evaluate the clone in parallel, paying materialisation cost for
// isolation. A memo answer takes no lock at all: it compares its stored
// answer's version with the master's atomic one, and every splice bumps
// that version as its last step. A reader that still sees the version its
// answer was stored at is served before the first splice of whatever run
// holds the write lock, so it never waits for a writer — nor for one that
// is itself only waiting for the lock. The query texts a document
// remembers have a lock of their own, never held across an engine run, so
// a text seen for the first time waits for no run either, unless the map
// is full and must evict. Every wait for an entry lock is timed
// (axml_session_lock_wait_seconds).
package session

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/repo"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// ErrDraining reports that the server is shutting down: queued and new
// queries are refused (HTTP 503) while active ones finish.
var ErrDraining = errors.New("session: server draining")

// UnknownDocumentError reports a query against a document the repository
// does not hold (HTTP 404).
type UnknownDocumentError struct{ Name string }

func (e *UnknownDocumentError) Error() string {
	return fmt.Sprintf("session: unknown document %q", e.Name)
}

// BadQueryError reports an unparsable query (HTTP 400).
type BadQueryError struct{ Err error }

func (e *BadQueryError) Error() string { return "session: bad query: " + e.Err.Error() }
func (e *BadQueryError) Unwrap() error { return e.Err }

// Config assembles a Manager. Registry is the only required field.
type Config struct {
	// Registry serves every document's Web services. Wrap it in the
	// shared cache/limiter stack before handing it over (ServingRegistry)
	// or pre-compose your own.
	Registry *service.Registry
	// Repo, when set, backs the document repository with the persistent
	// indexed store of internal/repo: documents not yet resident are
	// loaded from it on first query together with their persisted schema
	// and F-guide (so a restarted server serves queries from the warm
	// index, no rebuild), and Drain persists every master back with its
	// incrementally maintained index. Nil keeps the repository
	// memory-only.
	Repo *repo.Repo
	// Metrics receives the session counters, gauges and latency
	// histograms (axml_sessions_*); nil disables them.
	Metrics *telemetry.Registry
	// Tracer receives the engine's evaluation spans; nil disables.
	Tracer *telemetry.Tracer
	// Engine is the evaluation template: strategy, layering, parallelism,
	// retry and failure policy for every query. Per-query fields (Clock,
	// Metrics, Tracer, Guide, Schema) are overridden by the manager.
	// Engine.Planner is copied through verbatim, so one shared planner
	// (plan.CostPlanner is safe for concurrent use) schedules every
	// session's batches from the same learned profile.
	Engine core.Options
	// MaxActive bounds concurrently executing queries (admission tokens);
	// 0 means GOMAXPROCS.
	MaxActive int
	// MaxQueued bounds the admission wait queue; past it queries are shed
	// with ShedError. 0 means 4×MaxActive; negative means no queue (shed
	// immediately when saturated).
	MaxQueued int
	// RetryAfter is the backoff hint attached to shed responses; 0 means
	// 500ms.
	RetryAfter time.Duration
	// Isolated, when true, evaluates every query on a private clone of
	// the master document instead of materialising the shared master —
	// full isolation, no cross-tenant amortisation. Requests can also
	// opt in individually.
	Isolated bool
	// Clock supplies a fresh virtual clock per query; nil means a new
	// SimClock each time (simulated latency, no real sleeping).
	Clock func() service.Clock
}

// Request is one query against one named document.
type Request struct {
	// Tenant identifies the client for per-tenant accounting; empty is
	// the anonymous tenant.
	Tenant string
	// Document names the target document in the repository.
	Document string
	// Query is the tree-pattern query source.
	Query string
	// Weight is the admission cost (heavier queries may take more than
	// one execution token); values below 1 mean 1.
	Weight int
	// Isolated requests a private clone for this query even when the
	// manager default is shared.
	Isolated bool
}

// Result is one query's answer.
type Result struct {
	// Bindings holds one variable-binding map per query result, copied
	// out of the evaluation — safe to retain after the master document
	// moves on. Node captures are not exposed: the master is shared and
	// mutable, so only values cross the boundary. The slice and its maps
	// are shared with the document's stored answer and with every other
	// Result it is handed to: read-only.
	Bindings []tree.Binding
	// Complete reports the paper's Definition-3 completeness: the result
	// is the query's full answer.
	Complete bool
	// Memo reports that the answer is the one an earlier engine run
	// stored: the master was complete for this query then and has not
	// changed since, so nothing was evaluated.
	Memo bool
	// Stats is the engine accounting; zero for memo answers.
	Stats core.Stats
	// Queued is the time spent waiting for admission.
	Queued time.Duration
	// Elapsed is the time from admission to the answer: the document's
	// lookup (a repository load on first use), the text's analysis on first
	// sight, any wait for the entry lock, and the evaluation.
	Elapsed time.Duration

	// answer is the stored answer Bindings came from — a memo answer's, or
	// the one the run just stored — whose JSON POST /query sends; nil for
	// an answer that was not stored.
	answer *answer
}

// Stats is a point-in-time snapshot of the manager.
type Stats struct {
	// Documents is the number of resident documents.
	Documents int
	// Active is the number of executing queries (admission tokens held).
	Active int64
	// Queued is the admission wait-queue length.
	Queued int
	// Served counts completed queries; Shed counts admission rejections;
	// Memo counts queries answered with a stored answer (Result.Memo);
	// Resumed counts engine runs that continued from a hot query's
	// resident state instead of starting from the document.
	Served, Shed, Memo, Resumed int64
	// AnswerBytes is the JSON the stored answers hold: each is encoded
	// once, by the first POST /query that sends it, and kept until the
	// answer is replaced or evicted. An engine run whose answer is, row for
	// row, the one stored before it keeps that encoding: it is counted once.
	AnswerBytes int64
	// ResidentRows counts the rows the resident evaluations of hot texts
	// keep in their pattern evaluators' memos, as of the end of each text's
	// last engine run; ResidentBytes estimates their size at 128 bytes a
	// row (residentRowBytes; doc/SERVER.md gives the formula).
	ResidentRows, ResidentBytes int64
}

// residentRowBytes is the estimated size of one resident row: the row
// itself (its candidate node and two slice headers, 56 bytes), one solution
// in it (16 bytes) and that solution's deduplication key (a 16-byte string
// header and about 40 bytes of text) — 128 bytes. It does not count the
// variable bindings, which rows share with the entries below them.
const residentRowBytes = 128

// TenantStats accumulates per-tenant accounting.
type TenantStats struct {
	// Queries counts completed queries; Shed counts rejections.
	Queries, Shed int64
	// CallsInvoked sums engine invocations charged to the tenant.
	CallsInvoked int64
}

// Manager is the multi-tenant session coordinator. All methods are safe
// for concurrent use.
type Manager struct {
	cfg Config
	adm *admission
	// base is done once Drain's budget has expired (abort); every engine
	// run's context is joined to it.
	base  context.Context
	abort context.CancelFunc

	mu      sync.Mutex // guards entries and tenants maps
	entries map[string]*entry
	tenants map[string]*TenantStats

	served  atomic.Int64
	memo    atomic.Int64
	resumed atomic.Int64
	shed    atomic.Int64

	mSessions  *telemetry.Counter
	mActive    *telemetry.Gauge
	mQueued    *telemetry.Gauge
	mShed      *telemetry.Counter
	mMemo      *telemetry.Counter
	mResumed   *telemetry.Counter
	mCancelled *telemetry.Counter
	mSeconds   *telemetry.Histogram
	mQueueSecs *telemetry.Histogram
	mWriteSecs *telemetry.Histogram
	mLockWait  *telemetry.Histogram
}

// maxHotQueries caps the query texts one document remembers: they are
// client-supplied, and unique strings would otherwise grow it for ever.
const maxHotQueries = 1024

// answer is the result of an engine run that ended Complete. While the
// master's Version still equals at, it is the query's full result. It is
// immutable once stored, but for its JSON, which is made at most once,
// outside the entry lock, by the first request that sends it; every later
// one sends the same bytes.
type answer struct {
	at       uint64         // master version the run ended at
	bindings []tree.Binding // handed out as is: read-only
	held     *atomic.Int64  // the entry's answerBytes

	once sync.Once
	wire []byte // marshalBindings(bindings), made by once
	// acct is this answer's part of *held: 0 until encoded, len(wire)
	// once encoded while stored, -1 once replaced or evicted.
	acct atomic.Int64
}

// encoded returns the answer's JSON, making it on first use and counting
// it in the entry's held bytes unless the answer has been dropped since.
// The count is raised before it is claimed, so it may read high for an
// instant, never low.
func (a *answer) encoded() []byte {
	a.once.Do(func() {
		a.wire = marshalBindings(a.bindings)
		n := int64(len(a.wire))
		a.held.Add(n)
		if !a.acct.CompareAndSwap(0, n) {
			a.held.Add(-n)
		}
	})
	return a.wire
}

// inherit makes a the successor of prev, an answer with the same bindings
// stored at an earlier version: a takes over prev's encoding, if prev has
// made one, and its place in the held bytes, which prev gives up when it is
// dropped. Caller holds the entry lock for writing; prev's encoding may be
// under way outside it, in which case a makes its own.
func (a *answer) inherit(prev *answer) {
	n := prev.acct.Load() // set after prev.wire, so the load makes prev.wire safe to read
	if n <= 0 {
		return
	}
	wire := prev.wire
	a.once.Do(func() { a.wire = wire })
	a.held.Add(n)
	a.acct.Store(n)
}

// drop takes a replaced or evicted answer out of its entry's held bytes.
func (a *answer) drop() {
	if n := a.acct.Swap(-1); n > 0 {
		a.held.Add(-n)
	}
}

// hotQuery is what a document keeps per query text: the query parsed and
// analysed (immutable, one instance serves every session, shared and
// isolated), the stored answer (read without a lock, replaced under the
// entry's write lock; nil while none is), whether a query has read that
// answer since the last eviction sweep, and — for a text that has — the
// engine state of its last complete run.
type hotQuery struct {
	prepared *core.Prepared
	kept     bool // remembered in the entry's queries; a text that is not stores no answer
	answer   atomic.Pointer[answer]
	used     atomic.Bool
	// resident is the evaluation the next engine run of this text resumes
	// (guarded by the entry write lock); nil when it has to start from the
	// master. The splices other queries make while it waits are read from
	// the master's splice records when it next runs.
	resident *core.Evaluation
	// rows is resident's part of the entry's residentRows, as counted when
	// its run ended (guarded by the entry write lock).
	rows int64
}

// entry is one resident document: the shared master, its schema, its
// F-guide and the hot-query state.
type entry struct {
	name   string
	schema *schema.Schema

	mu     sync.RWMutex // write: engine run on the master; read: clone for isolated mode, Drain
	master *tree.Document
	// guide is the master's F-guide, restored warm from the repository
	// or built once at registration. Every shared-mode run adopts it and
	// detects through it, and the adopting engine patches it as it
	// splices, so it is always synced and Drain can persist it without a
	// rebuild.
	guide *fguide.Guide

	// qmu guards queries; it is never held across an engine run. Whoever
	// holds both took mu first.
	qmu     sync.Mutex
	queries map[string]*hotQuery // by query text, at most maxHotQueries
	// answerBytes sums the encoded size of the stored answers in queries,
	// and residentRows the rows their resident evaluations keep, so Stats
	// reads them without waiting for an engine run to let go of mu.
	answerBytes  atomic.Int64
	residentRows atomic.Int64
}

func newEntry(name string, doc *tree.Document, sch *schema.Schema, guide *fguide.Guide) *entry {
	return &entry{name: name, schema: sch, master: doc, guide: guide, queries: map[string]*hotQuery{}}
}

// NewManager builds a Manager. The registry is used as given — compose
// the serving stack first (ServingRegistry), so cache hits bypass the
// invocation pool and misses queue for a slot.
func NewManager(cfg Config) *Manager {
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.MaxQueued == 0:
		cfg.MaxQueued = 4 * cfg.MaxActive
	case cfg.MaxQueued < 0:
		cfg.MaxQueued = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 500 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = func() service.Clock { return &service.SimClock{} }
	}
	if cfg.Repo != nil && cfg.Metrics != nil {
		cfg.Repo.Instrument(cfg.Metrics)
	}
	base, abort := context.WithCancel(context.Background())
	return &Manager{
		cfg:     cfg,
		adm:     newAdmission(int64(cfg.MaxActive), cfg.MaxQueued),
		base:    base,
		abort:   abort,
		entries: map[string]*entry{},
		tenants: map[string]*TenantStats{},

		mSessions:  cfg.Metrics.Counter(telemetry.MetricSessionsTotal),
		mActive:    cfg.Metrics.Gauge(telemetry.MetricSessionsActive),
		mQueued:    cfg.Metrics.Gauge(telemetry.MetricSessionsQueued),
		mShed:      cfg.Metrics.Counter(telemetry.MetricSessionsShed),
		mMemo:      cfg.Metrics.Counter(telemetry.MetricSessionsMemo),
		mResumed:   cfg.Metrics.Counter(telemetry.MetricSessionsResumed),
		mCancelled: cfg.Metrics.Counter(telemetry.MetricSessionsCancelled),
		mSeconds:   cfg.Metrics.Histogram(telemetry.MetricSessionSeconds),
		mQueueSecs: cfg.Metrics.Histogram(telemetry.MetricSessionQueueSeconds),
		mWriteSecs: cfg.Metrics.Histogram(telemetry.MetricSessionWriteSeconds),
		mLockWait:  cfg.Metrics.Histogram(telemetry.MetricSessionLockWait),
	}
}

// AddDocument registers (or replaces) a named document. The manager owns
// doc from here on: shared-mode queries materialise it in place. sch may
// be nil; with a schema, typed strategies refine relevance per document.
func (m *Manager) AddDocument(name string, doc *tree.Document, sch *schema.Schema) error {
	if name == "" {
		return errors.New("session: empty document name")
	}
	if doc == nil {
		return errors.New("session: nil document")
	}
	// Build the master's guide once at registration; every shared run
	// then opens warm and keeps it patched, so neither the engine nor
	// Drain ever rebuilds it.
	e := newEntry(name, doc, sch, fguide.Build(doc))
	m.cfg.Metrics.Counter(telemetry.MetricGuideBuilds).Inc()
	m.mu.Lock()
	m.entries[name] = e
	m.mu.Unlock()
	return nil
}

// Preload faults a persisted document into residency without running a
// query — servers call it at startup so the first tenant query finds a
// warm entry (document, schema and index all restored). Preloading an
// unknown name returns UnknownDocumentError.
func (m *Manager) Preload(name string) error {
	_, err := m.lookup(name)
	return err
}

// Documents lists the resident document names, sorted.
func (m *Manager) Documents() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.entries))
	for n := range m.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// lookup returns the entry for name, faulting it in from the backing
// repository when absent. Repository-faulted entries arrive complete: a
// persisted schema restores typed pruning and a persisted F-guide opens
// warm (decoded, not rebuilt), so a restarted server picks up exactly
// where the one that drained left off.
func (m *Manager) lookup(name string) (*entry, error) {
	m.mu.Lock()
	e := m.entries[name]
	m.mu.Unlock()
	if e != nil {
		return e, nil
	}
	if m.cfg.Repo == nil || !m.cfg.Repo.Exists(name) {
		return nil, &UnknownDocumentError{Name: name}
	}
	o, err := m.cfg.Repo.Get(name)
	if err != nil {
		return nil, fmt.Errorf("session: load %q: %w", name, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if again := m.entries[name]; again != nil { // lost the load race
		return again, nil
	}
	e = newEntry(name, o.Doc, o.Schema, o.Guide)
	m.entries[name] = e
	return e, nil
}

// Query runs one request to completion: admission, then shared or
// isolated evaluation. It returns ShedError/ErrDraining/ctx errors from
// admission, UnknownDocumentError or BadQueryError for bad requests, and
// the engine's error otherwise — ctx.Err() when ctx ended the evaluation,
// which stops at its next round; the master keeps what had arrived.
func (m *Manager) Query(ctx context.Context, req Request) (*Result, error) {
	weight := int64(req.Weight)
	if weight < 1 {
		weight = 1
	}
	t0 := time.Now()
	m.mQueued.Add(1)
	err := m.adm.acquire(ctx, weight, m.cfg.RetryAfter)
	m.mQueued.Add(-1)
	t1 := time.Now()
	queued := t1.Sub(t0)
	if err != nil {
		var shed *ShedError
		if errors.As(err, &shed) {
			m.shed.Add(1)
			m.mShed.Inc()
			m.tenant(req.Tenant, func(ts *TenantStats) { ts.Shed++ })
		}
		return nil, err
	}
	m.mActive.Add(1)
	defer func() {
		m.mActive.Add(-1)
		m.adm.release(weight)
	}()
	m.mQueueSecs.Observe(queued)

	e, err := m.lookup(req.Document)
	if err != nil {
		return nil, err
	}
	h, err := m.hot(e, req.Query)
	if err != nil {
		return nil, &BadQueryError{Err: err}
	}
	var res *Result
	if m.cfg.Isolated || req.Isolated {
		res, err = m.queryIsolated(ctx, e, h)
	} else {
		res, err = m.queryShared(ctx, e, h)
	}
	if err != nil {
		return nil, err
	}
	res.Queued = queued
	res.Elapsed = time.Since(t1)
	m.served.Add(1)
	m.mSessions.Inc()
	m.mSeconds.Observe(res.Elapsed)
	if res.Memo {
		m.memo.Add(1)
		m.mMemo.Inc()
	}
	calls := int64(res.Stats.CallsInvoked)
	m.tenant(req.Tenant, func(ts *TenantStats) {
		ts.Queries++
		ts.CallsInvoked += calls
	})
	return res, nil
}

// hot returns document e's state for query text src, parsing it,
// analysing it for evaluation under the engine template and remembering it
// on first sight: analysis is paid once per text. It waits for an engine
// run only when the map is full: evict reads resident state, which runs own.
func (m *Manager) hot(e *entry, src string) (*hotQuery, error) {
	e.qmu.Lock()
	h := e.queries[src]
	e.qmu.Unlock()
	if h != nil {
		return h, nil
	}
	q, err := pattern.Parse(src)
	if err != nil {
		return nil, err
	}
	p, err := core.Prepare(q, m.cfg.Engine.WithSchema(e.schema))
	if err != nil {
		return nil, err
	}
	e.qmu.Lock()
	if len(e.queries) >= maxHotQueries {
		e.qmu.Unlock()
		m.wait(&e.mu)
		defer e.mu.Unlock()
		e.qmu.Lock()
	}
	defer e.qmu.Unlock()
	if h := e.queries[src]; h != nil {
		return h, nil
	}
	if len(e.queries) >= maxHotQueries { // then e.mu is held: the map cannot grow under qmu alone
		e.evict()
	}
	h = &hotQuery{prepared: p}
	if len(e.queries) < maxHotQueries { // else every remembered text is hot, and this one is not kept
		e.queries[src] = h
		h.kept = true
	}
	return h, nil
}

// evict makes room in a full e.queries, cheapest loss first: a stale or
// absent answer without resident state costs a parse and an analysis to see
// again, a fresh one no query has read since the last sweep an engine run
// that invokes nothing. Answers read since then stay, whatever arrives.
// Resident state goes with its text. Caller holds e.mu for writing and e.qmu.
func (e *entry) evict() {
	for src, h := range e.queries {
		if a := h.answer.Load(); (a == nil || a.at != e.master.Version()) && h.resident == nil {
			e.forget(src, h)
		}
	}
	if len(e.queries) < maxHotQueries {
		return
	}
	for src, h := range e.queries {
		if !h.used.Swap(false) {
			e.forget(src, h)
		}
	}
}

// forget drops text src and its stored answer. Caller holds e.mu for
// writing and e.qmu. A reader that loaded the answer before may still send it.
func (e *entry) forget(src string, h *hotQuery) {
	if a := h.answer.Load(); a != nil {
		a.drop()
	}
	e.residentRows.Add(-h.rows)
	delete(e.queries, src)
}

// stored returns h's answer as a memo Result while the master is still at
// the version it was complete at, else nil. It needs no lock: an answer is
// immutable, and the master's version moves only once a splice is complete,
// so a reader that sees a's version is served before any splice after it.
func (e *entry) stored(h *hotQuery) *Result {
	a := h.answer.Load()
	if a == nil || a.at != e.master.Version() {
		return nil
	}
	if !h.used.Load() {
		h.used.Store(true)
	}
	return &Result{Bindings: a.bindings, Complete: true, Memo: true, answer: a}
}

// queryShared answers from the shared master: with the stored answer,
// taking no lock, while the master has not changed since the engine run
// that stored it; otherwise with an engine run under the write lock, whose
// answer is stored when it ends complete. A text whose stored answer has
// been read is hot: its run's engine state stays resident, and its next run
// — after a write made the answer stale — resumes from it. A text nobody
// came back for runs one-shot and leaves nothing behind.
func (m *Manager) queryShared(ctx context.Context, e *entry, h *hotQuery) (*Result, error) {
	if res := e.stored(h); res != nil {
		return res, nil
	}
	m.wait(&e.mu)
	defer e.mu.Unlock()
	// Re-check: the run this query waited behind may have been its own.
	if res := e.stored(h); res != nil {
		return res, nil
	}
	ev := h.resident
	if ev == nil {
		ev = h.prepared.Over(e.master)
	}
	h.resident = nil
	out, err := m.run(ctx, ev, m.options(e, true))
	rows := int64(0)
	if h.used.Load() && ev.Live() { // a run that failed is not live
		h.resident = ev
		rows = int64(ev.Rows())
	}
	e.residentRows.Add(rows - h.rows)
	h.rows = rows
	if err != nil {
		return nil, err
	}
	if out.Resumed {
		m.resumed.Add(1)
		m.mResumed.Inc()
	}
	res := &Result{Complete: out.Complete, Stats: out.Stats}
	// A resumed run that answered, row for row, what its previous run did
	// hands out that run's stored bindings, and stores them again with their
	// encoding: nothing is copied or encoded twice.
	prev := h.answer.Load()
	if out.Unchanged && prev != nil && len(prev.bindings) == len(out.Results) {
		res.Bindings = prev.bindings
	} else {
		prev = nil
		res.Bindings = cloneBindings(out.Results)
	}
	if out.Complete && h.kept {
		next := &answer{at: e.master.Version(), bindings: res.Bindings, held: &e.answerBytes}
		if prev != nil {
			next.inherit(prev)
		}
		if old := h.answer.Swap(next); old != nil {
			old.drop()
		}
		res.answer = next
	}
	return res, nil
}

// queryIsolated clones the master under a read lock and evaluates the
// clone privately — parallel across sessions, no shared materialisation,
// nothing kept but the text's analysis, which it shares.
func (m *Manager) queryIsolated(ctx context.Context, e *entry, h *hotQuery) (*Result, error) {
	m.wait(e.mu.RLocker())
	doc := e.master.Clone()
	e.mu.RUnlock()

	out, err := m.run(ctx, h.prepared.Over(doc), m.options(e, false))
	if err != nil {
		return nil, err
	}
	return &Result{Bindings: cloneBindings(out.Results), Complete: out.Complete, Stats: out.Stats}, nil
}

// wait takes l, an entry lock, and observes how long that took in
// axml_session_lock_wait_seconds.
func (m *Manager) wait(l sync.Locker) {
	t := time.Now()
	l.Lock()
	m.mLockWait.Observe(time.Since(t))
}

// run is one engine run under ctx joined to the manager's base context —
// Drain's expired budget ends it like a client hanging up — counted if so
// ended. A run Drain ended while its client was still there also reports
// ErrDraining, so that client is told the server is going away.
func (m *Manager) run(ctx context.Context, ev *core.Evaluation, opts core.Options) (*core.Outcome, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(m.base, cancel)
	defer stop()
	out, err := ev.Run(runCtx, m.cfg.Registry, opts)
	if err != nil && err == runCtx.Err() {
		m.mCancelled.Inc()
		if m.base.Err() != nil && ctx.Err() == nil {
			err = fmt.Errorf("%w: %w", ErrDraining, err)
		}
	}
	return out, err
}

// options instantiates the engine template for one run: fresh clock,
// shared telemetry, the entry's schema. A shared-mode run (e.mu held for
// writing) detects through the entry's guide whatever the template's
// UseGuide says — the master's guide is the index of arriving calls that
// makes detection cost the candidates, not the document — and the engine
// patches it as it splices. Nothing else needs telling of a splice: the
// resident queries read the master's splice records when they next run,
// and stored answers are checked against the master's own Version, which
// the splice moved. A clone has no shared state to maintain and the
// entry's guide does not describe it: an isolated run keeps the template's
// behaviour.
func (m *Manager) options(e *entry, shared bool) core.Options {
	opts := m.cfg.Engine.WithSchema(e.schema)
	opts.Clock = m.cfg.Clock()
	opts.Metrics = m.cfg.Metrics
	opts.Tracer = m.cfg.Tracer
	opts.Guide = nil
	if !shared {
		return opts
	}
	if e.guide == nil || e.guide.Doc() != e.master || !fguide.Synced(e.guide) {
		// Something other than an adopting engine changed the master (a
		// strategy that does not detect spliced it): rebuild into the
		// entry, once, rather than privately on every run.
		e.guide = fguide.Build(e.master)
		m.cfg.Metrics.Counter(telemetry.MetricGuideBuilds).Inc()
	}
	opts.UseGuide, opts.Guide = true, e.guide
	return opts
}

// cloneBindings projects evaluation results onto immutable variable
// bindings. Node captures reference live master nodes and are not safe
// to hand across the entry lock, so only values cross the boundary.
func cloneBindings(rs []pattern.Result) []tree.Binding {
	out := make([]tree.Binding, len(rs))
	for i, r := range rs {
		b := make(tree.Binding, len(r.Values))
		for k, v := range r.Values {
			b[k] = v
		}
		out[i] = b
	}
	return out
}

// tenant applies fn to the named tenant's accounting under the manager
// lock.
func (m *Manager) tenant(name string, fn func(*TenantStats)) {
	m.mu.Lock()
	ts := m.tenants[name]
	if ts == nil {
		ts = &TenantStats{}
		m.tenants[name] = ts
	}
	fn(ts)
	m.mu.Unlock()
}

// TenantStats snapshots per-tenant accounting.
func (m *Manager) TenantStats() map[string]TenantStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]TenantStats, len(m.tenants))
	for k, v := range m.tenants {
		out[k] = *v
	}
	return out
}

// Stats snapshots the manager.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	docs := len(m.entries)
	var held, rows int64
	for _, e := range m.entries {
		held += e.answerBytes.Load()
		rows += e.residentRows.Load()
	}
	m.mu.Unlock()
	return Stats{
		Documents:     docs,
		Active:        m.adm.active(),
		Queued:        m.adm.queued(),
		Served:        m.served.Load(),
		Shed:          m.shed.Load(),
		Memo:          m.memo.Load(),
		Resumed:       m.resumed.Load(),
		AnswerBytes:   held,
		ResidentRows:  rows,
		ResidentBytes: rows * residentRowBytes,
	}
}

// Drain shuts the manager down: new and queued queries are refused with
// ErrDraining while active ones run to completion, then every master
// document is persisted to the repository when one is configured — together
// with its schema and its incrementally maintained F-guide, so the next
// process opens every document warm. ctx is the budget for the first half:
// when it expires the evaluations still running are cancelled — each stops
// at its next round, its master a valid rewriting — Drain waits for them to
// let go, persists as it would have, and returns ctx's error.
func (m *Manager) Drain(ctx context.Context) error {
	firstErr := m.adm.drain(ctx)
	if firstErr != nil {
		m.abort()
		_ = m.adm.drain(context.WithoutCancel(ctx)) // cannot expire
	}
	if m.cfg.Repo == nil {
		return firstErr
	}
	m.mu.Lock()
	entries := make([]*entry, 0, len(m.entries))
	for _, e := range m.entries {
		entries = append(entries, e)
	}
	m.mu.Unlock()
	for _, e := range entries {
		e.mu.RLock()
		opts := repo.PutOptions{Schema: e.schema}
		if e.guide != nil && e.guide.Doc() == e.master && fguide.Synced(e.guide) {
			opts.Guide = e.guide // persisted as patched, no rebuild
		}
		err := m.cfg.Repo.Put(e.name, e.master, opts)
		e.mu.RUnlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
