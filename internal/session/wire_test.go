package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// legacyQueryBody is how POST /query wrote its body before a stored answer
// kept its encoding: the bindings copied into fresh maps and the whole
// QueryResponse encoded in one call. writeQuery must match it byte for byte.
func legacyQueryBody(document string, res *Result) []byte {
	bindings := make([]map[string]string, len(res.Bindings))
	for i, b := range res.Bindings {
		bindings[i] = b
	}
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(QueryResponse{
		Document:     document,
		Bindings:     bindings,
		Complete:     res.Complete,
		Memo:         res.Memo,
		CallsInvoked: res.Stats.CallsInvoked,
		Rounds:       res.Stats.Rounds,
		VirtualMs:    float64(res.Stats.VirtualTime) / float64(time.Millisecond),
		QueuedMs:     float64(res.Queued) / float64(time.Millisecond),
		ElapsedMs:    float64(res.Elapsed) / float64(time.Millisecond),
	})
	return b.Bytes()
}

// wireBody is what writeQuery sends for res, after checking the status and
// the headers it sets.
func wireBody(t testing.TB, document string, res *Result) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeQuery(rec, document, res)
	body := rec.Body.Bytes()
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" ||
		rec.Header().Get("Content-Length") != strconv.Itoa(len(body)) {
		t.Fatalf("status %d, headers %v for a %d-byte body", rec.Code, rec.Header(), len(body))
	}
	return body
}

// sameWire fails unless writeQuery sends for res exactly what the legacy
// writer sent.
func sameWire(t testing.TB, what, document string, res *Result) {
	t.Helper()
	got, want := wireBody(t, document, res), legacyQueryBody(document, res)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from encoding the whole QueryResponse:\n got %q\nwant %q", what, got, want)
	}
}

// awkward are strings encoding/json has to escape or repair: HTML
// characters, quotes and backslashes, the JavaScript line separators,
// invalid UTF-8 and control bytes.
var awkward = []string{
	`<script>&amp;</script>`,
	`"quoted" and \back\slashed\`,
	"line\u2028para\u2029end",
	"bad \xff\xfe utf-8 \xc3",
	"ctl \x00\x01\x1f\x7f tab\t nl\n",
	"plain",
}

// awkwardWorld is a document whose values are the awkward strings: some in
// place, one behind a call that returns them, and one beside a call whose
// service fails, so that a query reaching it is answered incomplete under
// BestEffort.
func awkwardWorld() (*tree.Document, *service.Registry) {
	leaf := func(name, value string) *tree.Node {
		n := tree.NewElement(name)
		n.Append(tree.NewText(value))
		return n
	}
	root := tree.NewElement("r")
	for _, s := range awkward[:3] {
		root.Append(leaf("v", s))
	}
	root.Append(tree.NewCall("more"))
	bad := root.Append(tree.NewElement("bad"))
	bad.Append(leaf("v", awkward[1]))
	bad.Append(tree.NewCall("broken"))

	reg := service.NewRegistry()
	reg.Register(&service.Service{Name: "more", Handler: func([]*tree.Node) ([]*tree.Node, error) {
		var out []*tree.Node
		for _, s := range awkward[3:] {
			out = append(out, leaf("v", s))
		}
		return out, nil
	}})
	reg.Register(&service.Service{Name: "broken", Handler: func([]*tree.Node) ([]*tree.Node, error) {
		return nil, errors.New("broken")
	}})
	return tree.NewDocument(root), reg
}

// TestQueryResponseWireIdentical is the differential of the three-piece
// writer against the legacy one: for every suite scenario query — its
// engine answer, its memo answer — and for an incomplete answer, a stored
// empty answer, nil bindings, and a document name and binding values that
// need escaping, the body is the legacy body of the same Result.
func TestQueryResponseWireIdentical(t *testing.T) {
	m, scenarios, _ := newSuiteManager(t, Config{Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}}, suiteSpec())
	ask := func(req Request) *Result {
		t.Helper()
		res, err := m.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, sc := range scenarios {
		for _, q := range sc.Queries {
			req := Request{Document: sc.Name, Query: q}
			if res := ask(req); res.Memo || res.answer == nil {
				t.Fatalf("%s %q: first run memo=%v, stored=%v; want an engine run that stored its answer", sc.Name, q, res.Memo, res.answer != nil)
			} else {
				sameWire(t, "engine answer "+q, sc.Name, res)
			}
			if res := ask(req); !res.Memo || res.answer == nil {
				t.Fatalf("%s %q: repeat is not a memo answer", sc.Name, q)
			} else {
				sameWire(t, "memo answer "+q, sc.Name, res)
			}
		}
	}

	doc, reg := awkwardWorld()
	m = NewManager(Config{Registry: reg, Engine: core.Options{Strategy: core.LazyNFQ, Failure: core.BestEffort}})
	name := strings.Join(awkward, "|")
	if err := m.AddDocument(name, doc, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query                  string
		bindings               int
		complete, memo, stored bool
	}{
		{`/r/v/$V -> $V`, 6, true, false, true},
		{`/r/v/$V -> $V`, 6, true, true, true},
		{`/r/bad/v/$V -> $V`, 1, false, false, false},
		{`/r/none/$V -> $V`, 0, true, false, true},
		{`/r/none/$V -> $V`, 0, true, true, true},
	} {
		res := ask(Request{Document: name, Query: tc.query})
		if len(res.Bindings) != tc.bindings || res.Complete != tc.complete || res.Memo != tc.memo || (res.answer != nil) != tc.stored {
			t.Fatalf("%q: %d bindings, complete=%v memo=%v stored=%v; want %d, %v, %v, %v",
				tc.query, len(res.Bindings), res.Complete, res.Memo, res.answer != nil, tc.bindings, tc.complete, tc.memo, tc.stored)
		}
		res.Queued, res.Elapsed = 1234567*time.Nanosecond, 3*time.Second+7
		sameWire(t, tc.query, name, res)
	}
	if got := wireBody(t, "d", &Result{Complete: true}); !bytes.Contains(got, []byte(`"bindings":[],`)) {
		t.Fatalf("an answer with nil bindings is not sent as []: %s", got)
	}
}

// FuzzQueryResponseWire is TestQueryResponseWireIdentical's comparison over
// fuzzed document names, binding keys and values, counters and timings,
// for the bindings sent from a stored answer and marshalled afresh.
func FuzzQueryResponseWire(f *testing.F) {
	f.Add("travel", "X", "Best Western", int64(0), int64(0), int64(0), 0, 0, true, true)
	f.Add("<d&>", " ", "\xff\x00\"\\", int64(1), int64(999999), int64(1e12), 608, 3, false, false)
	f.Add("", "", "", int64(-5), int64(1<<62), int64(7), -1, 1<<30, true, false)
	f.Fuzz(func(t *testing.T, document, key, value string, queued, elapsed, virtual int64, calls, rounds int, complete, memo bool) {
		bindings := []tree.Binding{{key: value}, {}, {key: value, key + "'": document}}
		for _, stored := range []bool{false, true} {
			res := &Result{
				Bindings: bindings,
				Complete: complete,
				Memo:     memo,
				Stats:    core.Stats{CallsInvoked: calls, Rounds: rounds, VirtualTime: time.Duration(virtual)},
				Queued:   time.Duration(queued),
				Elapsed:  time.Duration(elapsed),
			}
			if stored {
				res.answer = &answer{bindings: bindings, held: new(atomic.Int64)}
			}
			sameWire(t, "fuzzed", document, res)
		}
	})
}

// TestStoredAnswerEncodedOnce: the answer an engine run stores is encoded
// once — every memo read of it, and the run's own response, hand out the
// same bytes — and a write, a version bump followed by a re-run, stores an
// answer with an encoding of its own.
func TestStoredAnswerEncodedOnce(t *testing.T) {
	m, scenarios, _ := newSuiteManager(t, Config{Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}}, suiteSpec())
	sc := scenarios[0]
	ask := func(q string) *Result {
		t.Helper()
		res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: q})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hot := sc.Queries[0]
	first := ask(hot)
	if first.Memo || first.answer == nil {
		t.Fatal("the first run did not store its answer")
	}
	wire := first.answer.encoded()
	for i := 0; i < 16; i++ {
		res := ask(hot)
		if got := res.answer.encoded(); !res.Memo || &got[0] != &wire[0] {
			t.Fatalf("memo read %d: memo=%v, and its encoding is not the stored one", i, res.Memo)
		}
	}

	if w := ask(pointQuery(1)); w.Stats.CallsInvoked == 0 {
		t.Fatal("the write invoked nothing")
	}
	rerun := ask(hot)
	if rerun.Memo || rerun.answer == nil {
		t.Fatalf("the run after a write: memo=%v, stored=%v; want an engine run that stored its answer", rerun.Memo, rerun.answer != nil)
	}
	again := rerun.answer.encoded()
	if &again[0] == &wire[0] {
		t.Fatal("the answer stored after a write reuses the encoding of the one before it")
	}
	if got := ask(hot).answer.encoded(); &got[0] != &again[0] {
		t.Fatal("a memo read after the re-run does not hand out the re-run's encoding")
	}
}

// TestFirstReadersShareOneEncoding sends 16 concurrent POST /query for an
// answer stored but not yet encoded: they race to encode it, and under
// -race every body carries the same bindings, which the stored answer
// holds, counted once.
func TestFirstReadersShareOneEncoding(t *testing.T) {
	const readers = 16
	m, scenarios, _ := newSuiteManager(t, Config{
		Engine:    core.Options{Strategy: core.LazyNFQ, Incremental: true},
		MaxActive: readers,
	}, suiteSpec())
	sc := scenarios[0]
	stored, err := m.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0]})
	if err != nil || stored.answer == nil {
		t.Fatalf("the engine run stored no answer: %v", err)
	}
	if n := m.Stats().AnswerBytes; n != 0 {
		t.Fatalf("AnswerBytes = %d before any answer was sent", n)
	}
	body, _ := json.Marshal(QueryRequest{Document: sc.Name, Query: sc.Queries[0]})
	handler := Handler(m)
	bodies := make([][]byte, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("reader %d: status %d: %s", i, rec.Code, rec.Body)
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	wire := stored.answer.encoded()
	want := append(append([]byte(`{"document":"`+sc.Name+`","bindings":`), wire...), `,"complete":true,"memo":true,`...)
	for i, b := range bodies {
		if !bytes.HasPrefix(b, want) {
			t.Fatalf("reader %d's body does not carry the stored answer's bindings:\n got %.200q\nwant %.200q", i, b, want)
		}
	}
	if n := m.Stats().AnswerBytes; n != int64(len(wire)) {
		t.Fatalf("AnswerBytes = %d after %d first readers, want the one encoding's %d", n, readers, len(wire))
	}
}

// TestStatsAnswerBytes: the bytes stored answers hold are 0 until one is
// sent over HTTP, grow by its encoding when it is, and drop when a re-store
// or an eviction replaces the answer — also as GET /stats reports them.
func TestStatsAnswerBytes(t *testing.T) {
	m, scenarios, _ := newSuiteManager(t, Config{Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}}, suiteSpec())
	sc := scenarios[0]
	handler := Handler(m)
	send := func(mgr *Manager, document, q string) {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{Document: document, Query: q})
		rec := httptest.NewRecorder()
		Handler(mgr).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: status %d: %s", q, rec.Code, rec.Body)
		}
	}
	held := func(want func(int64) bool, what string) int64 {
		t.Helper()
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st Stats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.AnswerBytes != m.Stats().AnswerBytes || !want(st.AnswerBytes) {
			t.Fatalf("%s: GET /stats says AnswerBytes %d, Stats %d", what, st.AnswerBytes, m.Stats().AnswerBytes)
		}
		return st.AnswerBytes
	}
	zero := func(n int64) bool { return n == 0 }
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
	held(zero, "an answer stored, none sent")
	send(m, sc.Name, hot)
	n := held(func(n int64) bool { return n > 0 }, "one answer sent")
	send(m, sc.Name, hot)
	held(func(k int64) bool { return k == n }, "the same answer sent again")
	ask(pointQuery(1))
	if ask(hot).Memo {
		t.Fatal("the run after a write was a memo answer")
	}
	held(zero, "the answer sent re-stored by a run after a write")

	flat := NewManager(Config{Registry: service.NewRegistry(), Engine: core.Options{Strategy: core.LazyNFQ}})
	if err := flat.AddDocument("d", flatWorld(), nil); err != nil {
		t.Fatal(err)
	}
	send(flat, "d", `/r/v/$V -> $V`)
	send(flat, "d", `/r/v/$V -> $V`)
	if flat.Stats().AnswerBytes == 0 {
		t.Fatal("a sent answer holds no bytes")
	}
	e := resident(t, flat, "d")
	e.mu.Lock()
	e.master.Adopt(e.master.Root.Append(tree.NewElement("w"))) // the answer goes stale
	e.mu.Unlock()
	for i := 0; i < maxHotQueries; i++ {
		if _, err := flat.Query(context.Background(), Request{Document: "d", Query: `/r/k` + strconv.Itoa(i) + `/$V -> $V`}); err != nil {
			t.Fatal(err)
		}
	}
	if remembered(e)[`/r/v/$V -> $V`] {
		t.Fatal("the stale text was not evicted")
	}
	if n := flat.Stats().AnswerBytes; n != 0 {
		t.Fatalf("AnswerBytes = %d after the one sent answer was evicted", n)
	}
}

// TestMemoRequestObservesOneWrite: every POST /query answer is one sample
// of axml_session_write_seconds, and a memo request adds that sample and
// nothing to axml_eval_seconds.
func TestMemoRequestObservesOneWrite(t *testing.T) {
	metrics := telemetry.NewRegistry()
	m, scenarios, _ := newSuiteManager(t, Config{Metrics: metrics, Engine: core.Options{Strategy: core.LazyNFQ}}, suiteSpec())
	sc := scenarios[0]
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	counts := func() (writes, evals uint64) {
		return metrics.Histogram(telemetry.MetricSessionWriteSeconds).Snapshot().Count,
			metrics.Histogram(telemetry.MetricEvalSeconds).Snapshot().Count
	}
	if resp, body := postQuery(t, srv.URL, QueryRequest{Document: sc.Name, Query: sc.Queries[0]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	writes, evals := counts()
	if writes != 1 || evals == 0 {
		t.Fatalf("after an engine request: %d write samples, %d evaluations; want 1 and some", writes, evals)
	}
	resp, body := postQuery(t, srv.URL, QueryRequest{Document: sc.Name, Query: sc.Queries[0]})
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); resp.StatusCode != http.StatusOK || err != nil || !qr.Memo {
		t.Fatalf("repeat: status %d, memo=%v, %v", resp.StatusCode, qr.Memo, err)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
	}
	if w, e := counts(); w != writes+1 || e != evals {
		t.Fatalf("a memo request: write samples %d → %d, evaluations %d → %d; want one more write and no evaluation", writes, w, evals, e)
	}
}

// TestUnchangedAnswerKeepsEncoding: across a write the hot query's answer
// does not see, its resumed run answers Memo=false with the stored answer's
// bindings and encoding — the same arrays, re-stored under the new version —
// its body is what encoding the whole QueryResponse gives, AnswerBytes
// counts the encoding once, and the memo reads after it hand out the same.
func TestUnchangedAnswerKeepsEncoding(t *testing.T) {
	m, scenarios, _ := newSuiteManager(t, Config{Engine: core.Options{Strategy: core.LazyNFQ, Incremental: true}}, suiteSpec())
	sc := scenarios[0]
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
	ask(hot) // read: the text is hot from here
	ask(pointQuery(1))
	kept := ask(hot) // an engine run whose state stays resident
	if kept.Memo || kept.answer == nil || len(kept.Bindings) == 0 {
		t.Fatalf("the run after the first write: memo=%v, stored=%v, %d bindings", kept.Memo, kept.answer != nil, len(kept.Bindings))
	}
	wire := kept.answer.encoded()
	if n := m.Stats().AnswerBytes; n != int64(len(wire)) {
		t.Fatalf("AnswerBytes = %d with one %d-byte encoding", n, len(wire))
	}

	resumed := m.Stats().Resumed
	if w := ask(pointQuery(3)); w.Stats.CallsInvoked == 0 {
		t.Fatal("the second write invoked nothing")
	}
	res := ask(hot)
	if res.Memo || res.answer == nil || res.answer == kept.answer || m.Stats().Resumed != resumed+1 {
		t.Fatalf("the run after a write the answer does not see: memo=%v, stored=%v, resumed %d → %d; want a resumed engine run that stored an answer",
			res.Memo, res.answer != nil, resumed, m.Stats().Resumed)
	}
	if &res.Bindings[0] != &kept.Bindings[0] || &res.answer.bindings[0] != &kept.Bindings[0] {
		t.Fatal("the unchanged answer's bindings are a copy, not the stored ones")
	}
	if got := res.answer.encoded(); &got[0] != &wire[0] {
		t.Fatal("the unchanged answer was encoded again")
	}
	if n := m.Stats().AnswerBytes; n != int64(len(wire)) {
		t.Fatalf("AnswerBytes = %d after the unchanged answer was re-stored, want the one encoding's %d", n, len(wire))
	}
	sameWire(t, "unchanged answer", sc.Name, res)
	memo := ask(hot)
	if got := memo.answer.encoded(); !memo.Memo || &got[0] != &wire[0] || &memo.Bindings[0] != &kept.Bindings[0] {
		t.Fatal("a memo read after the re-store does not hand out the kept bindings and encoding")
	}
}

// TestInheritedEncodingUnderReaders runs, under -race, hot-query readers
// over HTTP beside a writer: each write makes the stored answer stale, the
// next reader's resumed run stores it again — taking over its encoding,
// which other readers may be making that moment outside the lock — and
// every body must carry the same bindings, and AnswerBytes end as the one
// encoding the stored answer holds.
func TestInheritedEncodingUnderReaders(t *testing.T) {
	const readers, writes = 6, 12
	m, scenarios, _ := newSuiteManager(t, Config{
		Engine:    core.Options{Strategy: core.LazyNFQ, Incremental: true},
		MaxActive: readers + 1,
		MaxQueued: 1 << 10,
	}, suiteSpec())
	sc := scenarios[0]
	hot, _ := json.Marshal(QueryRequest{Document: sc.Name, Query: sc.Queries[0]})
	handler := Handler(m)
	post := func(body []byte) QueryResponse {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		var qr QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); rec.Code != http.StatusOK || err != nil {
			t.Errorf("status %d, %v: %s", rec.Code, err, rec.Body)
		}
		return qr
	}
	want := post(hot)
	post(hot) // read: hot from here

	var wg sync.WaitGroup
	var done atomic.Bool
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if got := post(hot); !reflect.DeepEqual(got.Bindings, want.Bindings) {
					t.Errorf("a reader got %d bindings, want %d", len(got.Bindings), len(want.Bindings))
					return
				}
			}
		}()
	}
	for k := 0; k < writes; k++ {
		// Not over HTTP: a write's own answer is never encoded, so the
		// only bytes held are the hot answer's.
		if _, err := m.Query(context.Background(), Request{Document: sc.Name, Query: pointQuery(2*k + 1)}); err != nil {
			t.Error(err)
		}
		time.Sleep(time.Millisecond) // let readers meet the stale answer
	}
	done.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	last := post(hot)
	res, err := m.Query(context.Background(), Request{Document: sc.Name, Query: sc.Queries[0]})
	if err != nil || !last.Memo || !res.Memo {
		t.Fatalf("after the writes: memo=%v, %v", last.Memo, err)
	}
	if n, wire := m.Stats().AnswerBytes, res.answer.encoded(); n != int64(len(wire)) {
		t.Fatalf("AnswerBytes = %d, the stored answer's encoding %d bytes", n, len(wire))
	}
}
