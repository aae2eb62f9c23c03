package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/repo"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/session"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// scale fixes every size a run depends on. "full" is what BENCHMARK.json
// measures; "tiny" exists so `go test` can drive every workload in
// seconds.
type scale struct {
	name string
	// hotels in the lazy-hotels, open-query-persist, federated-soap and
	// serve-* worlds; each world adds hotels/5 hidden ones behind the
	// root getHotels call (federated-soap has none, as in E17).
	lazyHotels, persistHotels, fedHotels, serveHotels int
	// fedFast and fedSlow are the real sleeps of the federated services
	// (getTeaser0 is the slow partner).
	fedFast, fedSlow time.Duration
	// writeEvery makes every n-th serve-churn request a write.
	writeEvery int
	// An untraced run sets up at least minSetups times, and on until
	// setupBudget is spent or maxSetups reached; setup_s is the median.
	minSetups, maxSetups int
	setupBudget          time.Duration
	// replayIters is how often each replay repeats.
	replayIters int
	// strict makes a failed layer-isolation check fail the run.
	strict bool
}

var scales = map[string]scale{
	"full": {name: "full", lazyHotels: 500, persistHotels: 1000, fedHotels: 32, serveHotels: 500,
		fedFast: 2 * time.Millisecond, fedSlow: 16 * time.Millisecond,
		writeEvery: 10, minSetups: 3, maxSetups: 7, setupBudget: 2 * time.Second, replayIters: 15, strict: true},
	"tiny": {name: "tiny", lazyHotels: 20, persistHotels: 40, fedHotels: 8, serveHotels: 40,
		fedFast: time.Millisecond, fedSlow: 4 * time.Millisecond,
		writeEvery: 10, minSetups: 1, maxSetups: 1, replayIters: 3},
}

func (sc scale) sizes(workload string) map[string]int {
	switch workload {
	case "lazy-hotels":
		return map[string]int{"hotels": sc.lazyHotels, "hidden_hotels": sc.lazyHotels / 5}
	case "open-query-persist":
		return map[string]int{"hotels": sc.persistHotels, "hidden_hotels": sc.persistHotels / 5}
	case "federated-soap":
		return map[string]int{"hotels": sc.fedHotels, "calls": 2 * sc.fedHotels, "invoke_workers": fedWorkers,
			"fast_us": int(sc.fedFast / time.Microsecond), "slow_us": int(sc.fedSlow / time.Microsecond)}
	case "serve-hot":
		return map[string]int{"hotels": sc.serveHotels, "hidden_hotels": sc.serveHotels / 5, "documents": 4, "queries": 8}
	case "serve-churn":
		return map[string]int{"hotels": sc.serveHotels, "hidden_hotels": sc.serveHotels / 5, "documents": 4, "queries": 8, "write_every": sc.writeEvery}
	}
	return nil
}

// env is what a workload's set-up receives.
type env struct {
	seed int64
	sc   scale
	// rec is nil in the untraced pass: no shim is installed and no span
	// recorded, so end-to-end numbers never pay for tracing.
	rec *recorder
	cnt *shimCounts
	// dir is a scratch directory inside the output directory.
	dir string
}

// primary names the inputs the replays run on: the workload's main
// document and query with the engine options its ops use, over the
// in-process services (no transport, simulated clock).
type primary struct {
	doc      *tree.Document // pristine; replays clone it
	query    *pattern.Pattern
	querySrc string
	schema   *schema.Schema
	reg      *service.Registry
	opts     core.Options
	latency  time.Duration
	planner  core.InvocationPlanner // the workload's, nil if it does not plan
	// mgr and document are set by the serving workloads: their own
	// manager answers the session replay.
	mgr      *session.Manager
	document string
}

// instance is a set-up workload.
type instance interface {
	// measure runs ops until the deadline and records them into st.
	measure(until time.Time, st *runStats)
	primary() primary
	// finish adds what only the workload can report after the window
	// (server counters, cache statistics).
	finish(st *runStats)
	close()
}

// reqSample is one serving request as the client saw it.
type reqSample struct {
	op      int64 // span op id, 0 untraced
	ns      int64
	kind    byte // 'h' hot hotel document, 's' small document, 'w' write
	memo    bool
	queued  float64 // server-reported, ms
	elapsed float64
}

// evalSample is one core.Evaluate the harness called itself.
type evalSample struct {
	ns    int64
	stats core.Stats
}

// runStats is everything one measuring window produced.
type runStats struct {
	attempted, failed int
	failures          []string // first few, for the operator

	opNs      []int64   // latency of the ops op_ms_* is about
	calls     []float64 // calls invoked per engine op
	virtualMs []float64
	allocB    uint64 // bytes allocated inside timed sections
	ops       int    // verified ops (all kinds)
	timedNs   int64  // wall the verified ops were measured over

	// doneNs holds, for concurrent clients, when each verified request
	// completed (ns into the window).
	doneNs []int64

	evals          []evalSample
	reqs           []reqSample
	gets, warmGets int // repository opens, and how many found a warm index

	seqHash   string
	footprint float64 // stored bytes per document byte

	// serving-only, filled by finish
	shed                    int64
	cacheHits, cacheLookups int
	writesWithoutCalls      int
}

func (st *runStats) fail(format string, args ...any) {
	st.failed++
	if len(st.failures) < 5 {
		st.failures = append(st.failures, fmt.Sprintf(format, args...))
	}
}

// book verifies one engine op of a library workload against the oracle
// and, if it holds, records it.
func (st *runStats) book(workload string, out *core.Outcome, err error, want string, ns int64, alloc uint64) bool {
	switch {
	case err != nil:
		st.fail("%s: %v", workload, err)
	case !out.Complete:
		st.fail("%s: incomplete answer", workload)
	case canon(resultValues(out.Results)) != want:
		st.fail("%s: answer differs from the naive fixpoint", workload)
	default:
		st.ops++
		st.timedNs += ns
		st.allocB += alloc
		st.opNs = append(st.opNs, ns)
		st.calls = append(st.calls, float64(out.Stats.CallsInvoked))
		st.virtualMs = append(st.virtualMs, float64(out.Stats.VirtualTime)/nsPerMs)
		return true
	}
	return false
}

// allocBytes and allocObjects read the cumulative heap allocation
// without stopping the world.
func allocBytes() uint64   { return readCounter("/gc/heap/allocs:bytes") }
func allocObjects() uint64 { return readCounter("/gc/heap/allocs:objects") }

func readCounter(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// evaluate is the harness's one way into the engine: core.Evaluate
// inside a core.evaluate span that the shims parent to.
func evaluate(e *env, parent *open, doc *tree.Document, q *pattern.Pattern, reg *service.Registry, opts core.Options, st *runStats) (*core.Outcome, error) {
	sp := e.rec.start("core.evaluate", parent)
	e.rec.setAmbient(sp)
	t0 := time.Now()
	out, err := core.Evaluate(doc, q, reg, opts)
	ns := int64(time.Since(t0))
	e.rec.setAmbient(nil)
	sp.end()
	if err == nil && st != nil {
		st.evals = append(st.evals, evalSample{ns: ns, stats: out.Stats})
	}
	return out, err
}

// canon renders a binding multiset canonically: per binding the sorted
// k=v pairs, the multiset sorted. Two answers are equal iff their canon
// strings are (the comparison cmd/axmlload makes).
func canon[M ~map[string]string](bindings []M) string {
	keys := make([]string, len(bindings))
	for i, b := range bindings {
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

func resultValues(rs []pattern.Result) []map[string]string {
	out := make([]map[string]string, len(rs))
	for i, r := range rs {
		out[i] = r.Values
	}
	return out
}

// naivePass is the oracle: the query answered by the naive fixpoint on a
// private clone. By completeness invariance (Definition 3) every lazy
// answer must carry the same binding multiset.
type naivePass struct {
	answer  string
	calls   int
	virtual time.Duration
	ns      int64
	doc     *tree.Document // fully materialised
}

func naive(doc *tree.Document, q *pattern.Pattern, reg *service.Registry) (naivePass, error) {
	full := doc.Clone()
	t0 := time.Now()
	out, err := core.Evaluate(full, q, reg, core.Options{Strategy: core.NaiveFixpoint})
	if err != nil {
		return naivePass{}, fmt.Errorf("oracle %s: %w", q, err)
	}
	if !out.Complete {
		return naivePass{}, fmt.Errorf("oracle %s: incomplete", q)
	}
	return naivePass{answer: canon(resultValues(out.Results)), calls: out.Stats.CallsInvoked,
		virtual: out.Stats.VirtualTime, ns: int64(time.Since(t0)), doc: full}, nil
}

// pointQuery asks for the restaurants near one uniquely named hotel.
func pointQuery(k int) string {
	return fmt.Sprintf(`/hotels/hotel[name="Hotel-%d"]/nearby//restaurant[name=$X][rating=$R] -> $X, $R`, k)
}

// pointOracle answers every point query at once: one grouped evaluation
// over the fully materialised document, split by hotel name.
func pointOracle(full *tree.Document) map[string]string {
	q := pattern.MustParse(`/hotels/hotel[name=$N]/nearby//restaurant[name=$X][rating=$R] -> $N, $X, $R`)
	rs, _ := pattern.Eval(full, q)
	groups := map[string][]map[string]string{}
	for _, r := range rs {
		n := r.Values["N"]
		groups[n] = append(groups[n], map[string]string{"X": r.Values["X"], "R": r.Values["R"]})
	}
	out := make(map[string]string, len(groups))
	for n, g := range groups {
		out[n] = canon(g)
	}
	return out
}

// hotelSpec is the default world at a size.
func hotelSpec(hotels int) workload.HotelSpec {
	spec := workload.DefaultSpec()
	spec.Hotels = hotels
	spec.HiddenHotels = hotels / 5
	return spec
}

// storedRatio persists the document into a throwaway repository and
// returns bytes on disk per byte of the compact serialisation.
func storedRatio(dir string, doc *tree.Document, sch *schema.Schema) (float64, error) {
	b, err := repo.OpenDir(dir)
	if err != nil {
		return 0, err
	}
	b.Sync = false // the size does not depend on durability
	r, err := repo.New(b)
	if err != nil {
		return 0, err
	}
	if err := r.Put("footprint", doc, repo.PutOptions{Schema: sch}); err != nil {
		return 0, err
	}
	return dirRatio(dir, doc)
}

func dirRatio(dir string, doc *tree.Document) (float64, error) {
	compact, err := tree.Marshal(doc.Root)
	if err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return float64(total) / float64(len(compact)), nil
}

func scratch(e *env, name string) (string, error) {
	dir := filepath.Join(e.dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// splitmix is the stateless draw every schedule is made from: request n
// of seed s is the same on every run and on every client goroutine.
func splitmix(seed int64, n uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + (n+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// permutation shuffles 0..n-1 by the seed (Fisher–Yates over splitmix).
func permutation(seed int64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(splitmix(seed, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// hashSequence fingerprints the first requests of a schedule.
func hashSequence(n int, at func(i int) string) string {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		h.Write([]byte(at(i)))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// quantile is the nearest-rank quantile of the samples (0 if none).
func quantile[T int64 | float64](samples []T, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]T(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

func median[T int64 | float64](samples []T) float64 { return quantile(samples, 0.5) }

func sum[T int64 | float64](samples []T) float64 {
	var t float64
	for _, v := range samples {
		t += float64(v)
	}
	return t
}

const (
	nsPerMs = float64(time.Millisecond)
	nsPerUs = float64(time.Microsecond)
)
