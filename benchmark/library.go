package main

import (
	"fmt"
	"net/http/httptest"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/plan"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/repo"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/workload"
)

// The three library workloads call the engine from one goroutine, one op
// at a time.

// fullStack is every lazy mechanism switched on at once.
func fullStack(w *workload.World) core.Options {
	return core.Options{Strategy: core.LazyNFQTyped, Schema: w.Schema,
		Layering: true, Parallel: true, UseGuide: true, Incremental: true}
}

// ---- lazy-hotels ----

type lazyHotels struct {
	e    *env
	w    *workload.World
	reg  *service.Registry
	want naivePass
	foot float64
}

func setupLazyHotels(e *env) (instance, error) {
	l := &lazyHotels{e: e, w: workload.Hotels(hotelSpec(e.sc.lazyHotels))}
	l.reg = l.w.Registry
	if e.rec != nil {
		l.reg = wrapHandlers(l.reg, e.rec, e.cnt)
	}
	var err error
	if l.want, err = naive(l.w.Doc, l.w.Query, l.w.Registry); err != nil {
		return nil, err
	}
	dir, err := scratch(e, "footprint")
	if err != nil {
		return nil, err
	}
	if l.foot, err = storedRatio(dir, l.w.Doc, l.w.Schema); err != nil {
		return nil, err
	}
	// One untimed op: first-use costs (regexp compilation, heap growth)
	// belong to set-up.
	var warm runStats
	l.op(&warm)
	if warm.failed > 0 {
		return nil, fmt.Errorf("lazy-hotels: warm-up op failed: %v", warm.failures)
	}
	return l, nil
}

func (l *lazyHotels) op(st *runStats) {
	// The clone is the harness's own cost: the engine materialises its
	// input in place, so every op needs a fresh document.
	csp := l.e.rec.start("tree.clone", nil)
	doc := l.w.Doc.Clone()
	csp.end()

	st.attempted++
	osp := l.e.rec.start("op", nil)
	a0, t0 := allocBytes(), time.Now()
	out, err := evaluate(l.e, osp, doc, l.w.Query, l.reg, fullStack(l.w), st)
	ns := int64(time.Since(t0))
	a1 := allocBytes()
	osp.end()
	st.book("lazy-hotels", out, err, l.want.answer, ns, a1-a0)
}

func (l *lazyHotels) measure(until time.Time, st *runStats) {
	// The op takes no seeded input: the Figure-4 query on the same world.
	st.seqHash = hashSequence(1, func(int) string { return l.w.Query.String() })
	for time.Now().Before(until) {
		l.op(st)
	}
}

func (l *lazyHotels) primary() primary {
	return primary{doc: l.w.Doc, query: l.w.Query, querySrc: l.w.Query.String(), schema: l.w.Schema,
		reg: l.reg, opts: fullStack(l.w), latency: l.w.Spec.Latency}
}

func (l *lazyHotels) finish(st *runStats) { st.footprint = l.foot }
func (l *lazyHotels) close()              {}

// ---- open-query-persist ----

type openQueryPersist struct {
	e       *env
	w       *workload.World
	reg     *service.Registry
	repo    *repo.Repo
	dir     string
	targets []int // hotel indices with unique names, seed-shuffled
	oracle  map[string]string
	foot    float64
}

const persistName = "hotels"

func setupOpenQueryPersist(e *env) (instance, error) {
	p := &openQueryPersist{e: e, w: workload.Hotels(hotelSpec(e.sc.persistHotels))}
	p.reg = p.w.Registry
	if e.rec != nil {
		p.reg = wrapHandlers(p.reg, e.rec, e.cnt)
	}
	full, err := naive(p.w.Doc, p.w.Query, p.w.Registry)
	if err != nil {
		return nil, err
	}
	p.oracle = pointOracle(full.doc)

	// Point targets: extensional hotels with a unique name (every
	// TargetEvery-th hotel is a "Best Western").
	var unique []int
	for k := 0; k < p.w.Spec.Hotels; k++ {
		if k%p.w.Spec.TargetEvery != 0 {
			unique = append(unique, k)
		}
	}
	for _, i := range permutation(e.seed, len(unique)) {
		p.targets = append(p.targets, unique[i])
	}

	if p.dir, err = scratch(e, "repo"); err != nil {
		return nil, err
	}
	if p.repo, err = repo.Open(p.dir); err != nil {
		return nil, err
	}
	if err := p.restore(); err != nil {
		return nil, err
	}
	if p.foot, err = dirRatio(p.dir, p.w.Doc); err != nil {
		return nil, err
	}
	var warm runStats
	p.op(0, &warm)
	if warm.failed > 0 {
		return nil, fmt.Errorf("open-query-persist: warm-up op failed: %v", warm.failures)
	}
	return p, nil
}

// restore puts the pristine document back, untimed: every op opens the
// same bytes.
func (p *openQueryPersist) restore() error {
	return p.repo.Put(persistName, p.w.Doc, repo.PutOptions{Schema: p.w.Schema})
}

func (p *openQueryPersist) op(i int, st *runStats) {
	k := p.targets[i%len(p.targets)]
	q := pattern.MustParse(pointQuery(k))

	st.attempted++
	osp := p.e.rec.start("op", nil)
	a0, t0 := allocBytes(), time.Now()

	gsp := p.e.rec.start("repo.get", osp)
	o, err := p.repo.Get(persistName)
	gsp.end()
	var out *core.Outcome
	if err == nil {
		opts := fullStack(p.w)
		opts.Schema, opts.Guide = o.Schema, o.Guide
		out, err = evaluate(p.e, osp, o.Doc, q, p.reg, opts, st)
	}
	if err == nil {
		psp := p.e.rec.start("repo.put", osp)
		// The engine patched the opened guide in place: it is persisted as
		// is, not rebuilt.
		err = p.repo.Put(persistName, o.Doc, repo.PutOptions{Schema: o.Schema, Guide: o.Guide})
		psp.end()
	}
	ns := int64(time.Since(t0))
	a1 := allocBytes()
	osp.end()

	if st.book("open-query-persist", out, err, p.oracle[fmt.Sprintf("Hotel-%d", k)], ns, a1-a0) {
		st.gets++
		if o.Warm {
			st.warmGets++
		}
	}
	if err := p.restore(); err != nil {
		st.fail("open-query-persist: restore: %v", err)
	}
}

func (p *openQueryPersist) measure(until time.Time, st *runStats) {
	st.seqHash = hashSequence(min(256, len(p.targets)), func(i int) string { return pointQuery(p.targets[i]) })
	for i := 0; time.Now().Before(until); i++ {
		p.op(i, st)
	}
}

func (p *openQueryPersist) primary() primary {
	src := pointQuery(p.targets[0])
	return primary{doc: p.w.Doc, query: pattern.MustParse(src), querySrc: src, schema: p.w.Schema,
		reg: p.reg, opts: fullStack(p.w), latency: p.w.Spec.Latency}
}

func (p *openQueryPersist) finish(st *runStats) { st.footprint = p.foot }
func (p *openQueryPersist) close()              {}

// ---- federated-soap ----

// fedWorkers is the invocation pool width of the federated workload.
const fedWorkers = 4

type federatedSoap struct {
	e       *env
	w       *workload.World
	local   *service.Registry // what the provider serves
	srv     *httptest.Server
	reg     *service.Registry // proxies, profiled
	planner core.InvocationPlanner
	want    naivePass
	foot    float64
	// simVirtualMs is the op's virtual time on the simulated clock over
	// the in-process services. The op itself runs on the wall clock,
	// whose "virtual" time is real elapsed time and does not repeat.
	simVirtualMs float64
}

// fedSpec is the E17 federation: every hotel contributes a restaurants
// call and a teaser call to one wide batch, and every fourth teaser goes
// to the slow partner.
func fedSpec(sc scale) workload.HotelSpec {
	spec := workload.DefaultSpec()
	spec.Hotels = sc.fedHotels
	spec.HiddenHotels = 0
	spec.TargetEvery = 1
	spec.FiveStarEvery = 1
	spec.IntensionalRatingEvery = 0
	spec.RestosPerCall = 2
	spec.FiveStarRestos = 1
	spec.MuseumsPerCall = 0
	spec.ExtrasPerCall = 0
	spec.TeaserKinds = 4
	spec.Latency = sc.fedFast
	spec.ServiceLatency = map[string]time.Duration{"getTeaser0": sc.fedSlow}
	return spec
}

func (f *federatedSoap) options() core.Options {
	return core.Options{Strategy: core.LazyNFQ, Parallel: true, InvokeWorkers: fedWorkers,
		Planner: f.planner, Clock: service.NewWallClock(false)}
}

func setupFederatedSoap(e *env) (instance, error) {
	f := &federatedSoap{e: e, w: workload.Hotels(fedSpec(e.sc))}
	f.local = f.w.Registry
	if e.rec != nil {
		f.local = wrapHandlers(f.local, e.rec, e.cnt)
	}
	var err error
	if f.want, err = naive(f.w.Doc, f.w.StarQuery, f.w.Registry); err != nil {
		return nil, err
	}
	dir, err := scratch(e, "footprint")
	if err != nil {
		return nil, err
	}
	if f.foot, err = storedRatio(dir, f.w.Doc, f.w.Schema); err != nil {
		return nil, err
	}

	simOpts := f.options()
	simOpts.Clock = nil
	sim, err := core.Evaluate(f.w.Doc.Clone(), f.w.StarQuery, f.w.Registry, simOpts)
	if err != nil {
		return nil, err
	}
	f.simVirtualMs = float64(sim.Stats.VirtualTime) / nsPerMs

	f.srv = httptest.NewServer(soap.NewServer(f.local, true))
	client := &soap.Client{BaseURL: f.srv.URL}
	proxies, err := client.RegistryFor()
	if err != nil {
		f.srv.Close()
		return nil, err
	}
	if e.rec != nil {
		proxies = wrapRemote(proxies, e.rec, e.cnt)
	}
	// The planner knows only what the profiler saw, so the warm-up op is
	// also what teaches it which partner is slow. MinSamples 2 lets the
	// tiny world's two slow teasers clear the trust threshold.
	prof := profile.New(0, nil)
	f.reg = prof.Wrap(proxies)
	var warm runStats
	f.op(&warm)
	f.planner = plan.New(prof, plan.Options{MinSamples: 2})
	if e.rec != nil {
		f.planner = &tracedPlanner{inner: f.planner, rec: e.rec, cnt: e.cnt}
	}
	f.op(&warm)
	if warm.failed > 0 {
		f.srv.Close()
		return nil, fmt.Errorf("federated-soap: warm-up op failed: %v", warm.failures)
	}
	return f, nil
}

func (f *federatedSoap) op(st *runStats) {
	csp := f.e.rec.start("tree.clone", nil)
	doc := f.w.Doc.Clone()
	csp.end()

	st.attempted++
	osp := f.e.rec.start("op", nil)
	a0, t0 := allocBytes(), time.Now()
	out, err := evaluate(f.e, osp, doc, f.w.StarQuery, f.reg, f.options(), st)
	ns := int64(time.Since(t0))
	a1 := allocBytes()
	osp.end()
	if st.book("federated-soap", out, err, f.want.answer, ns, a1-a0) {
		st.virtualMs[len(st.virtualMs)-1] = f.simVirtualMs // the op ran on the wall clock
	}
}

func (f *federatedSoap) measure(until time.Time, st *runStats) {
	st.seqHash = hashSequence(1, func(int) string { return f.w.StarQuery.String() })
	for time.Now().Before(until) {
		f.op(st)
	}
}

func (f *federatedSoap) primary() primary {
	opts := f.options()
	opts.Clock, opts.Planner = nil, nil
	return primary{doc: f.w.Doc, query: f.w.StarQuery, querySrc: f.w.StarQuery.String(), schema: f.w.Schema,
		reg: f.local, opts: opts, latency: f.w.Spec.Latency, planner: f.planner}
}

func (f *federatedSoap) finish(st *runStats) { st.footprint = f.foot }

func (f *federatedSoap) close() { f.srv.Close() }
