package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/influence"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/plan"
	"github.com/activexml/axml/internal/repo"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/session"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/store"
	"github.com/activexml/axml/internal/tree"
)

// Replays measure the layers the harness cannot see inside an op. After
// the traced window, each calls one public function of one package on
// the workload's own inputs — the primary document, query and schema —
// inside a span. A replay is the layer's cost on that input, not its
// share of an op. A layer the window's ops already produced spans for
// (repo.get on open-query-persist, soap.roundtrip on federated-soap) is
// not replayed: its numbers come from the ops.

// replayed is what the replays report besides their spans.
type replayed struct {
	unmarshalAllocs float64
	indexBytes      int
	naive           naivePass
	lazySimNs       float64 // median wall of the lazy evaluation, simulated clock
	lazySimVirtual  float64 // its virtual time, ns
	sessionReqs     []reqSample
	gets, warmGets  int
}

type replayer struct {
	e    *env
	p    primary
	have map[string]bool // span names the window's ops produced
	st   *runStats
	out  replayed
}

// time runs fn iters times, each in a span of its own.
func (r *replayer) time(name string, iters int, fn func() error) error {
	if r.have[name] {
		return nil
	}
	for i := 0; i < iters; i++ {
		sp := r.e.rec.start(name, nil)
		err := fn()
		sp.end()
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
	}
	return nil
}

// run performs every replay. Errors abort: a replay that cannot run means
// the harness and the program disagree about an API.
func (r *replayer) run() error {
	p, n := r.p, r.e.sc.replayIters
	typed := p.opts.Strategy == core.LazyNFQTyped && p.schema != nil

	// tree: the bytes are what the repository stores for this document.
	data, err := tree.MarshalIndent(p.doc.Root)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	a0 := allocObjects()
	if err := r.time("tree.unmarshal", n, func() error { _, err := tree.Unmarshal(data); return err }); err != nil {
		return err
	}
	r.out.unmarshalAllocs = float64(allocObjects()-a0) / float64(n)
	if err := r.time("tree.marshal", n, func() error { _, err := tree.MarshalIndent(p.doc.Root); return err }); err != nil {
		return err
	}
	_ = r.time("tree.clone", n, func() error { p.doc.Clone(); return nil })

	// Static analysis, in the order the engine performs it.
	_ = r.time("pattern.parse", n, func() error { _, err := pattern.Parse(p.querySrc); return err })
	var an *schema.Analyzer
	var proj pattern.Projector
	if p.schema != nil {
		src := p.schema.String()
		if err := r.time("schema.parse", n, func() error { _, err := schema.Parse(src); return err }); err != nil {
			return err
		}
		_ = r.time("schema.analyzer", n, func() error { schema.NewAnalyzer(p.schema, p.query, p.opts.SchemaMode); return nil })
		_ = r.time("schema.projection", n, func() error { schema.NewProjection(p.schema, p.query, p.opts.SchemaMode); return nil })
		if err := r.time("schema.validate", n, func() error { return p.schema.ValidateDocument(p.doc) }); err != nil {
			return err
		}
		if typed {
			an = schema.NewAnalyzer(p.schema, p.query, p.opts.SchemaMode)
			if pr := an.Projection(); !p.opts.NoProject && !pr.Trivial() {
				proj = pr
			}
		}
	}
	names := map[string]bool{}
	for _, c := range p.doc.Calls() {
		names[c.Label] = true
	}
	ropt := rewrite.Options{Analyzer: an, RelaxJoins: p.opts.RelaxJoins}
	for name := range names {
		ropt.Names = append(ropt.Names, name)
	}
	sort.Strings(ropt.Names)
	var nfqs []*rewrite.NFQ
	if err := r.time("rewrite.build_all", n, func() error { nfqs, err = rewrite.BuildAll(p.query, ropt); return err }); err != nil {
		return err
	}
	_ = r.time("influence.new", n, func() error { influence.New(nfqs); return nil })

	// fguide: build, look every relevance query up, encode, decode.
	var g *fguide.Guide
	_ = r.time("fguide.build", n, func() error { g = fguide.Build(p.doc); return nil })
	_ = r.time("fguide.candidates", n, func() error {
		for _, q := range nfqs {
			g.Candidates(q.Lin, q.DescTail)
		}
		return nil
	})
	var index []byte
	if err := r.time("fguide.encode", n, func() error { index, err = fguide.Encode(g); return err }); err != nil {
		return err
	}
	r.out.indexBytes = len(index)
	if err := r.time("fguide.decode", n, func() error { _, err := fguide.Decode(p.doc, index); return err }); err != nil {
		return err
	}

	// repo and store, in a repository of their own.
	dir, err := scratch(r.e, "replay-repo")
	if err != nil {
		return err
	}
	rp, err := repo.Open(dir)
	if err != nil {
		return err
	}
	if err := r.time("repo.put", n, func() error { return rp.Put("replay", p.doc, repo.PutOptions{Schema: p.schema}) }); err != nil {
		return err
	}
	if err := r.time("repo.get", n, func() error {
		o, err := rp.Get("replay")
		if err == nil {
			r.out.gets++
			if o.Warm {
				r.out.warmGets++
			}
		}
		return err
	}); err != nil {
		return err
	}
	if err := r.time("store.write_atomic", n, func() error { return store.WriteFileAtomic(dir, "blob", data, true) }); err != nil {
		return err
	}

	// core: the naive fixpoint and the lazy evaluation side by side on
	// the simulated clock — the two passes the break-even latency needs.
	// Where the window's ops never call core.Evaluate themselves (serving)
	// the lazy passes also stand in for the op's core.evaluate span.
	few := min(n, 3)
	if r.out.naive, err = naive(p.doc, p.query, p.reg); err != nil {
		return err
	}
	var final *tree.Document
	var simNs []int64
	for i := 0; i < few; i++ {
		e, st := r.e, r.st
		if r.have["core.evaluate"] {
			e, st = &env{}, &runStats{} // measured only: the ops already trace the engine
		}
		final = p.doc.Clone()
		out, err := evaluate(e, nil, final, p.query, p.reg, p.opts, st)
		if err != nil {
			return fmt.Errorf("replay core.evaluate: %w", err)
		}
		if canon(resultValues(out.Results)) != r.out.naive.answer {
			return fmt.Errorf("replay core.evaluate: answer differs from the naive fixpoint")
		}
		simNs = append(simNs, st.evals[len(st.evals)-1].ns)
		r.out.lazySimVirtual = float64(out.Stats.VirtualTime)
	}
	r.out.lazySimNs = median(simNs)

	// pattern: result evaluation on the final document, and what every
	// memo answer pays — an incremental evaluation of a complete master.
	_ = r.time("pattern.eval", n, func() error { pattern.EvalProjected(final, p.query, proj); return nil })
	iev := pattern.NewIncrementalProjected(p.query, proj)
	iev.EvalIncremental(final)
	_ = r.time("pattern.incremental_eval", 4*n, func() error { iev.EvalIncremental(final); return nil })

	// plan: one batch made of the document's calls, on the workload's
	// planner if it has one (warmed by its ops), else on a cold one.
	planner := p.planner
	if planner == nil {
		planner = plan.New(nil, plan.Options{})
	}
	var batch []core.PlanCall
	for i, c := range p.doc.Calls() {
		batch = append(batch, core.PlanCall{Index: i, Service: c.Label})
	}
	_ = r.time("plan.plan_batch", n, func() error { planner.PlanBatch(batch, fedWorkers); return nil })

	if err := r.soap(4 * n); err != nil {
		return err
	}
	return r.session(8 * n)
}

// soap invokes the document's first call over a loopback SOAP server
// that does not sleep, one call at a time.
func (r *replayer) soap(iters int) error {
	call := r.p.doc.Calls()[0]
	_ = r.time("soap.encode", iters, func() error { _, err := soap.EncodeInvoke(call.Label, call.Children, nil); return err })
	if r.have["soap.roundtrip"] {
		return nil
	}
	srv := httptest.NewServer(soap.NewServer(r.p.reg, false))
	defer srv.Close()
	proxies, err := (&soap.Client{BaseURL: srv.URL}).RegistryFor()
	if err != nil {
		return fmt.Errorf("replay soap: %w", err)
	}
	reg := wrapRemote(proxies, r.e.rec, r.e.cnt)
	for i := 0; i < iters; i++ {
		if _, err := reg.Invoke(call.Label, call.Children, nil); err != nil {
			return fmt.Errorf("replay soap: %w", err)
		}
	}
	return nil
}

// session answers the primary query from the memo: directly through
// Manager.Query, and — where the workload is not itself a serving
// workload — over loopback HTTP to a server built for the replay.
func (r *replayer) session(iters int) error {
	p := r.p
	mgr, document := p.mgr, p.document
	if mgr == nil {
		engine := p.opts
		engine.Clock, engine.Guide = nil, nil
		document = "replay"
		st, err := newStack(p.reg, []namedDoc{{document, p.doc, p.schema}}, engine, r.e.rec)
		if err != nil {
			return fmt.Errorf("replay session: %w", err)
		}
		defer st.close()
		mgr = st.mgr
		req := session.QueryRequest{Document: document, Query: p.querySrc}
		for i := 0; i < iters+8; i++ {
			osp := r.e.rec.start("request", nil)
			rsp := r.e.rec.start("http.roundtrip", osp)
			resp, _, err := st.post(req, rsp)
			rsp.end()
			osp.end()
			if err != nil {
				return fmt.Errorf("replay session: %w", err)
			}
			if canon(resp.Bindings) != r.out.naive.answer {
				return fmt.Errorf("replay session: answer differs from the naive fixpoint")
			}
			if resp.Memo {
				r.out.sessionReqs = append(r.out.sessionReqs, reqSample{op: osp.id(), kind: 'h', memo: true,
					ns: osp.span.End - osp.span.Start, queued: resp.QueuedMs, elapsed: resp.ElapsedMs})
			}
		}
	}
	// A write may have left the master stale for the query: let one
	// engine run bring it back before timing memo answers.
	for i := 0; i < 4; i++ {
		res, err := mgr.Query(context.Background(), session.Request{Document: document, Query: p.querySrc})
		if err != nil {
			return fmt.Errorf("replay session: %w", err)
		}
		if res.Memo {
			break
		}
	}
	return r.time("session.query", iters, func() error {
		res, err := mgr.Query(context.Background(), session.Request{Document: document, Query: p.querySrc})
		if err == nil && !res.Memo {
			err = fmt.Errorf("not a memo answer")
		}
		return err
	})
}
