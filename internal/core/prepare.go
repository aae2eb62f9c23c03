package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/activexml/axml/internal/influence"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
)

// Prepared is a query analysed for evaluation: everything Evaluate derives
// from the query text, the schema and the options alone, before it looks at
// a document — the validated pattern, the satisfiability analysis and the
// user query's projection (typed strategy), the layer structure of Section
// 4.3, and the relevance-query objects themselves, generated on demand and
// memoised by what they really depend on: the layers already finished and,
// for refined NFQs, the service names known to occur. One Prepared serves
// any number of evaluations, over any documents, concurrently.
//
// It reads the Strategy, Schema, SchemaMode, NoProject, Layering,
// RelaxJoins and Push options; the rest of Options belongs to a run.
type Prepared struct {
	q   *pattern.Pattern
	opt Options // normalised; only the fields listed above are read

	an       *schema.Analyzer   // typed strategy only
	userProj *schema.Projection // the user query's own projection; nil when not projecting
	// skeleton is the relevance-query set built with no name known and no
	// layer finished. Linear parts and target nodes never change across
	// regenerations, so member indices, layers and done sets derive from it.
	skeleton []*rewrite.NFQ
	analysis *influence.Analysis // nil without Layering
	layers   [][]int             // ascending member indices, in processing order
	done     []map[int]bool      // done[li]: target nodes of the layers before li

	mu       sync.Mutex
	unbilled time.Duration // Prepare's own cost, charged to the first run
	sets     map[setKey][]*rewrite.NFQ
	projs    map[*rewrite.NFQ]*schema.Projection
}

// setKey identifies one generation of the relevance queries.
type setKey struct {
	layer int
	names string // NUL-joined sorted names; "" when the queries are untyped
}

// Prepare analyses q for evaluation under opt. The time it takes is reported
// as Stats.AnalysisTime by the first run of the result.
func Prepare(q *pattern.Pattern, opt Options) (*Prepared, error) {
	if err := rewrite.Validate(q); err != nil {
		return nil, err
	}
	t0 := time.Now()
	p, err := prepare(q, normalise(opt))
	if err != nil {
		return nil, err
	}
	p.unbilled = time.Since(t0)
	return p, nil
}

// normalise resolves the options that imply one another.
func normalise(opt Options) Options {
	if opt.Strategy == TopDownEager {
		// The eager baseline models a blocking top-down processor: one
		// call at a time, no sequencing analysis, no pushing.
		opt.Layering, opt.Parallel, opt.Push = false, false, false
		opt.Speculative = false
		opt.InvokeWorkers = 0
	}
	if opt.Speculative || opt.InvokeWorkers > 1 {
		opt.Parallel = true
	}
	if opt.Clock == nil {
		opt.Clock = &service.SimClock{}
	}
	if opt.MaxCalls == 0 {
		opt.MaxCalls = DefaultMaxCalls
	}
	return opt
}

func prepare(q *pattern.Pattern, opt Options) (*Prepared, error) {
	p := &Prepared{q: q, opt: opt,
		sets: map[setKey][]*rewrite.NFQ{}, projs: map[*rewrite.NFQ]*schema.Projection{}}
	switch opt.Strategy {
	case NaiveFixpoint:
		return p, nil
	case TopDownEager, LazyLPQ, LazyNFQ:
	case LazyNFQTyped:
		if opt.Schema == nil {
			return nil, fmt.Errorf("core: LazyNFQTyped requires a schema")
		}
		p.an = schema.NewAnalyzer(opt.Schema, q, opt.SchemaMode)
		if !opt.NoProject {
			p.userProj = p.an.Projection()
		}
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", opt.Strategy)
	}
	var err error
	if p.skeleton, err = p.build(nil, nil); err != nil {
		return nil, err
	}
	members := make([]int, len(p.skeleton))
	for i := range members {
		members[i] = i
	}
	p.layers = [][]int{members}
	if opt.Layering {
		p.analysis = influence.New(p.skeleton)
		p.layers = p.layers[:0]
		for _, l := range p.analysis.Layers() {
			p.layers = append(p.layers, l.SortedMembers())
		}
	}
	// Section 4.3: positions of a finished layer can no longer hold calls;
	// later queries drop the corresponding OR/() branches.
	done := map[int]bool{}
	for _, members := range p.layers {
		before := make(map[int]bool, len(done))
		for id := range done {
			before[id] = true
		}
		p.done = append(p.done, before)
		for _, m := range members {
			done[p.skeleton[m].For.ID] = true
		}
	}
	return p, nil
}

// lpqBased reports that relevance is positional only: the query objects
// depend on nothing but the user query.
func (p *Prepared) lpqBased() bool {
	return p.opt.Strategy == TopDownEager || p.opt.Strategy == LazyLPQ
}

// queries returns the relevance queries for layer li given the known
// service names, generating them on first use; built reports how long that
// took, 0 on a memo hit. The result always holds one query per
// member index, so the layers' indices stay valid across regenerations.
// Done positions are only used to simplify OR/() branches inside the
// queries (Section 4.3): queries for done nodes are still present but
// belong to finished layers and are never evaluated again.
func (p *Prepared) queries(li int, known map[string]bool) (set []*rewrite.NFQ, built time.Duration, err error) {
	if p.lpqBased() {
		return p.skeleton, 0, nil
	}
	key := setKey{layer: li}
	var names []string
	if p.an != nil {
		names = sortedNames(known)
		key.names = strings.Join(names, "\x00")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if set, ok := p.sets[key]; ok {
		return set, 0, nil
	}
	t0 := time.Now()
	if set, err = p.build(p.done[li], names); err != nil {
		return nil, 0, err
	}
	p.sets[key] = set
	return set, time.Since(t0), nil
}

// build generates one relevance-query set.
func (p *Prepared) build(done map[int]bool, names []string) ([]*rewrite.NFQ, error) {
	if p.lpqBased() {
		return p.lpqSet()
	}
	ropt := rewrite.Options{RelaxJoins: p.opt.RelaxJoins, Analyzer: p.an, Names: names, Done: done}
	var out []*rewrite.NFQ
	for _, v := range p.q.Nodes() {
		if v.Kind == pattern.Root {
			continue
		}
		var (
			nfq *rewrite.NFQ
			err error
		)
		if done[v.ID] {
			// Finished layer: keep an index placeholder; its query is
			// never evaluated again.
			nfq, err = rewrite.LPQ(p.q, v)
		} else {
			nfq, err = rewrite.Build(p.q, v, ropt)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, nfq)
	}
	return out, nil
}

// lpqSet builds the minimized LPQ family. Minimization (containment-based
// redundancy elimination, Section 4.1) is skipped when pushing, since the
// subsumed finer queries carry more precise subqueries to push.
func (p *Prepared) lpqSet() ([]*rewrite.NFQ, error) {
	var out []*rewrite.NFQ
	for _, v := range p.q.Nodes() {
		if v.Kind == pattern.Root {
			continue
		}
		l, err := rewrite.LPQ(p.q, v)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	if !p.opt.Push {
		out = rewrite.Minimize(out)
	}
	return out, nil
}

// projection returns (building on first use) the document-projection
// predicate for one relevance query, or nil when the evaluation does not
// project. Construction runs the per-query satisfiability fixpoint; built
// reports its cost, 0 on a memo hit. The predicate lives as long as the
// query object it was derived from.
func (p *Prepared) projection(nfq *rewrite.NFQ) (proj *schema.Projection, built time.Duration) {
	if p.userProj == nil {
		return nil, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	proj, ok := p.projs[nfq]
	if !ok {
		t0 := time.Now()
		proj = schema.NewProjection(p.opt.Schema, nfq.Query, p.opt.SchemaMode)
		built = time.Since(t0)
		p.projs[nfq] = proj
	}
	return proj, built
}

// bill returns Prepare's cost the first time it is asked.
func (p *Prepared) bill() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.unbilled
	p.unbilled = 0
	return d
}

// bind makes a run's options agree with the ones p was prepared under.
func (p *Prepared) bind(opt Options) Options {
	opt.Strategy, opt.Schema, opt.SchemaMode, opt.NoProject = p.opt.Strategy, p.opt.Schema, p.opt.SchemaMode, p.opt.NoProject
	opt.Layering, opt.RelaxJoins, opt.Push = p.opt.Layering, p.opt.RelaxJoins, p.opt.Push
	return opt
}

// Over returns an evaluation of the prepared query over doc that has not
// run yet.
func (p *Prepared) Over(doc *tree.Document) *Evaluation {
	return &Evaluation{q: p.q, p: p, doc: doc}
}

// sortedNames renders a name set as the sorted list the rewriting takes.
func sortedNames(names map[string]bool) []string {
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
