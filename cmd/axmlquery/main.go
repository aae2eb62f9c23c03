// Command axmlquery evaluates a tree-pattern query over an AXML document,
// resolving embedded service calls lazily.
//
// Usage:
//
//	axmlquery -doc doc.xml -query '/hotels/hotel[name="Best Western"]//restaurant[name=$X] -> $X' \
//	          [-strategy lazy-nfq-typed] [-schema schema.txt] [-provider http://host:port] \
//	          [-push] [-layer] [-parallel] [-guide] [-stats] [-explain] [-out result.xml] \
//	          [-retries 3] [-timeout 2s] [-best-effort] \
//	          [-no-cache] [-cache-ttl 5m] [-invoke-workers 4] [-no-incremental]
//	          [-plan cost]
//
// Planning (see doc/PLANNER.md): -plan=cost schedules each round's
// invocation batches from an in-run statistics profile — slowest and
// least-selective calls first across the pool, the pool narrowed when
// fewer workers reach the same makespan, and pushes vetoed to services
// that provably ignore them. The planner only reorders and resizes work: results are bit-identical to -plan=off, and -explain
// shows each batch's plan with its per-service cost rationale.
//
// Performance (see doc/PERF.md): service responses are memoised by
// (service, parameters, pushed query) with in-flight deduplication —
// -no-cache disables this, -cache-ttl bounds how long a response stays
// servable (entries age on the evaluation's clock, so TTLs lapse on
// virtual time in simulated runs). Relevance re-evaluation reuses a
// persistent match memo across rounds (-no-incremental falls back to
// from-scratch evaluation), and -invoke-workers N invokes up to N of a
// round's independent relevant calls concurrently (implies -parallel;
// results are identical to sequential invocation).
//
// Fault tolerance (see doc/FAULTS.md): -retries enables engine-side
// retries of transient and timeout faults with exponential backoff,
// -timeout bounds each call attempt, and -best-effort records failed
// calls and keeps evaluating instead of aborting (completeness is then
// reported honestly in the exit status and warnings).
//
// Services are resolved against a remote provider (-provider, see
// axmlserver) or, without one, against the built-in demo registry of the
// hotels scenario. The final document state (the materialised relevant
// parts) can be written with -out; the query results print to stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/activexml/axml/internal/construct"
	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/plan"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

var strategies = map[string]core.Strategy{
	"naive":          core.NaiveFixpoint,
	"eager":          core.TopDownEager,
	"lazy-lpq":       core.LazyLPQ,
	"lazy-nfq":       core.LazyNFQ,
	"lazy-nfq-typed": core.LazyNFQTyped,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("axmlquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		docPath    = fs.String("doc", "", "AXML document file (required)")
		queryText  = fs.String("query", "", "tree-pattern query (required)")
		strategy   = fs.String("strategy", "lazy-nfq", "naive|eager|lazy-lpq|lazy-nfq|lazy-nfq-typed")
		schemaPath = fs.String("schema", "", "service-signature schema file (enables typed pruning)")
		provider   = fs.String("provider", "", "remote provider base URL (default: built-in demo services)")
		push       = fs.Bool("push", false, "push subqueries to capable services")
		layer      = fs.Bool("layer", false, "enable NFQ layering")
		parallel   = fs.Bool("parallel", false, "invoke independent call sets in parallel")
		guide      = fs.Bool("guide", false, "use an F-guide for relevance detection")
		relax      = fs.Bool("relax-joins", false, "relax value joins in relevance queries")
		maxCalls   = fs.Int("max-calls", 0, "invocation budget (0 = default)")
		retries    = fs.Int("retries", 0, "retry transient/timeout faults up to this many extra attempts per call")
		timeout    = fs.Duration("timeout", 0, "per-call deadline; slower calls count as timeouts (0 = none)")
		bestEffort = fs.Bool("best-effort", false, "record failed calls and keep evaluating instead of aborting")
		noCache    = fs.Bool("no-cache", false, "disable service-response memoisation")
		cacheTTL   = fs.Duration("cache-ttl", 0, "bound how long a cached response stays servable (0 = forever)")
		invokeWork = fs.Int("invoke-workers", 0, "invoke up to this many independent calls of a round concurrently (implies -parallel; 0 = unbounded batches under -parallel, 1 = sequential)")
		noIncr     = fs.Bool("no-incremental", false, "re-evaluate relevance queries from scratch each round")
		planMode   = fs.String("plan", "off", "off|cost: plan each round's invocation batches from an in-run service profile (reorders and resizes work only; results are identical)")
		noProject  = fs.Bool("no-project", false, "disable type-based document projection (typed strategy + schema only)")
		stats      = fs.Bool("stats", false, "print evaluation statistics")
		explain    = fs.Bool("explain", false, "print the evaluation's span tree (detect/invoke timings, pruned vs invoked) to stderr")
		traceOut   = fs.String("trace-out", "", "stream finished telemetry spans to this file as JSONL")
		remoteSpan = fs.Int("remote-spans", 512, "remote span subtree budget per invocation when tracing over -provider (0 = propagate the trace ID only)")
		serveDebug = fs.String("serve-debug", "", "serve /metrics, /debug/trace and /debug/pprof on this address (e.g. :8090) while evaluating")
		tmplText   = fs.String("template", "", "render results through an XML template with {$X} placeholders")
		outPath    = fs.String("out", "", "write the materialised document here")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *docPath == "" || *queryText == "" {
		fmt.Fprintln(stderr, "axmlquery: -doc and -query are required")
		fs.Usage()
		return 2
	}
	// Flag values are checked before any side effect: no trace file,
	// listener or provider round trip for a run that cannot start.
	st, ok := strategies[*strategy]
	if !ok {
		fmt.Fprintf(stderr, "axmlquery: unknown -strategy %q\n", *strategy)
		return 2
	}
	if *planMode != "off" && *planMode != "cost" {
		fmt.Fprintf(stderr, "axmlquery: unknown -plan mode %q (want off or cost)\n", *planMode)
		return 2
	}

	fail := func(context string, err error) int {
		fmt.Fprintf(stderr, "axmlquery: %s: %v\n", context, err)
		return 1
	}

	data, err := os.ReadFile(*docPath)
	if err != nil {
		return fail("read document", err)
	}
	doc, err := tree.Unmarshal(data)
	if err != nil {
		return fail("parse document", err)
	}
	q, err := pattern.Parse(*queryText)
	if err != nil {
		return fail("parse query", err)
	}

	opt := core.Options{
		Strategy: st, Push: *push, Layering: *layer, Parallel: *parallel,
		UseGuide: *guide, RelaxJoins: *relax, MaxCalls: *maxCalls,
		Incremental: !*noIncr, InvokeWorkers: *invokeWork,
		NoProject: *noProject,
	}
	if *retries > 0 || *timeout > 0 {
		opt.Retry = core.RetryPolicy{
			MaxAttempts: *retries + 1,
			Backoff:     50 * time.Millisecond,
			MaxBackoff:  2 * time.Second,
			Jitter:      0.5,
			Deadline:    *timeout,
		}
	}
	if *bestEffort {
		opt.Failure = core.BestEffort
	}
	// Telemetry is opt-in: the tracer exists only when something consumes
	// spans, the metrics registry only when something reads it, so plain
	// runs keep the disabled-telemetry fast path.
	var tracer *telemetry.Tracer
	if *explain || *traceOut != "" || *serveDebug != "" {
		tracer = telemetry.NewTracer(telemetry.DefaultSpanCapacity)
		// The trace ID is derived from the run's inputs, not drawn at
		// random, so two identical runs produce byte-identical traces —
		// the same discipline the engine applies to everything else.
		tracer.SetTrace(telemetry.DeriveTraceID(*queryText, *docPath))
		opt.Tracer = tracer
		opt.RemoteSpans = *remoteSpan
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail("create trace file", err)
		}
		defer f.Close()
		tracer.SetSink(telemetry.SinkJSONL(f))
	}
	var metrics *telemetry.Registry
	if *stats || *serveDebug != "" {
		metrics = telemetry.NewRegistry()
		opt.Metrics = metrics
		tracer.InstrumentDrops(metrics)
	}
	if *serveDebug != "" {
		ln, err := net.Listen("tcp", *serveDebug)
		if err != nil {
			return fail("serve-debug listen", err)
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "debug endpoints on http://%s (/metrics, /debug/trace, /debug/pprof)\n", ln.Addr())
		go func() { _ = http.Serve(ln, telemetry.Handler(metrics, tracer)) }()
	}
	if *schemaPath != "" {
		sdata, err := os.ReadFile(*schemaPath)
		if err != nil {
			return fail("read schema", err)
		}
		sch, err := schema.Parse(string(sdata))
		if err != nil {
			return fail("parse schema", err)
		}
		opt = opt.WithSchema(sch)
	}

	var reg *service.Registry
	if *provider != "" {
		client := &soap.Client{BaseURL: *provider, Timeout: *timeout, Metrics: metrics}
		reg, err = client.RegistryFor()
		if err != nil {
			return fail("describe provider", err)
		}
		opt.Clock = service.NewWallClock(false)
	} else {
		reg = workload.Hotels(workload.DefaultSpec()).Registry
		// Local runs charge latencies to a virtual clock. Make it
		// explicit (rather than letting the engine default one) so the
		// response cache below can age its entries on the same timeline.
		opt.Clock = &service.SimClock{}
	}
	// The planner learns from a profiler wrapped under the response
	// cache (same layering as axmlserver): it observes real provider
	// latencies, not cache hits, and within one evaluation later rounds
	// are scheduled from what earlier rounds measured.
	var planner *plan.CostPlanner
	var prof *profile.Profiler
	if *planMode == "cost" {
		prof = profile.New(0, nil)
		reg = prof.Wrap(reg)
		planner = plan.New(prof, plan.Options{})
		planner.Instrument(metrics)
		opt.Planner = planner
	}
	var cache *service.Cache
	if !*noCache {
		cache = service.NewCache(service.CacheSpec{TTL: *cacheTTL, Now: service.ClockNow(opt.Clock)})
		cache.Instrument(metrics)
		if prof != nil {
			cache.Notify(prof.Notify())
		}
		reg = cache.Wrap(reg)
	}

	out, err := core.Evaluate(doc, q, reg, opt)
	if err != nil {
		return fail("evaluate", err)
	}
	if *explain {
		fmt.Fprintln(stderr, "explain:")
		telemetry.WriteTree(stderr, tracer.Spans(0))
	}

	if *tmplText != "" {
		tmpl, err := construct.ParseTemplate(*tmplText)
		if err != nil {
			return fail("parse template", err)
		}
		built, err := construct.Document("results", tmpl, out.Results)
		if err != nil {
			return fail("construct results", err)
		}
		b, err := tree.MarshalIndent(built.Root)
		if err != nil {
			return fail("marshal results", err)
		}
		fmt.Fprintf(stdout, "%s\n", b)
	} else {
		printResults(stdout, out)
	}
	for _, f := range out.Failures {
		fmt.Fprintf(stderr, "warning: gave up on %s at %s after %d attempt(s): %v\n",
			f.Service, f.Path, f.Attempts, f.Err)
	}
	if !out.Complete {
		fmt.Fprintln(stderr, "warning: the answer may be incomplete (budget exhausted or calls abandoned)")
	}
	if *stats {
		printStats(stderr, out.Stats)
		if planner != nil {
			ps := planner.Stats()
			fmt.Fprintf(stderr, "  plan:               %d batch(es), %d reordered, %d width trim(s), %d push veto(es)\n",
				ps.Batches, ps.Reorders, ps.WidthTrims, out.Stats.PushVetoed)
		}
		if cache != nil {
			cs := cache.Stats()
			fmt.Fprintf(stderr, "  svc cache:          %d hit(s), %d miss(es), %d coalesced (%.0f%% served locally)\n",
				cs.Hits, cs.Misses, cs.Coalesced, 100*cs.HitRate())
		}
		printQuantiles(stderr, metrics)
	}
	if *outPath != "" {
		b, err := tree.MarshalIndent(doc.Root)
		if err != nil {
			return fail("marshal document", err)
		}
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			return fail("write document", err)
		}
	}
	return 0
}

func printResults(w io.Writer, out *core.Outcome) {
	fmt.Fprintf(w, "%d result(s)\n", len(out.Results))
	for i, r := range out.Results {
		var parts []string
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("$%s=%q", k, r.Values[k]))
		}
		ids := make([]int, 0, len(r.Nodes))
		for id := range r.Nodes {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			parts = append(parts, r.Nodes[id].String())
		}
		fmt.Fprintf(w, "%3d. %s\n", i+1, strings.Join(parts, "  "))
	}
}

// printQuantiles appends latency quantiles for the phases the metrics
// registry observed during the run.
func printQuantiles(w io.Writer, reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	rows := []struct{ label, metric string }{
		{"detect latency", telemetry.MetricDetectSeconds},
		{"invoke latency", telemetry.MetricInvokeWallSeconds},
		{"wire latency", telemetry.MetricHTTPClientSeconds},
	}
	for _, row := range rows {
		h, ok := snap.Histograms[row.metric]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-19s n=%d p50=%v p95=%v p99=%v max=%v\n",
			row.label+":", h.Count, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
	}
}

func printStats(w io.Writer, st core.Stats) {
	fmt.Fprintf(w, `stats:
  calls invoked:      %d (pushed: %d)
  retries:            %d (deadline cuts: %d, abandoned calls: %d)
  rounds:             %d
  relevance queries:  %d
  match work:         %d visited, %d memo hit(s), %d guide candidate(s) validated (%d revalidated)
  subtrees projected: %d
  bytes fetched:      %d
  virtual time:       %v
  detection time:     %v
  analysis time:      %v
  final doc size:     %d nodes
`, st.CallsInvoked, st.PushedCalls,
		st.Retries, st.DeadlineCuts, st.FailedCalls,
		st.Rounds, st.RelevanceQueries,
		st.NodesVisited, st.MemoHits, st.GuideCandidates, st.Revalidated, st.SubtreesPruned, st.BytesFetched, st.VirtualTime, st.DetectTime,
		st.AnalysisTime, st.FinalSize)
}
