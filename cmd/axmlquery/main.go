// Command axmlquery evaluates a tree-pattern query over an AXML document,
// invoking only the embedded service calls the query needs.
//
// Usage:
//
//	axmlquery -doc doc.axml -query '/hotels/hotel[name="Best Western"]//restaurant[name=$X] -> $X' -explain -stats
//	axmlquery -doc doc.axml -query … -provider http://host:8080 -retries 3 -timeout 2s -best-effort
//
// Services are a remote provider's (-provider, see axmlserver) or, without
// one, the built-in demo world's. Results print to stdout; -out writes the
// materialised document, -template renders the results through an XML
// template. The other flags (-h lists them) choose the strategy and its
// pruning (-strategy, -schema, -push, -layer, -guide, -relax-joins,
// -no-project; doc/SCHEMA.md), the invocation (-parallel, -invoke-workers,
// -max-calls, -no-cache, -cache-ttl, -no-incremental; doc/PERF.md, and
// -plan cost, doc/PLANNER.md — results are identical either way), fault
// handling (-retries, -timeout, -best-effort; doc/FAULTS.md) and what is
// observed (-stats, -explain, -trace-out, -remote-spans, -serve-debug;
// doc/OBSERVABILITY.md).
//
// Exit status: 0 on success, an incomplete best-effort answer included
// (it prints warnings); 1 when the run fails; 2 on a usage error — a
// missing, unknown or negative flag value — before any file, listener or
// provider is touched.
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/activexml/axml/internal/cli"
	"github.com/activexml/axml/internal/construct"
	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/plan"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/session"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.New("axmlquery", stderr)
	var (
		docPath    = fs.String("doc", "", "AXML document file (required)")
		queryText  = fs.String("query", "", "tree-pattern query (required)")
		strategy   = fs.String("strategy", "lazy-nfq", "naive|eager|lazy-lpq|lazy-nfq|lazy-nfq-typed")
		schemaPath = fs.String("schema", "", "service-signature schema file (enables typed pruning)")
		push       = fs.Bool("push", false, "push subqueries to capable services")
		layer      = fs.Bool("layer", false, "enable NFQ layering")
		parallel   = fs.Bool("parallel", false, "invoke independent call sets in parallel")
		guide      = fs.Bool("guide", false, "use an F-guide for relevance detection")
		relax      = fs.Bool("relax-joins", false, "relax value joins in relevance queries")
		maxCalls   = fs.Int("max-calls", 0, "invocation budget (0 = default)")
		retries    = fs.Int("retries", 0, "retry transient/timeout faults up to this many extra attempts per call")
		timeout    = fs.Duration("timeout", 0, "per-call deadline; slower calls count as timeouts (0 = none)")
		bestEffort = fs.Bool("best-effort", false, "record failed calls and keep evaluating instead of aborting")
		invokeWork = fs.Int("invoke-workers", 0, "invoke up to this many independent calls of a round concurrently (implies -parallel; 0 = unbounded batches under -parallel, 1 = sequential)")
		noIncr     = fs.Bool("no-incremental", false, "re-evaluate relevance queries from scratch each round")
		stats      = fs.Bool("stats", false, "print evaluation statistics")
		remoteSpan = fs.Int("remote-spans", 512, "remote span subtree budget per invocation when tracing over -provider (0 = propagate the trace ID only)")
		serveDebug = fs.String("serve-debug", "", "serve /metrics, /debug/trace and /debug/pprof on this address (e.g. :8090) while evaluating")
		tmplText   = fs.String("template", "", "render results through an XML template with {$X} placeholders")
		outPath    = fs.String("out", "", "write the materialised document here")
		provider   = cli.AddProvider(fs)
		stack      = cli.AddStack(fs)
		explain    = cli.AddExplain(fs)
		trace      = cli.AddTrace(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *docPath == "" || *queryText == "" {
		fmt.Fprintln(stderr, "axmlquery: -doc and -query are required")
		fs.Usage()
		return 2
	}
	st := core.NaiveFixpoint
	for st.String() != *strategy {
		if st++; st > core.LazyNFQTyped {
			fmt.Fprintf(stderr, "axmlquery: unknown -strategy %q\n", *strategy)
			return 2
		}
	}

	fail := func(context string, err error) int {
		fmt.Fprintf(stderr, "axmlquery: %s: %v\n", context, err)
		return 1
	}

	// Inputs are read before any output is created: no trace file,
	// listener or provider round trip for a run that cannot start.
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
	// Telemetry is opt-in, so plain runs keep the disabled-telemetry fast
	// path.
	var metrics *telemetry.Registry
	if *stats || *serveDebug != "" {
		metrics = telemetry.NewRegistry()
		opt.Metrics = metrics
	}
	reg, clock, err := provider.Registry(*timeout, metrics)
	if err != nil {
		return fail("describe provider", err)
	}
	opt.Clock = clock
	tracer := explain.Tracer(trace.On() || *serveDebug != "")
	if tracer != nil {
		// The trace ID is derived from the run's inputs, so two identical
		// runs produce byte-identical traces.
		tracer.SetTrace(telemetry.DeriveTraceID(*queryText, *docPath))
		tracer.InstrumentDrops(metrics)
		opt.Tracer = tracer
		opt.RemoteSpans = *remoteSpan
	}
	// The planner learns from the profiler under the response cache, whose
	// entries age on the evaluation's clock: later rounds are planned from
	// what earlier rounds measured, cache hits excluded.
	prof := profile.New(0, nil)
	cache := stack.Cache(service.ClockNow(clock))
	reg = session.ServingRegistry(reg, cache, prof, 0, metrics)
	opt = stack.Engine(opt, prof, metrics)
	if *serveDebug != "" {
		ln, err := net.Listen("tcp", *serveDebug)
		if err != nil {
			return fail("serve-debug listen", err)
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "debug endpoints on http://%s (/metrics, /debug/trace, /debug/pprof)\n", ln.Addr())
		go func() { _ = http.Serve(ln, telemetry.Handler(metrics, tracer)) }()
	}
	closeTrace, err := trace.Open(tracer)
	if err != nil {
		return fail("create trace file", err)
	}
	defer closeTrace()

	out, err := core.Evaluate(doc, q, reg, opt)
	if err != nil {
		return fail("evaluate", err)
	}
	explain.Print(stderr, tracer)

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
		if planner, ok := opt.Planner.(*plan.CostPlanner); ok {
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
		for _, k := range cli.SortedKeys(r.Values) {
			parts = append(parts, fmt.Sprintf("$%s=%q", k, r.Values[k]))
		}
		for _, id := range cli.SortedKeys(r.Nodes) {
			parts = append(parts, r.Nodes[id].String())
		}
		fmt.Fprintf(w, "%3d. %s\n", i+1, strings.Join(parts, "  "))
	}
}

// printQuantiles appends latency quantiles for the phases the metrics
// registry observed during the run.
func printQuantiles(w io.Writer, reg *telemetry.Registry) {
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
