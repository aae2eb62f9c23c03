// Command axmlserver serves AXML over HTTP two ways at once
// (doc/SERVER.md): as the SOAP provider of the demo hotels services (for
// axmlquery -provider and examples/distributed) and as a multi-tenant
// query service over the mixed workload suite's documents, evaluated
// lazily in place by concurrent sessions that share relevance memos, a
// response cache and a bounded invocation pool, behind admission control.
//
// Usage:
//
//	axmlserver -dump-doc doc.axml                # write the demo document and exit
//	axmlserver -addr :8080 -docs dir -plan cost  # serve until SIGINT/SIGTERM
//
// Endpoints:
//
//	POST /query               run a query in a session (JSON; 429+Retry-After
//	                          under overload, 503 while draining; a client
//	                          that disconnects stops its evaluation)
//	GET  /documents           resident document names
//	GET  /tenants             per-tenant accounting
//	GET  /stats               session-manager snapshot
//	GET  /stats/services      per-service statistics profiles (JSON)
//	GET  /services            service descriptor (WSDL-lite)
//	POST /services/<name>     invoke a service
//	GET  /metrics             Prometheus text exposition (sessions, cache,
//	                          request latency histograms, fault counters)
//	GET  /debug/trace?last=N  recent spans as JSON
//	GET  /debug/pprof/...     net/http/pprof profiles
//
// With -recursive the provider materialises its intensional results
// before honouring pushed queries (the peer of the paper's Section 7).
// -no-cache switches off the provider's response cache; the sessions keep
// theirs. On SIGINT/SIGTERM the server drains: active sessions run to
// completion or, once -drain-timeout expires, are cancelled (exit 1),
// queued and new ones get 503, and -docs persists the masters either way.
// A negative count or duration is a usage error (exit 2), but for
// -max-queued, where it means no queue.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/activexml/axml/internal/cli"
	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/repo"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/session"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

// run starts the server. When ready is non-nil it receives the bound
// address once listening, which tests use to connect to a :0 listener.
// Closing stop triggers the same graceful drain as SIGINT/SIGTERM.
func run(args []string, stdout, stderr io.Writer, ready chan<- string, stop <-chan struct{}) int {
	fs := cli.New("axmlserver", stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		latency      = fs.Duration("latency", 10*time.Millisecond, "advertised per-call latency")
		push         = fs.Bool("push", true, "advertise query pushing on extensional services")
		sleep        = fs.Bool("sleep", false, "physically sleep the advertised latency per call")
		deadline     = fs.Duration("deadline", 0, "per-invocation server deadline (0 = unbounded); expired calls answer 504 with a timeout-classed fault")
		recursive    = fs.Bool("recursive", false, "materialise intensional results to honour pushes on every service")
		invokeWork   = fs.Int("invoke-workers", 0, "invoke a session round's independent calls — and a recursive materialisation round's embedded calls — on this many concurrent workers (0/1 = sequential)")
		dump         = fs.String("dump-doc", "", "write the demo client document to this file and exit")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget for active sessions")
		isolated     = fs.Bool("isolated", false, "evaluate every session on a private document clone (no shared materialisation)")
		docsDir      = fs.String("docs", "", "persist materialised documents to this directory across restarts")
		world        = cli.AddWorld(fs)
		admission    = cli.AddAdmission(fs)
		stack        = cli.AddStack(fs)
		trace        = cli.AddTrace(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "axmlserver: "+format+"\n", a...)
		return 1
	}

	spec := world.Spec()
	spec.Latency = *latency
	spec.PushCapable = *push
	w := workload.Hotels(spec)
	if *dump != "" {
		b, err := tree.MarshalIndent(w.Doc.Root)
		if err != nil {
			return fail("%v", err)
		}
		if err := os.WriteFile(*dump, append(b, '\n'), 0o644); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *dump)
		return 0
	}

	var rp *repo.Repo
	if *docsDir != "" {
		var err error
		if rp, err = repo.Open(*docsDir); err != nil {
			return fail("%v", err)
		}
	}
	clock := func() service.Clock { return &service.SimClock{} }
	if *sleep {
		clock = func() service.Clock { return service.NewWallClock(true) }
	}
	var engine core.Options
	if *invokeWork > 1 {
		// Session invocation batches run on the same pool width (what
		// -plan=cost schedules); results are identical to sequential ones.
		engine.Layering, engine.Parallel, engine.InvokeWorkers = true, true, *invokeWork
	}
	suiteReg, scenarios := workload.Suite(spec)
	srv, err := cli.NewServer(suiteReg, scenarios, session.Config{Repo: rp, Engine: engine, Isolated: *isolated, Clock: clock}, admission, stack)
	if err != nil {
		return fail("%v", err)
	}
	if *docsDir != "" {
		// Profiles learned by previous lives of this directory make the
		// first request warm (a corrupt file degrades to a cold start).
		if err := srv.Profiler.LoadFile(*docsDir); err != nil {
			return fail("profiles: %v", err)
		}
	}
	// The SOAP provider has its own response cache over the profiler the
	// sessions share: it keys recursive/push responses, which would
	// cross-contaminate plain session invocations.
	reg := w.Registry
	if *recursive {
		reg = soap.RecursivePush(reg, 1_000_000, max(1, *invokeWork))
	}
	reg = session.ServingRegistry(reg, stack.Cache(nil), srv.Profiler, 0, srv.Metrics)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("%v", err)
	}
	closeTrace, err := trace.Open(srv.Tracer)
	if err != nil {
		ln.Close()
		return fail("%v", err)
	}
	fmt.Fprintf(stdout, "axmlserver: serving %d services on %s (push=%t, sleep=%t, recursive=%t)\n",
		len(reg.Names()), ln.Addr(), *push, *sleep, *recursive)
	fmt.Fprintf(stdout, "  sessions:   POST http://%s/query over %d documents (max-active=%d, isolated=%t)\n",
		ln.Addr(), len(scenarios), srv.Manager.Stats().Documents, *isolated)
	fmt.Fprintf(stdout, "  descriptor: GET http://%s/services\n", ln.Addr())
	fmt.Fprintf(stdout, "  telemetry:  GET http://%s/metrics, /debug/trace, /debug/pprof\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	provider := soap.NewServer(reg, *sleep)
	provider.Deadline, provider.Metrics, provider.Tracer = *deadline, srv.Metrics, srv.Tracer
	srv.Mux.Handle("/", provider)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	select {
	case err := <-served:
		// Serve only returns on listener failure (Shutdown is the other
		// path, reached below).
		return fail("%v", err)
	case <-sig:
	case <-stop:
	}

	// Graceful drain: refuse queued and new sessions (503), let active
	// ones finish or cancel them when the budget runs out, persist the
	// masters, then close idle connections.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Manager.Drain(ctx); err != nil {
		code = fail("drain: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		code = fail("shutdown: %v", err)
	}
	if *docsDir != "" {
		if err := srv.Profiler.SaveFile(*docsDir); err != nil {
			code = fail("profiles: %v", err)
		}
	}
	// The sink streamed every span already: make the JSONL durable.
	if err := closeTrace(); err != nil {
		code = fail("trace: %v", err)
	}
	if code == 0 {
		fmt.Fprintf(stdout, "axmlserver: drained and stopped\n")
	}
	return code
}
