package soap

import (
	"context"
	"fmt"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// RecursivePush upgrades a registry for peer deployment: services whose
// results embed further calls (and therefore cannot honour a pushed query
// directly — see service.Service.CanPush) are wrapped so that, when a
// query is pushed, the provider first materialises its own result by
// resolving the embedded calls against its *own* registry, then evaluates
// the pushed query over the materialised forest and returns binding
// tuples.
//
// This models the ActiveXML peer-to-peer deployment, where every provider
// is itself an AXML system able to resolve its intensional data before
// answering (Section 7 of the paper) — and it is one here: the
// materialisation is a run of the engine's naive fixpoint (Section 1) over
// the response forest, under the request's context (a peer that hangs up
// stops it at the next round) and within maxCalls invocations, past which
// the invocation fails. Each round's calls run on up to workers goroutines
// (core.Options.InvokeWorkers: 1 is sequential, 0 one per call) and are
// spliced in document order, so the tuples are the same at every width. A
// traced request shows the run as the engine's evaluate → invoke spans under
// the server's service span. Wrapped services advertise CanPush.
func RecursivePush(reg *service.Registry, maxCalls, workers int) *service.Registry {
	// The naive strategy invokes every call whatever the query; the pushed
	// one is evaluated afterwards, over the forest, not the wrapper.
	fixpoint, err := core.Prepare(pattern.MustParse("/materialise"), core.Options{})
	if err != nil {
		panic(err) // a constant query
	}
	out := reg.Proxy(func(inner *service.Service, next service.Invoker) service.Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			resp, err := next(ctx, params, nil)
			if err != nil || pushed == nil {
				return resp, err
			}
			root := tree.NewElement("materialise")
			for _, n := range resp.Forest {
				root.Append(n)
			}
			tc, _ := telemetry.TraceFrom(ctx)
			run, err := fixpoint.Over(tree.NewDocument(root)).Run(ctx, reg, core.Options{
				Strategy: core.NaiveFixpoint, Parallel: true, InvokeWorkers: workers, MaxCalls: maxCalls,
				Tracer: tc.Tracer, RemoteSpans: tc.MaxSpans,
			})
			if err != nil {
				return service.Response{}, err
			}
			if !run.Complete {
				return service.Response{}, fmt.Errorf("soap: recursive push exceeded %d call budget", maxCalls)
			}
			tu := service.EvalPushed(root.Children, pushed)
			data, err := tree.Marshal(tu)
			if err != nil {
				return service.Response{}, err
			}
			return service.Response{Forest: []*tree.Node{tu}, Bytes: len(data), Latency: inner.Latency, Pushed: true}, nil
		}
	})
	for _, name := range out.Names() {
		out.Lookup(name).CanPush = true
	}
	return out
}
