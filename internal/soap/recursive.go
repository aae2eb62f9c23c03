package soap

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

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
// answering (the setting of Section 7 of the paper). maxCalls bounds the
// materialisation, mirroring the engine's own termination budget.
//
// The returned registry contains a wrapper for every service of reg;
// wrapped services advertise CanPush. Materialisation resolves embedded
// calls sequentially; RecursivePushWorkers bounds a concurrent pool.
func RecursivePush(reg *service.Registry, maxCalls int) *service.Registry {
	return RecursivePushWorkers(reg, maxCalls, 1)
}

// RecursivePushWorkers is RecursivePush with the provider-side
// materialisation fixpoint invoking up to workers embedded calls of each
// round concurrently (values below 2 mean sequential). Responses are
// spliced in document order after each round, so the materialised forest
// — and therefore the binding tuples returned to the peer — is identical
// for every pool width; handlers are required to be concurrent-safe
// (see service.Handler).
func RecursivePushWorkers(reg *service.Registry, maxCalls, workers int) *service.Registry {
	out := reg.Proxy(func(inner *service.Service, next service.Invoker) service.Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			resp, err := next(ctx, params, nil)
			if err != nil || pushed == nil {
				return resp, err
			}
			forest, err := materialise(ctx, reg, resp.Forest, maxCalls, workers)
			if err != nil {
				return service.Response{}, err
			}
			tu := service.EvalPushed(forest, pushed)
			data, err := tree.Marshal(tu)
			if err != nil {
				return service.Response{}, err
			}
			return service.Response{
				Forest:  []*tree.Node{tu},
				Bytes:   len(data),
				Latency: inner.Latency,
				Pushed:  true,
			}, nil
		}
	})
	for _, name := range out.Names() {
		out.Lookup(name).CanPush = true
	}
	return out
}

// materialise resolves every call embedded in the forest, recursively, by
// invoking the registry — the provider-side fixpoint. Each round's calls
// are invoked on a pool of up to workers goroutines (striped like the
// engine's invocation pool: call i runs on worker i mod width) and the
// responses spliced sequentially in document order, so the result does
// not depend on the pool width. Only invocations run concurrently; all
// document mutation stays on the calling goroutine — which is also where
// per-call spans are emitted into the request's trace (when ctx carries
// one), keeping traces deterministic at every width.
func materialise(ctx context.Context, reg *service.Registry, forest []*tree.Node, maxCalls, workers int) ([]*tree.Node, error) {
	tc, traced := telemetry.TraceFrom(ctx)
	root := tree.NewElement("materialise")
	for _, n := range forest {
		root.Append(n)
	}
	doc := tree.NewDocument(root)
	invoked := 0
	round := 0
	for {
		calls := doc.Calls()
		if len(calls) == 0 {
			break
		}
		if invoked+len(calls) > maxCalls {
			return nil, fmt.Errorf("soap: recursive push exceeded %d call budget", maxCalls)
		}
		invoked += len(calls)
		round++
		type result struct {
			resp  service.Response
			err   error
			start time.Time
			wall  time.Duration
		}
		results := make([]result, len(calls))
		runOne := func(i int) {
			start := time.Now()
			resp, err := reg.InvokeContext(ctx, calls[i].Label, tree.CloneForest(calls[i].Children), nil)
			results[i] = result{resp, err, start, time.Since(start)}
		}
		width := workers
		if width > len(calls) {
			width = len(calls)
		}
		if width <= 1 {
			for i := range calls {
				runOne(i)
			}
		} else {
			var wg sync.WaitGroup
			for w := 0; w < width; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(calls); i += width {
						runOne(i)
					}
				}(w)
			}
			wg.Wait()
		}
		for i, c := range calls {
			if results[i].err != nil {
				return nil, results[i].err
			}
			if traced && tc.Tracer != nil {
				worker := 0
				if width > 1 {
					worker = i % width
				}
				id := tc.Tracer.Emit(telemetry.Span{
					Parent:  tc.Parent,
					Name:    "push-invoke",
					Worker:  worker,
					Start:   results[i].start,
					Wall:    results[i].wall,
					Virtual: results[i].resp.Latency,
					Attrs: []telemetry.Attr{
						{Key: "service", Value: c.Label},
						{Key: "round", Value: strconv.Itoa(round)},
					},
				})
				tc.Tracer.GraftRemote(id, results[i].resp.RemoteTrace)
			}
			doc.ReplaceCall(c, results[i].resp.Forest)
		}
	}
	out := append([]*tree.Node(nil), root.Children...)
	for _, n := range out {
		n.Parent = nil
	}
	return out, nil
}
