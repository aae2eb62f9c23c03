package session

import (
	"context"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// LimitRegistry returns a registry proxying reg through a shared
// invocation pool of the given width: at most limit invocations are in
// flight across every concurrent session, whatever each engine's own
// Options.InvokeWorkers asks for. It is the serving-side counterpart of
// the engine's per-evaluation pool — one tenant's parallel batch cannot
// monopolise the providers that every other tenant shares.
//
// ServingRegistry puts it under the response cache, so cache hits are
// answered without consuming a pool slot and only true misses queue.
// The inflight gauge (axml_invocations_inflight) exposes the pool's
// instantaneous occupancy; a call whose context ends while it queues for a
// slot never shows in it. limit < 1 returns reg unchanged.
func LimitRegistry(reg *service.Registry, limit int, metrics *telemetry.Registry) *service.Registry {
	if limit < 1 {
		return reg
	}
	slots := make(chan struct{}, limit)
	inflight := metrics.Gauge(telemetry.MetricInvokeInflight)
	return reg.Proxy(func(_ *service.Service, next service.Invoker) service.Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			select {
			case slots <- struct{}{}:
			case <-ctx.Done():
				return service.Response{}, ctx.Err()
			}
			inflight.Add(1)
			resp, err := next(ctx, params, pushed)
			inflight.Add(-1)
			<-slots
			return resp, err
		}
	})
}

// ServingRegistry composes the registry a Manager serves from, outermost
// first: a response cache (instrumented on metrics, reporting outcomes to
// prof), prof's wrapper, the invocation pool of width invokeLimit. The
// order is the invariant: hits bypass the pool and are never profiled.
func ServingRegistry(reg *service.Registry, spec service.CacheSpec, prof *profile.Profiler, invokeLimit int, metrics *telemetry.Registry) *service.Registry {
	cache := service.NewCache(spec)
	cache.Instrument(metrics)
	cache.Notify(prof.Notify())
	return cache.Wrap(prof.Wrap(LimitRegistry(reg, invokeLimit, metrics)))
}
