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

// ServingRegistry composes reg under, outermost first, a response cache
// (instrumented on metrics, reporting outcomes to prof), prof's wrapper
// and the invocation pool of width limit; a nil cache or profiler and a
// limit below 1 are left out. Every binary's registry stack is this
// function, and the order is its invariant: cache hits bypass the pool
// and are never profiled.
func ServingRegistry(reg *service.Registry, cache *service.Cache, prof *profile.Profiler, limit int, metrics *telemetry.Registry) *service.Registry {
	reg = prof.Wrap(LimitRegistry(reg, limit, metrics))
	if cache == nil {
		return reg
	}
	cache.Instrument(metrics)
	cache.Notify(prof.Notify())
	return cache.Wrap(reg)
}
