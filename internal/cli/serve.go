package cli

import (
	"fmt"
	"net/http"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/plan"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/session"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/workload"
)

// Admission is -max-active, -max-queued, -retry-after and -invoke-limit:
// the sessions a server runs and queues, and their invocations in flight.
type Admission struct {
	maxActive, maxQueued, invokeLimit *int
	retryAfter                        *time.Duration
}

func AddAdmission(fs *FlagSet) *Admission {
	fs.signed["max-queued"] = true // negative: no queue
	return &Admission{
		maxActive:   fs.Int("max-active", 0, "concurrently executing sessions (0 = GOMAXPROCS)"),
		maxQueued:   fs.Int("max-queued", 0, "admission wait-queue budget before shedding (0 = 4x max-active, negative = no queue)"),
		invokeLimit: fs.Int("invoke-limit", 16, "session invocations in flight across all tenants (0 = unbounded)"),
		retryAfter:  fs.Duration("retry-after", 500*time.Millisecond, "backoff hint on shed (429) responses"),
	}
}

// MaxActive is -max-active as given: 0 means GOMAXPROCS.
func (a *Admission) MaxActive() int { return *a.maxActive }

// Stack is -no-cache, -cache-ttl, -plan and -no-project: the response
// cache and profiler a binary invokes through, and how its engine plans
// and projects.
type Stack struct {
	noCache, noProject *bool
	cacheTTL           *time.Duration
	plan               *string
}

func AddStack(fs *FlagSet) *Stack {
	s := &Stack{
		noCache:   fs.Bool("no-cache", false, "disable service-response memoisation (axmlserver: the SOAP provider's; sessions keep their cache)"),
		cacheTTL:  fs.Duration("cache-ttl", 0, "bound how long a cached response stays servable (0 = forever)"),
		plan:      fs.String("plan", "off", "off|cost: plan each round's invocation batches from the service profile (reorders and resizes work only; results are identical)"),
		noProject: fs.Bool("no-project", false, "disable type-based document projection (schema-typed evaluation only)"),
	}
	fs.checks = append(fs.checks, func() error {
		if *s.plan != "off" && *s.plan != "cost" {
			return fmt.Errorf("unknown -plan mode %q (want off or cost)", *s.plan)
		}
		return nil
	})
	return s
}

// Cache returns the response cache, nil under -no-cache; its entries age
// on now (nil: the wall clock).
func (s *Stack) Cache(now func() time.Time) *service.Cache {
	if *s.noCache {
		return nil
	}
	return service.NewCache(service.CacheSpec{TTL: *s.cacheTTL, Now: now})
}

// Engine returns opt with -no-project applied and, under -plan=cost, a
// cost planner learning from prof (safe for concurrent use: one serves
// every session), instrumented on metrics.
func (s *Stack) Engine(opt core.Options, prof *profile.Profiler, metrics *telemetry.Registry) core.Options {
	opt.NoProject = *s.noProject
	if *s.plan == "cost" {
		planner := plan.New(prof, plan.Options{})
		planner.Instrument(metrics)
		opt.Planner = planner
	}
	return opt
}

// Server is the session server axmlserver and axmlload -self run: a
// session.Manager whose registry is session.ServingRegistry under one
// profiler, and an HTTP server of one mux with the session, profile and
// telemetry endpoints.
type Server struct {
	*http.Server
	Manager  *session.Manager
	Profiler *profile.Profiler
	Metrics  *telemetry.Registry
	Tracer   *telemetry.Tracer
	Mux      *http.ServeMux
}

// NewServer assembles the server over reg and the scenarios' documents:
// cfg carries what the binary decides itself (Repo, Isolated, Clock, the
// engine's pool), adm the admission and pool width, st (nil: defaults) the
// session cache's TTL, projection and planner. The engine is lazy and
// incremental. Documents in cfg.Repo are restored from it, the others
// added as clones, so the scenarios' documents stay pristine.
func NewServer(reg *service.Registry, scenarios []workload.Scenario, cfg session.Config, adm *Admission, st *Stack) (*Server, error) {
	s := &Server{
		Profiler: profile.New(0, nil),
		Metrics:  telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(telemetry.DefaultSpanCapacity),
		Mux:      http.NewServeMux(),
	}
	s.Profiler.ExposeProm(s.Metrics)
	s.Tracer.InstrumentDrops(s.Metrics)
	cfg.Engine.Strategy, cfg.Engine.Incremental = core.LazyNFQ, true
	var spec service.CacheSpec
	if st != nil {
		spec.TTL = *st.cacheTTL
		cfg.Engine = st.Engine(cfg.Engine, s.Profiler, s.Metrics)
	}
	cfg.Registry = session.ServingRegistry(reg, service.NewCache(spec), s.Profiler, *adm.invokeLimit, s.Metrics)
	cfg.Metrics, cfg.Tracer = s.Metrics, s.Tracer
	cfg.MaxActive, cfg.MaxQueued, cfg.RetryAfter = *adm.maxActive, *adm.maxQueued, *adm.retryAfter
	s.Manager = session.NewManager(cfg)
	for _, sc := range scenarios {
		if cfg.Repo != nil && cfg.Repo.Exists(sc.Name) {
			// Document, schema and F-guide are restored, the index warm.
			if err := s.Manager.Preload(sc.Name); err != nil {
				return nil, fmt.Errorf("restore %s: %w", sc.Name, err)
			}
		} else if err := s.Manager.AddDocument(sc.Name, sc.Doc.Clone(), sc.Schema); err != nil {
			return nil, err
		}
	}
	telemetry.Mount(s.Mux, s.Metrics, s.Tracer)
	session.Mount(s.Mux, s.Manager)
	s.Mux.Handle("/stats/services", s.Profiler.Handler())
	s.Server = &http.Server{Handler: s.Mux}
	return s, nil
}
