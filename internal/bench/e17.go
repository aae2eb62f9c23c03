package bench

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/plan"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/workload"
)

// E17 measures cost-based invocation planning against the static
// striped schedule on a heterogeneous-latency federation: loopback HTTP
// providers that really sleep, one slow partner among fast ones.
//
// The world is built so the static assignment aliases pathologically:
// every hotel contributes [getNearbyRestos, getTeaser<i mod 4>] to one
// wide batch, so the slow kind-0 teasers (every fourth hotel) all land
// at member indices ≡ 1 (mod 8) — the same worker stripe at widths 4
// and 8. Static scheduling serialises the slow calls on that worker;
// the planner, fed a profiler warmed by one untimed pass, ranks them
// slowest-first and spreads them across the pool. Result sets must stay
// bit-identical: planning only reorders and resizes work.
func E17(s Scale) (Table, error) {
	t := Table{
		ID:      "E17",
		Title:   "cost-planned vs static invocation scheduling (one slow service over HTTP, server sleeps per call)",
		Columns: []string{"hotels", "invoke-workers", "plan", "http-calls", "wall-time", "speedup", "results"},
	}
	resultSig := func(out *core.Outcome) string {
		keys := make([]string, len(out.Results))
		for i, r := range out.Results {
			keys[i] = r.Key()
		}
		sort.Strings(keys)
		return strings.Join(keys, "|")
	}
	for _, hotels := range s.E17Sizes {
		spec := workload.DefaultSpec()
		spec.Hotels = hotels
		spec.HiddenHotels = 0
		spec.TargetEvery = 1
		spec.FiveStarEvery = 1
		spec.IntensionalRatingEvery = 0
		spec.RestosPerCall = 2
		spec.FiveStarRestos = 1
		spec.MuseumsPerCall = 0
		spec.ExtrasPerCall = 0
		spec.TeaserKinds = 4
		spec.Latency = 5 * time.Millisecond
		spec.ServiceLatency = map[string]time.Duration{"getTeaser0": 80 * time.Millisecond}
		w := workload.Hotels(spec)
		srv := httptest.NewServer(soap.NewServer(w.Registry, true))
		client := &soap.Client{BaseURL: srv.URL}
		reg, err := client.RegistryFor()
		if err != nil {
			srv.Close()
			return t, err
		}
		newOpt := func(width int) core.Options {
			opt := core.Options{Strategy: core.LazyNFQ, Parallel: true, InvokeWorkers: width}
			opt.Clock = service.NewWallClock(false)
			return opt
		}
		widest := 1
		for _, width := range s.E17Widths {
			if width > widest {
				widest = width
			}
		}
		// Warm pass: the planner only knows what the profiler observed,
		// so one untimed evaluation through a profiling wrapper teaches
		// it which partner is slow. MinSamples 2 lets the smallest world
		// (two kind-0 teasers) clear the trust threshold in one pass.
		prof := profile.New(0, nil)
		if _, err := core.Evaluate(w.Doc.Clone(), w.StarQuery, prof.Wrap(reg), newOpt(widest)); err != nil {
			srv.Close()
			return t, err
		}
		planner := plan.New(prof, plan.Options{MinSamples: 2})
		for _, width := range s.E17Widths {
			var staticWall time.Duration
			var staticSig string
			for _, planned := range []bool{false, true} {
				opt := newOpt(width)
				if planned {
					opt.Planner = planner
				}
				opt.Metrics, opt.Tracer = s.Metrics, s.Tracer
				start := time.Now()
				out, err := core.Evaluate(w.Doc.Clone(), w.StarQuery, reg, opt)
				wall := time.Since(start)
				if err != nil {
					srv.Close()
					return t, err
				}
				mode := "static"
				if planned {
					mode = "cost"
				}
				sig := resultSig(out)
				if !planned {
					staticWall, staticSig = wall, sig
				} else if sig != staticSig {
					srv.Close()
					return t, fmt.Errorf("E17: planner changed the result set at width %d", width)
				}
				t.Rows = append(t.Rows, []string{
					itoa(hotels), itoa(width), mode,
					itoa(out.Stats.CallsInvoked), ms(wall),
					ratio(staticWall, wall), itoa(len(out.Results)),
				})
			}
		}
		srv.Close()
	}
	t.Notes = append(t.Notes,
		"speedup is planned wall time vs static at the same pool width; result sets are bit-identical",
		"static striping serialises the slow service's calls on one worker; LPT planning spreads them")
	return t, nil
}
