package profile

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/store"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// FileName is the profiles file written into a server's data directory.
const FileName = "profiles.json"

// Wrap returns a registry proxying reg through the profiler: every
// invocation is observed (effective latency, payload bytes, result
// nodes, push outcome, fault class) and then delegated. Place the
// wrapper *under* the response cache — cache.Wrap(p.Wrap(base)) — so
// the profile reflects real provider behaviour, not cache replays; wire
// the cache's own outcomes in with Notify.
//
// Effective latency is the larger of the wall-clock spent in the
// provider and the response's declared virtual latency, so profiles are
// meaningful in both the simulated world (wall ≈ 0, virtual carries the
// model) and over real transports (virtual often 0, wall carries the
// truth).
func (p *Profiler) Wrap(reg *service.Registry) *service.Registry {
	if p == nil {
		return reg
	}
	return reg.Proxy(func(inner *service.Service, next service.Invoker) service.Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			start := time.Now()
			resp, err := next(ctx, params, pushed)
			lat := time.Since(start)
			if resp.Latency > lat {
				lat = resp.Latency
			}
			class := ""
			if err != nil {
				class = service.ClassOf(err).String()
			}
			p.Observe(inner.Name, lat, resp.Bytes, countNodes(resp.Forest),
				err == nil && pushed != nil, err == nil && resp.Pushed, class)
			return resp, err
		}
	})
}

// Notify returns the service.Cache.Notify hook feeding cache outcomes
// into the profiler. The hook runs under the cache lock, so it only
// bumps counters.
func (p *Profiler) Notify() func(string, service.CacheEvent) {
	return func(name string, ev service.CacheEvent) { p.ObserveCache(name, ev) }
}

// countNodes is the size of a response forest in nodes — the numerator
// of the selectivity estimate.
func countNodes(forest []*tree.Node) int {
	n := 0
	for _, t := range forest {
		n += t.Size()
	}
	return n
}

// SaveFile persists the profiler's cumulative state to dir/FileName
// durably (checksummed payload, atomic rename, fsync — see
// store.WriteFileAtomic). Call it on drain.
func (p *Profiler) SaveFile(dir string) error {
	data, err := p.Marshal()
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(dir, FileName, data, true)
}

// LoadFile merges dir/FileName into the profiler. A missing file is a
// normal cold start (nil error); a corrupt or checksum-mismatched file
// is logged and discarded — the profiler restarts cold rather than
// seeding estimates from bad data.
func (p *Profiler) LoadFile(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := p.Unmarshal(data); err != nil {
		log.Printf("profile: discarding %s: %v", filepath.Join(dir, FileName), err)
		return nil
	}
	return nil
}

// Handler serves the profile snapshot as JSON — the GET /stats/services
// endpoint.
func (p *Profiler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeSnapshotJSON(w, p.Snapshot())
	})
}

func writeSnapshotJSON(w io.Writer, snap []ServiceProfile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Services []ServiceProfile `json:"services"`
	}{Services: snap})
}

// ExposeProm appends the profiler's labeled axml_service_* series to
// the registry's /metrics exposition. Call once at wiring time; the
// writer snapshots on every scrape.
func (p *Profiler) ExposeProm(reg *telemetry.Registry) {
	if p == nil || reg == nil {
		return
	}
	reg.AddPromWriter(p.writeProm)
}
