package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/plan"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build")

// goldenWorld is the world every record is taken over: small enough to
// read, with rating calls (so layering has several layers), push-capable
// services and one slow partner.
func goldenWorld() *workload.World {
	spec := workload.DefaultSpec()
	spec.Hotels = 10
	spec.HiddenHotels = 2
	spec.IntensionalRatingEvery = 2
	spec.PushCapable = true
	spec.ServiceLatency = map[string]time.Duration{"getNearbyMuseums": 40 * time.Millisecond}
	return workload.Hotels(spec)
}

type goldenShape struct {
	name string
	opt  core.Options
	reg  *service.Registry
}

// goldenShapes are the option shapes a record is kept for. The fault
// injector counts invocations per service, so it is made afresh here.
func goldenShapes(w *workload.World) []goldenShape {
	layered := core.Options{Strategy: core.LazyNFQ, Layering: true, Parallel: true}
	typed := core.Options{Strategy: core.LazyNFQTyped, Schema: w.Schema, Layering: true, Parallel: true}
	full := typed
	full.UseGuide, full.Incremental = true, true
	pushed := typed
	pushed.Push = true
	width := func(o core.Options, n int) core.Options { o.InvokeWorkers = n; return o }

	faulty := width(layered, 1)
	faulty.Retry = core.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond, Jitter: 0.5, Seed: 5}
	faulty.Failure = core.BestEffort
	faults := service.NewFaults(service.FaultSpec{
		Seed: 5, ErrorRate: 0.3, TimeoutRate: 0.05, PermanentRate: 0.2,
	}).Wrap(w.Registry)

	// The planner's profile is fed by hand, on a clock that stands still, so
	// its estimates — and the plan spans that show them — are the same on
	// every run: museums slow and deaf to pushes, restaurants fast.
	prof := profile.New(0, func() time.Time { return time.Unix(0, 0) })
	for i := 0; i < 5; i++ {
		prof.Observe("getNearbyMuseums", 40*time.Millisecond, 100, 10, true, false, "")
		prof.Observe("getNearbyRestos", 10*time.Millisecond, 100, 10, false, false, "")
	}
	planned := width(layered, 4)
	planned.Push = true
	planned.Planner = plan.New(prof, plan.Options{})

	return []goldenShape{
		{"naive", core.Options{Strategy: core.NaiveFixpoint}, w.Registry},
		{"naive-w4", core.Options{Strategy: core.NaiveFixpoint, InvokeWorkers: 4}, w.Registry},
		{"eager", core.Options{Strategy: core.TopDownEager}, w.Registry},
		{"lazy-lpq", core.Options{Strategy: core.LazyLPQ}, w.Registry},
		{"lazy-nfq-flat", core.Options{Strategy: core.LazyNFQ}, w.Registry},
		{"layered-par-w0", width(layered, 0), w.Registry},
		{"layered-par-w1", width(layered, 1), w.Registry},
		{"layered-par-w4", width(layered, 4), w.Registry},
		{"speculative", core.Options{Strategy: core.LazyNFQ, Layering: true, Speculative: true}, w.Registry},
		{"typed-full", full, w.Registry},
		{"typed-push", pushed, w.Registry},
		{"best-effort-faults", faulty, faults},
		{"cost-planner", planned, w.Registry},
	}
}

// TestGoldenRecords compares, per option shape, what an evaluation did with
// the record under testdata/golden: the calls it spliced (node ID and
// document path, in splice order), its Stats without the two wall-clock
// fields, and its span tree — names, shards, workers, virtual durations
// and attributes, without wall-clock fields. The differentials compare
// configurations within one build; the records compare a build with the one
// that wrote them. After a deliberate change of behaviour, rewrite them with
//
//	go test ./internal/core -run TestGoldenRecords -update
//
// and review the diff.
func TestGoldenRecords(t *testing.T) {
	w := goldenWorld()
	for _, s := range goldenShapes(w) {
		got := goldenRecord(t, w, s)
		path := filepath.Join("testdata", "golden", s.name+".txt")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: the run differs from the record from line %d on", path, firstDiffLine(got, string(want)))
		}
	}
}

// goldenRecord runs one shape and renders what it did.
func goldenRecord(t *testing.T, w *workload.World, s goldenShape) string {
	t.Helper()
	doc := w.Doc.Clone()
	before := doc.Version()
	const ring = 1 << 16
	tr := telemetry.NewTracer(ring)
	opt := s.opt
	opt.Tracer = tr
	out, err := core.Evaluate(doc, w.Query, s.reg, opt)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	if len(tr.Spans(0)) == ring {
		t.Fatalf("%s: the span ring is full", s.name)
	}
	splices, ok := doc.SplicesSince(before)
	if !ok {
		t.Fatalf("%s: the document no longer keeps the run's splices", s.name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "complete %v\nresults %d\ncalls\n", out.Complete, len(out.Results))
	for _, sp := range splices {
		fmt.Fprintf(&b, "  #%d %s/%s\n", sp.Removed.ID, sp.Parent.PathString(), sp.Removed.Label)
	}
	b.WriteString("failures\n")
	for _, f := range out.Failures {
		fmt.Fprintf(&b, "  %s %s attempts=%d err=%q\n", f.Service, f.Path, f.Attempts, f.Err)
	}
	// Zero fields are left out, so a counter that is never set can be
	// deleted without touching the records.
	b.WriteString("stats\n")
	st := reflect.ValueOf(out.Stats)
	for i := 0; i < st.NumField(); i++ {
		name := st.Type().Field(i).Name
		if name == "DetectTime" || name == "AnalysisTime" || st.Field(i).IsZero() {
			continue
		}
		fmt.Fprintf(&b, "  %s %v\n", name, st.Field(i).Interface())
	}
	b.WriteString("spans\n")
	var walk func(n *telemetry.SpanNode, depth int)
	walk = func(n *telemetry.SpanNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth) + n.Name)
		if n.Shard != 0 {
			fmt.Fprintf(&b, " shard=%d", n.Shard)
		}
		if n.Worker != 0 {
			fmt.Fprintf(&b, " worker=%d", n.Worker)
		}
		if n.Virtual != 0 {
			fmt.Fprintf(&b, " virtual=%v", n.Virtual)
		}
		for _, a := range n.Attrs {
			fmt.Fprintf(&b, " %s=%q", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, root := range telemetry.BuildTree(tr.Spans(0)) {
		walk(root, 1)
	}
	return b.String()
}

// firstDiffLine is the 1-based number of the first line where a and b differ.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return i + 1
		}
	}
	return len(al) + 1
}
