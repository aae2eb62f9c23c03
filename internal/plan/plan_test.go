package plan

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/telemetry"
)

// feed records n fault-free observations of svc at a fixed latency.
func feed(p *profile.Profiler, svc string, lat time.Duration, n int) {
	for i := 0; i < n; i++ {
		p.Observe(svc, lat, 100, 10, false, false, "")
	}
}

func batch(services ...string) []core.PlanCall {
	out := make([]core.PlanCall, len(services))
	for i, s := range services {
		out[i] = core.PlanCall{Index: i, Service: s}
	}
	return out
}

// checkPermutation fails unless the plan's queues hold every member
// index exactly once within the width bound.
func checkPermutation(t *testing.T, bp core.BatchPlan, n, width int) {
	t.Helper()
	if bp.Width < 1 || bp.Width > width || len(bp.Queues) != bp.Width {
		t.Fatalf("bad width %d (offered %d, %d queues)", bp.Width, width, len(bp.Queues))
	}
	seen := make([]bool, n)
	for _, q := range bp.Queues {
		for _, i := range q {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("queues %v are not a permutation of %d members", bp.Queues, n)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("member %d missing from queues %v", i, bp.Queues)
		}
	}
}

// A cold planner has only the uniform prior to go on, so its schedule
// must collapse to the engine's static striped assignment — same order,
// same width, member i on worker i mod W.
func TestColdStartIsStriped(t *testing.T) {
	p := New(profile.New(0, nil), Options{})
	calls := batch("a", "b", "c", "d", "e", "f", "g", "h")
	bp := p.PlanBatch(calls, 4)
	checkPermutation(t, bp, len(calls), 4)
	want := [][]int{{0, 4}, {1, 5}, {2, 6}, {3, 7}}
	if bp.Width != 4 || !reflect.DeepEqual(bp.Queues, want) {
		t.Fatalf("cold plan deviated from striping: width %d queues %v", bp.Width, bp.Queues)
	}
	if st := p.Stats(); st.Reorders != 0 || st.WidthTrims != 0 {
		t.Fatalf("cold plan counted decisions: %+v", st)
	}
	// A nil profiler is equally cold.
	bp = New(nil, Options{}).PlanBatch(calls, 4)
	if !reflect.DeepEqual(bp.Queues, want) {
		t.Fatalf("nil-profiler plan deviated from striping: %v", bp.Queues)
	}
}

// A batch of one service has nothing to rank: equal costs must stripe,
// including the degenerate single-member batch.
func TestSingleServiceDegenerate(t *testing.T) {
	prof := profile.New(0, nil)
	feed(prof, "only", 5*time.Millisecond, 10)
	p := New(prof, Options{})
	bp := p.PlanBatch(batch("only", "only", "only", "only", "only"), 2)
	checkPermutation(t, bp, 5, 2)
	if want := [][]int{{0, 2, 4}, {1, 3}}; !reflect.DeepEqual(bp.Queues, want) {
		t.Fatalf("single-service plan %v, want striped %v", bp.Queues, want)
	}
	bp = p.PlanBatch(batch("only"), 1)
	checkPermutation(t, bp, 1, 1)
}

// Profiled costs rank the slowest call first so it overlaps the rest of
// the batch instead of straggling behind it.
func TestSlowestFirst(t *testing.T) {
	prof := profile.New(0, nil)
	feed(prof, "fast", time.Millisecond, 10)
	feed(prof, "slow", 100*time.Millisecond, 10)
	p := New(prof, Options{})
	bp := p.PlanBatch(batch("fast", "fast", "slow"), 2)
	checkPermutation(t, bp, 3, 2)
	if bp.Queues[0][0] != 2 {
		t.Fatalf("slow member not scheduled first: %v", bp.Queues)
	}
	if st := p.Stats(); st.Reorders != 1 {
		t.Fatalf("reorder not counted: %+v", st)
	}
}

// When one call dominates the batch, extra workers cannot improve the
// makespan; the planner trims the pool to the smallest width that
// achieves it.
func TestWidthTrim(t *testing.T) {
	prof := profile.New(0, nil)
	feed(prof, "slow", 100*time.Millisecond, 10)
	p := New(prof, Options{})
	bp := p.PlanBatch(batch("slow", "cold1", "cold2", "cold3"), 4)
	checkPermutation(t, bp, 4, 4)
	if bp.Width >= 4 {
		t.Fatalf("width not trimmed: %d (queues %v)", bp.Width, bp.Queues)
	}
	if st := p.Stats(); st.WidthTrims != 1 {
		t.Fatalf("trim not counted: %+v", st)
	}
}

// makespan is the predicted finish time of queues under the given
// per-member costs: the busiest worker's total.
func makespan(queues [][]int, cost func(i int) time.Duration) time.Duration {
	var worst time.Duration
	for _, q := range queues {
		var load time.Duration
		for _, i := range q {
			load += cost(i)
		}
		if load > worst {
			worst = load
		}
	}
	return worst
}

// TestPlannedBeatsStripedOnAliasedBatch is the planner's performance
// claim on the batch static striping handles worst: 16 hotels each
// contribute [getNearbyRestos, getTeaser<h mod 4>], so the slow
// getTeaser0 calls sit at members 1, 9, 17, 25 — one worker's stripe at
// widths 4 and 8. Striping serialises them (340 ms at width 4, 320 ms at
// width 8); the planner spreads them one per worker (about 115 and
// 80 ms). Its queues must reach at most half the striped makespan.
func TestPlannedBeatsStripedOnAliasedBatch(t *testing.T) {
	latency := func(svc string) time.Duration {
		if svc == "getTeaser0" {
			return 80 * time.Millisecond
		}
		return 5 * time.Millisecond
	}
	var services []string
	for h := 0; h < 16; h++ {
		services = append(services, "getNearbyRestos", fmt.Sprintf("getTeaser%d", h%4))
	}
	// One warm pass over the batch: every service clears MinSamples.
	prof := profile.New(0, nil)
	for _, svc := range services {
		feed(prof, svc, latency(svc), 1)
	}
	cost := func(i int) time.Duration { return latency(services[i]) }
	calls := batch(services...)
	for _, width := range []int{4, 8} {
		bp := New(prof, Options{}).PlanBatch(calls, width)
		checkPermutation(t, bp, len(calls), width)
		striped := make([][]int, width)
		for i := range calls {
			striped[i%width] = append(striped[i%width], i)
		}
		planned, static := makespan(bp.Queues, cost), makespan(striped, cost)
		t.Logf("width %d: planned %v on %d workers, striped %v", width, planned, bp.Width, static)
		if 2*planned > static {
			t.Fatalf("width %d: planned makespan %v, striped %v — want at most half (queues %v)",
				width, planned, static, bp.Queues)
		}
	}
}

// The same inputs must always yield the same plan.
func TestPlanDeterminism(t *testing.T) {
	prof := profile.New(0, nil)
	feed(prof, "a", 3*time.Millisecond, 5)
	feed(prof, "b", 7*time.Millisecond, 5)
	p := New(prof, Options{})
	calls := batch("a", "b", "a", "b", "a", "b")
	first := p.PlanBatch(calls, 3)
	for i := 0; i < 5; i++ {
		again := p.PlanBatch(calls, 3)
		if again.Width != first.Width || !reflect.DeepEqual(again.Queues, first.Queues) {
			t.Fatalf("plan %d differs: %v vs %v", i, again.Queues, first.Queues)
		}
	}
}

// AllowPush vetoes only services with MinSamples fruitless push
// attempts and not one success; everything else — cold services,
// under-sampled ones, anything that ever answered a push — keeps
// pushing.
func TestAllowPush(t *testing.T) {
	prof := profile.New(0, nil)
	// deaf: 3 successful calls, subquery shipped every time, never
	// answered with bindings.
	for i := 0; i < 3; i++ {
		prof.Observe("deaf", time.Millisecond, 10, 5, true, false, "")
	}
	// willing: same attempts, one answered.
	prof.Observe("willing", time.Millisecond, 10, 5, true, true, "")
	prof.Observe("willing", time.Millisecond, 10, 5, true, false, "")
	prof.Observe("willing", time.Millisecond, 10, 5, true, false, "")
	// sparse: too few attempts to judge.
	prof.Observe("sparse", time.Millisecond, 10, 5, true, false, "")
	p := New(prof, Options{})
	if p.AllowPush("deaf") {
		t.Fatal("push-deaf service not vetoed")
	}
	for _, svc := range []string{"willing", "sparse", "cold"} {
		if !p.AllowPush(svc) {
			t.Fatalf("%s wrongly vetoed", svc)
		}
	}
	if st := p.Stats(); st.PushVetoes != 1 {
		t.Fatalf("veto count %d, want 1", st.PushVetoes)
	}
}

// Instrument wires the axml_plan_* families; decisions must show up on
// a scrape, and a nil registry must be a no-op.
func TestInstrument(t *testing.T) {
	New(profile.New(0, nil), Options{}).Instrument(nil) // must not panic
	reg := telemetry.NewRegistry()
	p := New(profile.New(0, nil), Options{})
	p.Instrument(reg)
	p.PlanBatch(batch("a", "b"), 2)
	if got := reg.Counter(telemetry.MetricPlanBatches).Value(); got != 1 {
		t.Fatalf("axml_plan_batches_total = %d, want 1", got)
	}
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), telemetry.MetricPlanBatches) {
		t.Fatalf("scrape missing %s:\n%s", telemetry.MetricPlanBatches, sb.String())
	}
}

// The plan rationale must name each service's cost inputs — that is
// what -explain renders.
func TestRationaleAttrs(t *testing.T) {
	prof := profile.New(0, nil)
	feed(prof, "slow", 100*time.Millisecond, 10)
	p := New(prof, Options{})
	bp := p.PlanBatch(batch("slow", "cold"), 2)
	byKey := map[string]string{}
	for _, a := range bp.Attrs {
		byKey[a.Key] = a.Value
	}
	if v := byKey["svc:slow"]; !strings.Contains(v, "src=profile") {
		t.Fatalf("slow rationale %q lacks profile source", v)
	}
	if v := byKey["svc:cold"]; !strings.Contains(v, "src=prior") {
		t.Fatalf("cold rationale %q lacks prior source", v)
	}
	if byKey["makespan"] == "" || byKey["reordered"] == "" {
		t.Fatalf("schedule summary missing from attrs: %v", bp.Attrs)
	}
}
