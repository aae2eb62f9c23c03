package main

import (
	"io"
	"regexp"
	"testing"
)

// tinyRun performs one tiny-scale run; failures of the run itself fail
// the test.
func tinyRun(t *testing.T, workload string, seed int64, trace bool) runRecord {
	t.Helper()
	seconds := 0.2
	if trace {
		seconds = 0.4 // split between the untraced reference and the traced half
	}
	rec, err := runOne(runConfig{workload: workload, seed: seed, seconds: seconds, trace: trace,
		sc: scales["tiny"], outDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
		t.Fatalf("%s: correct=%t attempted=%d failed=%d: %v", workload, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
	}
	return rec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Every workload emits exactly the metrics BENCHMARK.json declares, with
// the declared units: end-to-end ones untraced, per-layer ones traced.
func TestEmitsDeclaredMetrics(t *testing.T) {
	decl, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(decl.Workloads), len(workloads))
	}
	check := func(t *testing.T, got map[string]value, want []metricDecl) {
		t.Helper()
		for _, d := range want {
			v, ok := got[d.Name]
			switch {
			case !nameRE.MatchString(d.Name):
				t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
			case !ok:
				t.Errorf("declared metric %s not emitted", d.Name)
			case v.Unit != d.Unit || v.Unit == "":
				t.Errorf("%s: unit %q, declared %q", d.Name, v.Unit, d.Unit)
			}
		}
		if len(got) != len(want) {
			declared := map[string]bool{}
			for _, d := range want {
				declared[d.Name] = true
			}
			for name := range got {
				if !declared[name] {
					t.Errorf("emitted metric %s is not declared", name)
				}
			}
		}
	}
	for _, w := range decl.Workloads {
		w := w
		if setupFor(w.Name) == nil {
			t.Errorf("declared workload %s unknown to the harness", w.Name)
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			check(t, tinyRun(t, w.Name, 1, false).Metrics, decl.EndToEnd)
			traced := tinyRun(t, w.Name, 1, true)
			check(t, traced.Metrics, decl.PerLayer)
			// The layer-isolation thresholds are for the full scale; the
			// trace's shape must hold at any scale.
			if c := traced.SelfCheck[0]; !c.OK {
				t.Errorf("%s: %s = %v, want %s", w.Name, c.Name, c.Got, c.Want)
			}
		})
	}
}

// Self times partition an op whether children run one after another or in
// parallel, and a child that outlives its parent is reported.
func TestSelfTimesPartitionTheOp(t *testing.T) {
	tree := func(spans ...span) opTree { return opTrees(spans)[0] }
	op := span{ID: 1, Op: 1, Name: "op", Start: 0, End: 1000}
	eval := span{ID: 2, Parent: 1, Op: 1, Name: "core.evaluate", Start: 100, End: 900}

	sequential := tree(op, eval,
		span{ID: 3, Parent: 2, Op: 1, Start: 200, End: 300},
		span{ID: 4, Parent: 2, Op: 1, Start: 300, End: 450})
	if got := sequential.self(eval); got != 800-250 {
		t.Errorf("sequential children: self = %d, want 550", got)
	}
	if e := sequential.partitionError(); e != 0 {
		t.Errorf("sequential children: partition error %v", e)
	}

	parallel := tree(op, eval,
		span{ID: 3, Parent: 2, Op: 1, Start: 200, End: 600},
		span{ID: 4, Parent: 2, Op: 1, Start: 300, End: 700})
	if got := parallel.self(eval); got != 800-500 {
		t.Errorf("parallel children: self = %d, want 300 (children cover 200..700 once)", got)
	}
	if e := parallel.partitionError(); e != 0 {
		t.Errorf("parallel children: partition error %v", e)
	}

	escaping := tree(op, eval, span{ID: 3, Parent: 2, Op: 1, Start: 800, End: 1200})
	if e := escaping.partitionError(); e <= 0.01 {
		t.Errorf("a child that outlives its parent must break the partition, error %v", e)
	}
}

// The seed decides the request sequence and nothing else: the same seed
// repeats the sequence and the calls invoked, another seed asks for other
// things. lazy-hotels and federated-soap repeat one unseeded op, so only
// the first half applies to them.
func TestSeedDecidesTheSequence(t *testing.T) {
	for _, w := range workloads {
		a, b, c := tinyRun(t, w.name, 7, false), tinyRun(t, w.name, 7, false), tinyRun(t, w.name, 8, false)
		if a.SequenceHash != b.SequenceHash {
			t.Errorf("%s: same seed, different request sequences", w.name)
		}
		if x, y := a.Metrics["calls_invoked"].Value, b.Metrics["calls_invoked"].Value; x != y || x == 0 {
			t.Errorf("%s: calls_invoked %v then %v on the same seed", w.name, x, y)
		}
		seeded := w.name != "lazy-hotels" && w.name != "federated-soap"
		if seeded && a.SequenceHash == c.SequenceHash {
			t.Errorf("%s: seeds 7 and 8 produced the same request sequence", w.name)
		}
	}
}

// -compare flags a regression beyond the bound, passes one inside it, and
// refuses to call a metric unchanged when a side's own runs disagree by
// more than the bound.
func TestCompareVerdicts(t *testing.T) {
	decl := &declaration{
		EndToEnd: []metricDecl{
			{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "throughput_ops", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	decl.Workloads = append(decl.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(scale float64, lat ...float64) *setFile {
		s := &setFile{}
		for _, l := range lat {
			s.Runs = append(s.Runs, runRecord{Workload: "w", result: result{Metrics: map[string]value{
				"op_ms_p50":      {l * scale, "ms"},
				"throughput_ops": {1000 / (l * scale), "1/s"},
			}}})
		}
		return s
	}
	verdicts := func(a, b *setFile) map[string]string {
		out := map[string]string{}
		for _, r := range compareSets(decl, a, b) {
			out[r.Metric] = r.Verdict
		}
		return out
	}
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	base := set(1, steady...)
	for _, c := range []struct {
		name                string
		b                   *setFile
		latency, throughput string
	}{
		{"15% slower", set(1.15, steady...), "worse", "worse"},
		{"3% slower", set(1.03, steady...), "same", "same"},
		{"15% faster", set(0.85, steady...), "better", "better"},
		{"noisy, overlapping", set(1, 8, 12, 10, 9, 13), "unresolved", "unresolved"},
		{"noisy, every run faster", set(0.5, 8, 12, 10, 9, 13), "better", "better"},
	} {
		got := verdicts(base, c.b)
		if got["op_ms_p50"] != c.latency || got["throughput_ops"] != c.throughput {
			t.Errorf("%s: got %v, want op_ms_p50 %s, throughput_ops %s", c.name, got, c.latency, c.throughput)
		}
	}
}
