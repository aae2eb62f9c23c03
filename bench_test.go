// Micro-benchmarks of the substrates and of the per-strategy evaluation
// cost on the default world. Run with
//
//	go test -bench=. -benchmem
//
// The experiment tables are printed by cmd/axmlbench; what a request
// costs end to end is the benchmark's job (benchmark/, `make bench`).
package axml

import (
	"fmt"
	"testing"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/workload"
)

// BenchmarkStrategies reports per-strategy evaluation cost and the
// calls-invoked metric on the default world — the quantities behind E1,
// as custom benchmark metrics.
func BenchmarkStrategies(b *testing.B) {
	for _, opt := range []core.Options{
		{Strategy: core.NaiveFixpoint},
		{Strategy: core.LazyLPQ},
		{Strategy: core.LazyNFQ},
		{Strategy: core.LazyNFQTyped},
		{Strategy: core.LazyNFQTyped, Layering: true, Parallel: true, UseGuide: true},
	} {
		name := opt.Strategy.String()
		if opt.UseGuide {
			name += "+layer+par+guide"
		}
		b.Run(name, func(b *testing.B) {
			w := workload.Hotels(workload.DefaultSpec())
			o := opt
			if o.Strategy == core.LazyNFQTyped {
				o.Schema = w.Schema
			}
			b.ReportAllocs()
			var calls, virt int64
			for i := 0; i < b.N; i++ {
				out, err := core.Evaluate(w.Doc.Clone(), w.Query, w.Registry, o)
				if err != nil {
					b.Fatal(err)
				}
				calls += int64(out.Stats.CallsInvoked)
				virt += int64(out.Stats.VirtualTime)
			}
			b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
			b.ReportMetric(float64(virt)/float64(b.N)/1e6, "virt-ms/op")
		})
	}
}

// BenchmarkTelemetryOverhead pins the cost of the telemetry layer on one
// evaluation of the full lazy stack (typed, layered, parallel, guided,
// incremental) over the default world: "disabled" is the default
// nil-instrument path (the overhead budget is ≤2% against a build without
// the hooks, see doc/OBSERVABILITY.md), "enabled" runs every evaluation
// against one live registry and span tracer, as a server does.
func BenchmarkTelemetryOverhead(b *testing.B) {
	w := workload.Hotels(workload.DefaultSpec())
	opt := core.Options{Strategy: core.LazyNFQTyped, Schema: w.Schema,
		Layering: true, Parallel: true, UseGuide: true, Incremental: true}
	for _, enabled := range []bool{false, true} {
		name := "disabled"
		if enabled {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			o := opt
			if enabled {
				o.Metrics = telemetry.NewRegistry()
				o.Tracer = telemetry.NewTracer(telemetry.DefaultSpanCapacity)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Evaluate(w.Doc.Clone(), w.Query, w.Registry, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Substrate micro-benchmarks.

func BenchmarkPatternEval(b *testing.B) {
	for _, bulk := range []int{0, 50} {
		b.Run(fmt.Sprintf("bulk=%d", bulk), func(b *testing.B) {
			spec := workload.DefaultSpec()
			spec.MaterializedRestos = bulk
			w := workload.Hotels(spec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pattern.Eval(w.Doc, w.Query)
			}
		})
	}
}

func BenchmarkNFQGeneration(b *testing.B) {
	w := workload.Hotels(workload.DefaultSpec())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.BuildAll(w.Query, rewrite.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSatisfiabilityAnalysis(b *testing.B) {
	for _, mode := range []schema.Mode{schema.Exact, schema.Lenient} {
		name := "exact"
		if mode == schema.Lenient {
			name = "lenient"
		}
		b.Run(name, func(b *testing.B) {
			spec := workload.DefaultSpec()
			spec.TeaserKinds = 8
			w := workload.Hotels(spec)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				schema.NewAnalyzer(w.Schema, w.Query, mode)
			}
		})
	}
}

func BenchmarkFGuideBuild(b *testing.B) {
	spec := workload.DefaultSpec()
	spec.Hotels = 200
	w := workload.Hotels(spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fguide.Build(w.Doc)
	}
}

func BenchmarkFGuideCandidates(b *testing.B) {
	spec := workload.DefaultSpec()
	spec.Hotels = 200
	w := workload.Hotels(spec)
	g := fguide.Build(w.Doc)
	nfqs, err := rewrite.BuildAll(w.Query, rewrite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, nfq := range nfqs {
			g.Candidates(nfq.Lin, nfq.DescTail)
		}
	}
}

func BenchmarkDocumentCodec(b *testing.B) {
	w := workload.Hotels(workload.DefaultSpec())
	data, err := MarshalDocument(w.Doc.Root)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MarshalDocument(w.Doc.Root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseDocument(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
