// Package bench implements the experiment harness that regenerates the
// evaluation of "Lazy Query Evaluation for Active XML" (SIGMOD 2004).
// Each experiment (All lists them; see DESIGN.md for the index and
// EXPERIMENTS.md for recorded outcomes) sweeps one dimension and prints
// the series the paper's figures report: who wins, by what factor, and
// where behaviour crosses over. What a request costs end to end and layer
// by layer is not measured here: that is the repository's benchmark
// (benchmark/, BENCHMARK.json), whose record is BENCH_WORKLOADS.json.
//
// cmd/axmlbench prints the full tables.
package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/activexml/axml/internal/telemetry"
)

// Table is one experiment's output: a titled grid of rows.
type Table struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Title describes what the experiment shows.
	Title string
	// Columns are the header names.
	Columns []string
	// Rows hold the formatted series.
	Rows [][]string
	// Notes records correctness checks and observations.
	Notes []string
	// Metrics holds latency-quantile summaries per histogram name when
	// the experiment ran instrumented (RunInstrumented); empty otherwise.
	Metrics map[string]HistogramSummary `json:",omitempty"`
}

// String renders the table as aligned text.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Scale sizes an experiment run. Quick keeps unit-test and benchmark
// iterations fast; Full is what cmd/axmlbench prints.
type Scale struct {
	// E1Sizes are the document sizes (#hotels) of the strategy sweep.
	E1Sizes []int
	// E2Latencies are the per-call latencies of the latency sweep.
	E2Latencies []time.Duration
	// E3Selectivities are the matching fractions of the push sweep
	// (five-star restaurants per hundred returned).
	E3Selectivities []int
	// E4Bulks are the per-hotel materialised-restaurant counts of the
	// F-guide sweep.
	E4Bulks []int
	// E5Depths are the call-chain nesting depths of the layering sweep.
	E5Depths []int
	// E6Kinds are the teaser service-kind counts of the typing sweep.
	E6Kinds []int
	// E7Hotels are the document sizes of the join-relaxation sweep.
	E7Hotels []int
	// E8Sizes are the document sizes of the HTTP end-to-end sweep.
	E8Sizes []int
	// E9Rates are the injected fault rates of the fault-tolerance sweep.
	E9Rates []float64
	// Metrics, when set, is threaded through every evaluation an
	// experiment runs, accumulating detect/invoke latency histograms
	// (cmd/axmlbench -json reports their quantiles). Nil disables.
	Metrics *telemetry.Registry
	// Tracer, when set, receives every evaluation's span tree
	// (cmd/axmlbench -trace-out streams it as JSONL). Nil disables.
	Tracer *telemetry.Tracer
}

// Quick is the scale used by tests and testing.B benchmarks.
func Quick() Scale {
	return Scale{
		E1Sizes:         []int{10, 40},
		E2Latencies:     []time.Duration{time.Millisecond, 100 * time.Millisecond},
		E3Selectivities: []int{2, 50},
		E4Bulks:         []int{0, 20},
		E5Depths:        []int{0, 3},
		E6Kinds:         []int{2, 8},
		E7Hotels:        []int{20},
		E8Sizes:         []int{8},
		E9Rates:         []float64{0, 0.2},
	}
}

// Full is the scale cmd/axmlbench prints; it matches the orders of
// magnitude the paper sweeps.
func Full() Scale {
	return Scale{
		E1Sizes:         []int{10, 50, 100, 200, 500, 1000},
		E2Latencies:     []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second},
		E3Selectivities: []int{1, 2, 5, 10, 25, 50, 100},
		E4Bulks:         []int{0, 10, 50, 100, 250},
		E5Depths:        []int{0, 1, 2, 4, 8},
		E6Kinds:         []int{2, 4, 8, 16, 32},
		E7Hotels:        []int{20, 100, 400},
		E8Sizes:         []int{5, 15, 50},
		E9Rates:         []float64{0, 0.1, 0.2, 0.4},
	}
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) (Table, error)
}

// All returns the experiments in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "lazy vs naive: calls and time across document sizes", E1},
		{"E2", "the lazy gap grows with service latency", E2},
		{"E3", "query pushing: transfer and time vs selectivity", E3},
		{"E4", "F-guide accelerates relevance detection", E4},
		{"E5", "layering and parallelism cut NFQ evaluations and rounds", E5},
		{"E6", "exact vs lenient type analysis", E6},
		{"E7", "relaxed NFQs trade calls for detection time", E7},
		{"E8", "end-to-end over real HTTP services", E8},
		{"E9", "lazy vs naive under injected faults with retries", E9},
	}
}

// RunInstrumented runs the experiment with a metrics registry threaded
// through every evaluation (the scale's own, or a fresh one) and
// attaches the observed latency summaries to the returned table.
func (e Experiment) RunInstrumented(s Scale) (Table, error) {
	if s.Metrics == nil {
		s.Metrics = telemetry.NewRegistry()
	}
	t, err := e.Run(s)
	t.Metrics = Summarize(s.Metrics)
	return t, err
}

// HistogramSummary reports one latency histogram's shape for JSON
// export: observation count and log-scale quantile estimates.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// Summarize extracts a quantile summary for every histogram the registry
// observed (empty histograms are skipped).
func Summarize(reg *telemetry.Registry) map[string]HistogramSummary {
	snap := reg.Snapshot()
	out := map[string]HistogramSummary{}
	toMs := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	for name, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		out[name] = HistogramSummary{
			Count: h.Count,
			P50ms: toMs(h.Quantile(0.50)),
			P95ms: toMs(h.Quantile(0.95)),
			P99ms: toMs(h.Quantile(0.99)),
			MaxMs: toMs(h.Max),
		}
	}
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Formatting helpers shared by the experiments.

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func ratio(num, den time.Duration) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(num)/float64(den))
}

func kb(bytes int) string { return fmt.Sprintf("%.1fKB", float64(bytes)/1024) }
