package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// metricDecl is one metric of BENCHMARK.json. Per-layer metrics have no
// bound.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declaration is BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func readSet(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the first quartile, median and third quartile of the
// values by linear interpolation (the inclusive method).
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// row is one (workload, end-to-end metric) comparison.
type row struct {
	Workload, Metric string
	A, B             float64 // medians
	SpreadA, SpreadB float64
	Bound            float64
	Verdict          string // better, same, worse, unresolved
}

// compareSets judges B (the change) against A (the parent) by the rule
// the benchmark fixes: a metric is worse when B's median is worse than
// A's by more than the bound; where either side's own runs spread wider
// than the bound the verdict is unresolved, unless every run of B reads
// better than every run of A.
func compareSets(decl *declaration, a, b *setFile) []row {
	collect := func(s *setFile) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range s.Runs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v.Value)
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	var rows []row
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			xa, xb := va[w.Name][m.Name], vb[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			// A side's spread is the distance between its quartiles as a
			// share of its median.
			q1a, medA, q3a := quartiles(xa)
			q1b, medB, q3b := quartiles(xb)
			r := row{Workload: w.Name, Metric: m.Name, A: medA, B: medB,
				SpreadA: ratio(q3a-q1a, medA), SpreadB: ratio(q3b-q1b, medB), Bound: m.Bound}
			// sign makes "larger is worse" hold for every metric
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			worseBy := sign * ratio(r.B-r.A, r.A)
			allBetter := true
			for _, y := range xb {
				for _, x := range xa {
					if sign*(y-x) >= 0 {
						allBetter = false
					}
				}
			}
			switch {
			case (r.SpreadA > m.Bound || r.SpreadB > m.Bound) && allBetter:
				r.Verdict = "better"
			case r.SpreadA > m.Bound || r.SpreadB > m.Bound:
				r.Verdict = "unresolved"
			case worseBy > m.Bound:
				r.Verdict = "worse"
			case worseBy < -m.Bound:
				r.Verdict = "better"
			default:
				r.Verdict = "same"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func compareFiles(declPath, pathA, pathB string, stdout, stderr io.Writer) int {
	decl, err := readDeclaration(declPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "A: %s  %s, %d cpus, commit %s\nB: %s  %s, %d cpus, commit %s\n",
		pathA, a.Stamp.CPU, a.Stamp.NProc, a.Stamp.Commit, pathB, b.Stamp.CPU, b.Stamp.NProc, b.Stamp.Commit)
	rows := compareSets(decl, a, b)
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tchange\tspread A\tspread B\tbound\tverdict")
	worse := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.2f%%\t%.2f%%\t%.2f%%\t%.1f%%\t%s\n",
			r.Workload, r.Metric, r.A, r.B, 100*ratio(r.B-r.A, r.A), 100*r.SpreadA, 100*r.SpreadB, 100*r.Bound, r.Verdict)
		if r.Verdict == "worse" {
			worse++
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "benchmark: the two sets share no untraced run of a declared workload")
		return 2
	}
	if worse > 0 {
		fmt.Fprintf(stderr, "benchmark: %d metric(s) worse than the bound allows\n", worse)
		return 1
	}
	return 0
}
