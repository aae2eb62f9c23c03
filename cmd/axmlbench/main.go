// Command axmlbench regenerates the paper's evaluation tables.
//
// Usage:
//
//	axmlbench                # run every experiment at full scale
//	axmlbench -exp E3        # run one experiment
//	axmlbench -quick         # small sweeps (the test/benchmark scale)
//	axmlbench -list          # list experiments
//	axmlbench -json out.json # additionally write the tables as JSON
//
// Each experiment prints an aligned table; see DESIGN.md §4 for what each
// one reproduces and EXPERIMENTS.md for recorded runs. With -json the
// tables are also written, machine-readably, to the given file. The JSON
// tables carry a Metrics section with detect/invoke latency quantiles
// observed during the runs.
//
// Profiling (`make profile` wraps this for E1):
//
//	-cpuprofile cpu.pprof   # CPU profile of the experiment runs
//	-memprofile heap.pprof  # heap profile written at exit
//	-trace-out  spans.jsonl # every evaluation's telemetry spans as JSONL
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/activexml/axml/internal/bench"
	"github.com/activexml/axml/internal/cli"
	"github.com/activexml/axml/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// experimentIDs lists what -exp accepts, as bench.All() has it.
func experimentIDs() string {
	var ids []string
	for _, e := range bench.All() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.New("axmlbench", stderr)
	var (
		exp      = fs.String("exp", "", "run a single experiment ("+experimentIDs()+")")
		quick    = fs.Bool("quick", false, "use the small test-scale sweeps")
		list     = fs.Bool("list", false, "list experiments and exit")
		jsonPath = fs.String("json", "", "also write the result tables as JSON to this file")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		trace    = cli.AddTrace(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "axmlbench: "+format+"\n", a...)
		return 1
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}
	// A bad -exp is a flag error: exit before any output file is created.
	experiments := bench.All()
	if *exp != "" {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "axmlbench: unknown experiment %q (use -list)\n", *exp)
			return 2
		}
		experiments = []bench.Experiment{e}
	}
	scale := bench.Full()
	if *quick {
		scale = bench.Quick()
	}
	if trace.On() {
		scale.Tracer = telemetry.NewTracer(telemetry.DefaultSpanCapacity)
	}
	closeTrace, err := trace.Open(scale.Tracer)
	if err != nil {
		return fail("create trace file: %v", err)
	}
	defer closeTrace()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail("create cpu profile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("start cpu profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	var tables []bench.Table
	for i, e := range experiments {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		// Each experiment gets its own registry so the quantiles in the
		// JSON output are per-experiment, not cross-contaminated.
		table, err := e.RunInstrumented(scale)
		if err != nil {
			return fail("%s: %v", e.ID, err)
		}
		fmt.Fprint(stdout, table)
		tables = append(tables, table)
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			return fail("marshal json: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			return fail("write json: %v", err)
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fail("create heap profile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail("write heap profile: %v", err)
		}
	}
	return 0
}
