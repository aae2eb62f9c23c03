// Command benchmark is the repository's benchmark: five workloads that
// each stress a different layer, end-to-end metrics with regression
// bounds, per-layer diagnostics from a traced run, and a comparison of
// two result sets. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md in this directory explains them.
//
//	go run ./benchmark -workload lazy-hotels -seed 1             # end-to-end metrics
//	go run ./benchmark -workload lazy-hotels -seed 1 -trace 1    # per-layer metrics + span file
//	go run ./benchmark -workload all -runs 3 -set out/bench/a.json
//	go run ./benchmark -compare out/bench/a.json out/bench/b.json
//
// The harness measures layers from outside only: by timing calls into
// each package's public functions and through shims it owns. Nothing in
// the program knows it is being measured.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads maps each name BENCHMARK.json declares to its set-up.
var workloads = []struct {
	name  string
	setup func(*env) (instance, error)
}{
	{"lazy-hotels", setupLazyHotels},
	{"open-query-persist", setupOpenQueryPersist},
	{"federated-soap", setupFederatedSoap},
	{"serve-hot", func(e *env) (instance, error) { return setupServe(e, false) }},
	{"serve-churn", func(e *env) (instance, error) { return setupServe(e, true) }},
}

func setupFor(name string) func(*env) (instance, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.setup
		}
	}
	return nil
}

// result is the line the driver reads: exactly these four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runRecord is one run as the result files keep it.
type runRecord struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Sizes    map[string]int `json:"sizes"`
	// SequenceHash fingerprints the seeded request sequence.
	SequenceHash string `json:"sequence_hash"`
	// Samples is how many timed ops the quantiles of op_ms_* stand on.
	Samples     int      `json:"samples"`
	FailedShare float64  `json:"failed_share"`
	Failures    []string `json:"failures,omitempty"`
	SelfCheck   []check  `json:"self_check,omitempty"`
	TraceFile   string   `json:"trace_file,omitempty"`
	result
}

// stamp says where and from what a result set was measured.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Scale      string `json:"scale"`
	When       string `json:"when"`
}

// setFile is a result set: what -compare reads.
type setFile struct {
	Stamp stamp       `json:"stamp"`
	Runs  []runRecord `json:"runs"`
}

func newStamp(scale string) stamp {
	return stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Go: runtime.Version(), Commit: commit(), Scale: scale, When: time.Now().UTC().Format(time.RFC3339)}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is what git says about the working directory, or "unknown" (an
// exported checkout).
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	outDir   string
}

// window measures one instance for d.
func window(inst instance, d time.Duration) *runStats {
	st := &runStats{}
	runtime.GC()
	inst.measure(time.Now().Add(d), st)
	inst.finish(st)
	return st
}

// runOne performs one run of one workload.
func runOne(c runConfig, log io.Writer) (runRecord, error) {
	setup := setupFor(c.workload)
	if setup == nil {
		return runRecord{}, fmt.Errorf("unknown workload %q", c.workload)
	}
	rec := runRecord{Workload: c.workload, Seed: c.seed, Trace: c.trace, Seconds: c.seconds, Sizes: c.sc.sizes(c.workload)}
	tmp := filepath.Join(c.outDir, fmt.Sprintf("tmp-%s-%d", c.workload, os.Getpid()))
	defer os.RemoveAll(tmp)
	newEnv := func(r *recorder) *env {
		return &env{seed: c.seed, sc: c.sc, rec: r, cnt: &shimCounts{}, dir: tmp}
	}
	dur := time.Duration(c.seconds * float64(time.Second))

	var st *runStats
	if !c.trace {
		// Set-up runs several times and reports its median: one set-up is
		// too short to repeat within its bound, a cheap one most of all.
		var setups []float64
		var inst instance
		for spent := time.Duration(0); len(setups) < c.sc.minSetups || (len(setups) < c.sc.maxSetups && spent < c.sc.setupBudget); {
			if inst != nil {
				inst.close()
			}
			t0 := time.Now()
			var err error
			if inst, err = setup(newEnv(nil)); err != nil {
				return rec, fmt.Errorf("%s: set-up: %w", c.workload, err)
			}
			spent += time.Since(t0)
			setups = append(setups, time.Since(t0).Seconds())
		}
		st = window(inst, dur)
		inst.close()
		rec.Metrics = endToEnd(st, median(setups))
	} else {
		// The first half of the time is an untraced reference, so the run
		// reports what its own tracing costs.
		inst, err := setup(newEnv(nil))
		if err != nil {
			return rec, fmt.Errorf("%s: set-up: %w", c.workload, err)
		}
		ref := window(inst, dur/2)
		inst.close()

		e := newEnv(newRecorder())
		if inst, err = setup(e); err != nil {
			return rec, fmt.Errorf("%s: traced set-up: %w", c.workload, err)
		}
		e.cnt.reset() // count the window, not the warm-up
		windowStart := int64(time.Since(e.rec.epoch))
		st = window(inst, dur/2)
		have := map[string]bool{}
		for _, s := range e.rec.all() {
			if s.Start >= windowStart {
				have[s.Name] = true
			}
		}
		p := inst.primary()
		rp := &replayer{e: e, p: p, have: have, st: st}
		e.rec.replay(func() { err = rp.run() })
		inst.close()
		if err != nil {
			return rec, fmt.Errorf("%s: %w", c.workload, err)
		}
		spans := e.rec.all()
		v := newTraceView(spans, windowStart)
		inWindow := 0
		for _, ss := range v.inOp {
			inWindow += len(ss)
		}
		rec.Metrics = perLayer(v, st, ref, &rp.out, p, e.cnt, inWindow)
		rec.SelfCheck = selfCheck(c.workload, v, st, rec.Metrics)
		rec.TraceFile = filepath.Join(c.outDir, c.workload+".trace.jsonl")
		if err := writeJSONL(rec.TraceFile, spans); err != nil {
			return rec, err
		}
		st.attempted += ref.attempted
		st.failed += ref.failed
		st.failures = append(ref.failures, st.failures...)
	}

	rec.SequenceHash, rec.Samples = st.seqHash, len(st.opNs)
	rec.Attempted, rec.Failed, rec.Failures = st.attempted, st.failed, st.failures
	rec.FailedShare = ratio(float64(st.failed), float64(st.attempted))
	rec.Correct = st.failed == 0 && st.attempted > 0 && len(st.opNs) > 0
	fmt.Fprintf(log, "%s seed %d: %d attempted, %d failed, %d timed ops\n%s", c.workload, c.seed, st.attempted, st.failed, len(st.opNs), formatMetrics(rec.Metrics))
	for _, f := range st.failures {
		fmt.Fprintf(log, "  FAILED %s\n", f)
	}
	for _, ch := range rec.SelfCheck {
		verdict := "ok"
		if !ch.OK {
			verdict = "FAILED"
			if c.sc.strict {
				rec.Correct = false
			}
		}
		fmt.Fprintf(log, "  self-check %-42s %10.4f (want %s) %s\n", ch.Name, ch.Got, ch.Want, verdict)
	}
	return rec, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload to run, or \"all\"")
		seed      = fs.Int64("seed", 1, "workload seed: permutes request order and picks point-query targets")
		seconds   = fs.Float64("seconds", 15, "how long one run measures")
		trace     = fs.Int("trace", 0, "1: traced run — per-layer metrics, span file, layer-isolation self-check")
		scaleName = fs.String("scale", "full", "full (what BENCHMARK.json measures) or tiny (smoke test)")
		outDir    = fs.String("out", filepath.Join("out", "bench"), "directory for result sets, traces and scratch files")
		runs      = fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, …")
		setPath   = fs.String("set", "", "result-set file to write (default <out>/<workload>[.trace].json)")
		compare   = fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		declPath  = fs.String("decl", "BENCHMARK.json", "the declaration -compare takes bounds from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result-set files")
			return 2
		}
		return compareFiles(*declPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	sc, ok := scales[*scaleName]
	if !ok || *seconds <= 0 || *runs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: need -workload <name|all>, -scale full|tiny, positive -seconds and -runs")
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	set := setFile{Stamp: newStamp(sc.name)}
	status := 0
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			rec, err := runOne(runConfig{workload: name, seed: *seed + int64(i), seconds: *seconds,
				trace: *trace != 0, sc: sc, outDir: *outDir}, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			set.Runs = append(set.Runs, rec)
			if !rec.Correct {
				status = 1
			}
			line, err := json.Marshal(rec.result)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	path := *setPath
	if path == "" {
		path = filepath.Join(*outDir, *workload+".json")
		if *trace != 0 {
			path = filepath.Join(*outDir, *workload+".trace.json")
		}
	}
	if err := writeJSON(path, set); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "benchmark: wrote %s\n", path)
	return status
}
