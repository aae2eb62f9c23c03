// Command axmlload hammers an axmlserver session endpoint with the
// mixed workload suite and records the serving profile. It replays
// thousands of concurrent travel, nightlife, newsfeed and distributed
// queries over POST /query, verifies every answer against a locally
// computed serial oracle, and reports latency quantiles, throughput and
// the shed rate.
//
// Usage:
//
//	axmlload -self                      # in-process server over loopback
//	axmlload -url http://host:8080      # a live axmlserver
//	axmlload -self -clients 500 -requests 5000 -json out/load.json
//
// The oracle is the workload suite evaluated serially by the naive
// fixpoint on private clones: by completeness invariance (Definition 3)
// every concurrent shared-evaluator answer must carry the same binding
// multiset. Against a remote server, pass the server's -hotels value so
// both sides build the same world (or disable -verify).
//
// Under -self, the admission flags and -trace-out configure the
// in-process server, which axmlserver's serving assembly builds. 429
// answers are retried up to -shed-retries times, honouring the server's
// Retry-After; every 429 counts toward the shed rate. The exit status is
// 0 only if no request errored and no answer diverged from the oracle, 2
// on a usage error (a negative count or duration among them).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activexml/axml/internal/cli"
	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/session"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// job is one replayable query with its precomputed oracle answer.
type job struct {
	scenario string
	document string
	query    string
	oracle   string // canonical binding multiset; "" when -verify is off
}

// report is what -json writes.
type report struct {
	Config    reportConfig       `json:"config"`
	Totals    reportTotals       `json:"totals"`
	Latency   reportLatency      `json:"latency"`
	Scenarios map[string]*counts `json:"scenarios"`
}

type reportConfig struct {
	URL         string `json:"url"`
	SelfHosted  bool   `json:"selfHosted"`
	Clients     int    `json:"clients"`
	Requests    int    `json:"requests"`
	Tenants     int    `json:"tenants"`
	Hotels      int    `json:"hotels"`
	Isolated    bool   `json:"isolated"`
	Verify      bool   `json:"verify"`
	ShedRetries int    `json:"shedRetries"`
	Seed        int64  `json:"seed"`
}

type reportTotals struct {
	// Requests is the number of replayed queries; Attempts counts HTTP
	// round trips (each shed retry is one more attempt).
	Requests int64 `json:"requests"`
	Attempts int64 `json:"attempts"`
	OK       int64 `json:"ok"`
	// Shed counts 429 answers; GaveUp is the subset of requests that
	// stayed shed after every retry.
	Shed           int64   `json:"shed"`
	GaveUp         int64   `json:"gaveUp"`
	Errors         int64   `json:"errors"`
	VerifyFailures int64   `json:"verifyFailures"`
	Memo           int64   `json:"memo"`
	WallSeconds    float64 `json:"wallSeconds"`
	ThroughputRPS  float64 `json:"throughputRps"`
	ShedRate       float64 `json:"shedRate"`
}

type reportLatency struct {
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MaxMs  float64 `json:"maxMs"`
	MeanMs float64 `json:"meanMs"`
}

type counts struct {
	Requests atomic.Int64 `json:"-"`
	OK       atomic.Int64 `json:"-"`
	// The atomic fields marshal through these mirrors.
	RequestsOut int64 `json:"requests"`
	OKOut       int64 `json:"ok"`
	Queries     int   `json:"queries"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.New("axmlload", stderr)
	var (
		url       = fs.String("url", "", "base URL of a live axmlserver (empty: use -self)")
		self      = fs.Bool("self", false, "serve the suite in-process on a loopback listener")
		clients   = fs.Int("clients", 64, "concurrent client goroutines")
		requests  = fs.Int("requests", 1000, "total queries to replay across all clients")
		tenants   = fs.Int("tenants", 8, "distinct tenant identities to spread requests over")
		isolated  = fs.Bool("isolated", false, "request private-clone evaluation instead of the shared master")
		verify    = fs.Bool("verify", true, "check every answer against the serial oracle")
		retries   = fs.Int("shed-retries", 3, "retries per request after a 429, honouring Retry-After")
		jsonPath  = fs.String("json", "", "write the report as JSON to this file")
		seed      = fs.Int64("seed", 1, "workload shuffle seed")
		statsOut  = fs.String("stats-out", "", "write the per-service statistics profile snapshot to this file after the run (self server or a live server's /stats/services)")
		world     = cli.AddWorld(fs)
		admission = cli.AddAdmission(fs)
		trace     = cli.AddTrace(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*url == "") == !*self {
		fmt.Fprintln(stderr, "axmlload: need exactly one of -url or -self")
		return 2
	}
	if trace.On() && !*self {
		fmt.Fprintln(stderr, "axmlload: -trace-out needs -self (a live server has its own -trace-out)")
		return 2
	}
	if *clients < 1 || *requests < 1 || *tenants < 1 {
		fmt.Fprintln(stderr, "axmlload: -clients, -requests and -tenants must be positive")
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "axmlload: "+format+"\n", a...)
		return 1
	}

	spec := world.Spec()
	reg, scenarios := workload.Suite(spec)

	// Serial oracle: each query answered alone on a pristine clone. The
	// naive fixpoint is deliberately strategy-agnostic — the server's
	// lazy shared-master evaluation must agree on the binding multiset.
	jobs := make([]job, 0, 8)
	perScenario := map[string]*counts{}
	for _, sc := range scenarios {
		perScenario[sc.Name] = &counts{Queries: len(sc.Queries)}
		for _, qsrc := range sc.Queries {
			j := job{scenario: sc.Name, document: sc.Name, query: qsrc}
			if *verify {
				q, err := pattern.Parse(qsrc)
				if err != nil {
					return fail("parse %q: %v", qsrc, err)
				}
				out, err := core.Evaluate(sc.Doc.Clone(), q, reg, core.Options{Strategy: core.NaiveFixpoint})
				if err != nil {
					return fail("oracle %s %q: %v", sc.Name, qsrc, err)
				}
				if !out.Complete {
					return fail("oracle %s %q incomplete", sc.Name, qsrc)
				}
				vals := make([]map[string]string, len(out.Results))
				for i, r := range out.Results {
					vals[i] = r.Values
				}
				j.oracle = canon(vals)
			}
			jobs = append(jobs, j)
		}
	}

	base := *url
	var srv *cli.Server
	closeTrace := func() error { return nil }
	if *self {
		var err error
		if srv, err = cli.NewServer(reg, scenarios, session.Config{}, admission, nil); err != nil {
			return fail("%v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail("%v", err)
		}
		if closeTrace, err = trace.Open(srv.Tracer); err != nil {
			ln.Close()
			return fail("%v", err)
		}
		defer closeTrace()
		go srv.Serve(ln)
		defer srv.Close()
		base = "http://" + ln.Addr().String()
	}
	base = strings.TrimRight(base, "/")

	metrics := telemetry.NewRegistry()
	hist := metrics.Histogram("axmlload_request_seconds")
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *clients * 2,
		MaxIdleConnsPerHost: *clients * 2,
	}}

	var (
		next, attempts, ok, shed, gaveUp, errs, verifyFails, memo atomic.Int64
		mismatches                                                sync.Mutex
		mismatchMsgs                                              []string
	)
	fmt.Fprintf(stdout, "axmlload: %d requests, %d clients, %d tenants -> %s (%d docs, %d queries, verify=%t)\n",
		*requests, *clients, *tenants, base, len(scenarios), len(jobs), *verify)

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		rng := rand.New(rand.NewSource(*seed + int64(c)*7919))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if next.Add(1) > int64(*requests) {
					return
				}
				j := jobs[rng.Intn(len(jobs))]
				tenant := "t" + strconv.Itoa(rng.Intn(*tenants))
				sc := perScenario[j.scenario]
				sc.Requests.Add(1)

				var resp session.QueryResponse
				status, err := 0, error(nil)
				for try := 0; ; try++ {
					attempts.Add(1)
					t0 := time.Now()
					var ra int
					status, ra, resp, err = postQuery(client, base, session.QueryRequest{
						Tenant: tenant, Document: j.document, Query: j.query, Isolated: *isolated,
					})
					if status == http.StatusOK {
						hist.Observe(time.Since(t0))
						break
					}
					if status != http.StatusTooManyRequests {
						break
					}
					shed.Add(1)
					if try >= *retries {
						gaveUp.Add(1)
						break
					}
					if ra > 5 {
						ra = 5 // bound a pathological backoff hint
					}
					time.Sleep(time.Duration(ra) * time.Second)
				}
				switch {
				case err != nil || (status != http.StatusOK && status != http.StatusTooManyRequests):
					errs.Add(1)
				case status == http.StatusOK:
					ok.Add(1)
					sc.OK.Add(1)
					if resp.Memo {
						memo.Add(1)
					}
					if j.oracle != "" && (!resp.Complete || canon(resp.Bindings) != j.oracle) {
						verifyFails.Add(1)
						mismatches.Lock()
						if len(mismatchMsgs) < 5 {
							mismatchMsgs = append(mismatchMsgs, fmt.Sprintf(
								"%s %q: complete=%t\n  got  %s\n  want %s",
								j.document, j.query, resp.Complete, canon(resp.Bindings), j.oracle))
						}
						mismatches.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	snap := metrics.Snapshot().Histograms["axmlload_request_seconds"]
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rep := report{
		Config: reportConfig{
			URL: base, SelfHosted: *self, Clients: *clients, Requests: *requests,
			Tenants: *tenants, Hotels: spec.Hotels, Isolated: *isolated, Verify: *verify,
			ShedRetries: *retries, Seed: *seed,
		},
		Totals: reportTotals{
			Requests: int64(*requests), Attempts: attempts.Load(), OK: ok.Load(),
			Shed: shed.Load(), GaveUp: gaveUp.Load(), Errors: errs.Load(),
			VerifyFailures: verifyFails.Load(), Memo: memo.Load(),
			WallSeconds:   wall.Seconds(),
			ThroughputRPS: float64(ok.Load()) / wall.Seconds(),
		},
		Latency: reportLatency{
			P50Ms: ms(snap.Quantile(0.50)), P90Ms: ms(snap.Quantile(0.90)),
			P99Ms: ms(snap.Quantile(0.99)), MaxMs: ms(snap.Max), MeanMs: ms(snap.Mean()),
		},
		Scenarios: perScenario,
	}
	if rep.Totals.Attempts > 0 {
		rep.Totals.ShedRate = float64(rep.Totals.Shed) / float64(rep.Totals.Attempts)
	}
	for _, sc := range perScenario {
		sc.RequestsOut = sc.Requests.Load()
		sc.OKOut = sc.OK.Load()
	}

	fmt.Fprintf(stdout, "axmlload: %d ok, %d shed (%.1f%% of %d attempts, %d gave up), %d errors in %.2fs (%.0f q/s, %d memo)\n",
		rep.Totals.OK, rep.Totals.Shed, 100*rep.Totals.ShedRate, rep.Totals.Attempts,
		rep.Totals.GaveUp, rep.Totals.Errors, rep.Totals.WallSeconds, rep.Totals.ThroughputRPS, rep.Totals.Memo)
	fmt.Fprintf(stdout, "axmlload: latency p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms  mean %.2fms\n",
		rep.Latency.P50Ms, rep.Latency.P90Ms, rep.Latency.P99Ms, rep.Latency.MaxMs, rep.Latency.MeanMs)
	for _, n := range cli.SortedKeys(perScenario) {
		sc := perScenario[n]
		fmt.Fprintf(stdout, "  %-12s %6d requests  %6d ok\n", n, sc.RequestsOut, sc.OKOut)
	}

	if *jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail("%v", err)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "axmlload: wrote %s\n", *jsonPath)
	}

	if *statsOut != "" {
		if err := writeStats(*statsOut, client, base); err != nil {
			return fail("stats: %v", err)
		}
		fmt.Fprintf(stdout, "axmlload: wrote %s\n", *statsOut)
	}
	if srv != nil {
		// Close the server, then make the trace durable.
		if err := errors.Join(srv.Close(), closeTrace()); err != nil {
			return fail("%v", err)
		}
	}

	if rep.Totals.VerifyFailures > 0 {
		fmt.Fprintf(stderr, "axmlload: %d answers diverged from the serial oracle\n", rep.Totals.VerifyFailures)
		for _, msg := range mismatchMsgs {
			fmt.Fprintf(stderr, "  %s\n", msg)
		}
		return 1
	}
	if rep.Totals.Errors > 0 {
		return fail("%d requests failed", rep.Totals.Errors)
	}
	return 0
}

// writeStats saves the per-service profile snapshot the server — the
// -self one or a live one — answers on GET /stats/services.
func writeStats(path string, client *http.Client, base string) error {
	resp, err := client.Get(base + "/stats/services")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /stats/services: %s", resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// postQuery performs one POST /query round trip. The int results are
// the HTTP status and the Retry-After hint in seconds (429 only).
func postQuery(client *http.Client, base string, req session.QueryRequest) (int, int, session.QueryResponse, error) {
	var qr session.QueryResponse
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, qr, err
	}
	resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, qr, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, 0, qr, err
	}
	ra, _ := strconv.Atoi(resp.Header.Get("Retry-After")) // 0 when absent
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(payload, &qr); err != nil {
			return resp.StatusCode, ra, qr, fmt.Errorf("bad response body: %w", err)
		}
	}
	return resp.StatusCode, ra, qr, nil
}

// canon renders a binding multiset canonically: per binding the sorted
// k=v pairs joined by commas, the multiset sorted and joined by
// semicolons. Two answers are equal iff their canon strings are.
func canon(bindings []map[string]string) string {
	keys := make([]string, len(bindings))
	for i, b := range bindings {
		parts := make([]string, 0, len(b))
		for k, v := range b {
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts)
		keys[i] = strings.Join(parts, ",")
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}
