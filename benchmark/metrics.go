package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/activexml/axml/internal/core"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the metrics a user of the system sees, from an
// untraced window. Every workload reports every one of them (the driver
// wants one metric set); what "op" means per workload is in the README.
func endToEnd(st *runStats, setupS float64) map[string]value {
	m := map[string]value{
		"setup_s":       {setupS, "s"},
		"op_ms_p50":     {quantile(st.opNs, 0.50) / nsPerMs, "ms"},
		"calls_invoked": {median(st.calls), "count/op"},
		// Simulated time, not a measurement: it repeats exactly by design.
		"virtual_ms":                {median(st.virtualMs), "sim-ms/op"},
		"stored_bytes_per_doc_byte": {st.footprint, "ratio"},
	}
	m["throughput_ops"] = value{throughput(st), "1/s"}
	m["alloc_mb_per_op"] = value{ratio(float64(st.allocB), float64(st.ops)) / (1 << 20), "MB/op"}
	return m
}

// throughput is verified ops per second of timed wall, estimated so that
// one machine stall does not set it. One client: the reciprocal of the
// op time's interdecile mean (the fastest and slowest tenth dropped).
// Concurrent clients: the window is cut into fifteen slices and the
// median slice's completion rate reported.
func throughput(st *runStats) float64 {
	if len(st.doneNs) == 0 {
		s := append([]int64(nil), st.opNs...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		s = s[len(s)/10 : len(s)-len(s)/10]
		return ratio(float64(len(s)), sum(s)/1e9)
	}
	const slices = 15
	width := st.timedNs / slices
	if width == 0 {
		return 0
	}
	counts := make([]float64, slices)
	for _, at := range st.doneNs {
		if i := at / width; i < slices {
			counts[i]++
		}
	}
	return median(counts) / (float64(width) / 1e9)
}

// traceView indexes the spans of a traced run for the per-layer metrics.
// For each span name it answers from the window's ops when they produced
// such spans, and from the replays otherwise.
type traceView struct {
	inOp, replay map[string][]span
	trees        []opTree // the window's ops
}

func newTraceView(spans []span, windowStart int64) *traceView {
	v := &traceView{inOp: map[string][]span{}, replay: map[string][]span{}}
	var window []span
	for _, s := range spans {
		switch {
		case s.Replay:
			v.replay[s.Name] = append(v.replay[s.Name], s)
		case s.Start >= windowStart:
			v.inOp[s.Name] = append(v.inOp[s.Name], s)
			window = append(window, s)
		}
	}
	for _, t := range opTrees(window) {
		if t.root.Name == "op" || t.root.Name == "request" { // not the harness's own clone
			v.trees = append(v.trees, t)
		}
	}
	return v
}

// spans returns the named spans and whether they are the window's own.
func (v *traceView) spans(name string) ([]span, bool) {
	if s := v.inOp[name]; len(s) > 0 {
		return s, true
	}
	return v.replay[name], false
}

func (v *traceView) durs(name string) []int64 {
	ss, _ := v.spans(name)
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

func (v *traceView) medianMs(name string) float64 { return median(v.durs(name)) / nsPerMs }
func (v *traceView) medianUs(name string) float64 { return median(v.durs(name)) / nsPerUs }

// perEvaluate sums the named spans that lie under a core.evaluate span
// and divides by the number of those evaluations: time per engine run.
// invocation is the union-covered time instead, for spans that overlap
// (a parallel batch of round trips).
func (v *traceView) perEvaluate(names ...string) (sumNs, coverNs, count, evals float64) {
	evalSpans, inOp := v.spans("core.evaluate")
	evals = float64(len(evalSpans))
	src := v.replay
	if inOp {
		src = v.inOp
	}
	byParent := map[int64][]span{}
	for _, name := range names {
		for _, s := range src[name] {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	for _, ev := range evalSpans {
		kids := byParent[ev.ID]
		for _, k := range kids {
			sumNs += float64(k.dur())
			count++
		}
		coverNs += float64(cover(kids, ev.Start, ev.End))
	}
	return
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the diagnostics of single layers from a traced run.
func perLayer(v *traceView, st, ref *runStats, rp *replayed, p primary, cnt *shimCounts, spanCount int) map[string]value {
	m := map[string]value{}
	ms := func(name, span string) { m[name] = value{v.medianMs(span), "ms"} }
	us := func(name, span string) { m[name] = value{v.medianUs(span), "us"} }

	// tree
	ms("tree.unmarshal_ms", "tree.unmarshal")
	m["tree.unmarshal_allocs"] = value{rp.unmarshalAllocs, "count"}
	ms("tree.marshal_ms", "tree.marshal")
	ms("tree.clone_ms", "tree.clone")

	// pattern, rewrite, schema, influence, fguide: replays
	ms("pattern.eval_ms", "pattern.eval")
	us("pattern.incremental_eval_us", "pattern.incremental_eval")
	us("pattern.parse_us", "pattern.parse")
	us("rewrite.build_all_us", "rewrite.build_all")
	us("schema.analyzer_us", "schema.analyzer")
	us("schema.projection_us", "schema.projection")
	ms("schema.validate_ms", "schema.validate")
	us("schema.parse_us", "schema.parse")
	us("influence.new_us", "influence.new")
	ms("fguide.build_ms", "fguide.build")
	ms("fguide.decode_ms", "fguide.decode")
	ms("fguide.encode_ms", "fguide.encode")
	us("fguide.candidates_us", "fguide.candidates")
	m["fguide.index_bytes"] = value{float64(rp.indexBytes), "bytes"}

	// core: the engine runs the harness called itself — the window's ops,
	// or the replayed master-filling evaluation on the serving workloads.
	stat := func(f func(core.Stats) float64) []float64 {
		out := make([]float64, len(st.evals))
		for i, e := range st.evals {
			out[i] = f(e.stats)
		}
		return out
	}
	nodes := stat(func(s core.Stats) float64 { return float64(s.NodesVisited) })
	memo := stat(func(s core.Stats) float64 { return float64(s.MemoHits) })
	analysis := stat(func(s core.Stats) float64 { return float64(s.AnalysisTime) })
	detect := stat(func(s core.Stats) float64 { return float64(s.DetectTime) })
	calls := stat(func(s core.Stats) float64 { return float64(s.CallsInvoked) })
	m["pattern.nodes_visited"] = value{median(nodes), "count/op"}
	m["pattern.memo_hit_share"] = value{ratio(sum(memo), sum(memo)+sum(nodes)), "ratio"}
	ms("core.evaluate_ms", "core.evaluate")
	m["core.analysis_ms"] = value{median(analysis) / nsPerMs, "ms"} // program-reported
	m["core.detect_ms"] = value{median(detect) / nsPerMs, "ms"}     // program-reported
	handlerNs, _, handlerCalls, evals := v.perEvaluate("service.handler")
	_, invokeCover, _, _ := v.perEvaluate("service.handler", "soap.roundtrip")
	// What is left of an evaluation after analysis, detection, waiting
	// for invocations and result evaluation: splice, planning,
	// bookkeeping.
	m["core.residual_ms"] = value{v.medianMs("core.evaluate") - (median(analysis)+median(detect)+ratio(invokeCover, evals))/nsPerMs - v.medianMs("pattern.eval"), "ms"}
	m["core.rounds"] = value{median(stat(func(s core.Stats) float64 { return float64(s.Rounds) })), "count/op"}
	m["core.relevance_queries"] = value{median(stat(func(s core.Stats) float64 { return float64(s.RelevanceQueries) })), "count/op"}
	m["core.subtrees_pruned"] = value{median(stat(func(s core.Stats) float64 { return float64(s.SubtreesPruned) })), "count/op"}
	m["core.guide_candidates"] = value{median(stat(func(s core.Stats) float64 { return float64(s.GuideCandidates) })), "count/op"}
	m["core.invoked_of_present"] = value{ratio(median(calls), float64(rp.naive.calls)), "ratio"}
	// Break-even service latency: the extra CPU laziness costs, divided
	// by the sequential service waits it saves. Below it the naive
	// fixpoint finishes first; 0 when laziness costs no extra CPU or
	// saves no waiting.
	extraCPU := rp.lazySimNs - float64(rp.naive.ns)
	savedWaits := ratio(float64(rp.naive.virtual)-rp.lazySimVirtual, float64(p.latency))
	breakeven := 0.0
	if extraCPU > 0 && savedWaits > 0 {
		breakeven = extraCPU / savedWaits / nsPerUs
	}
	m["core.breakeven_latency_us"] = value{breakeven, "us"}

	// plan
	us("plan.plan_batch_us", "plan.plan_batch")
	planBatches, planReordered := float64(cnt.planBatches.Load()), float64(cnt.planReordered.Load())
	m["plan.batches"] = value{ratio(planBatches, float64(len(st.evals))), "count/op"}
	m["plan.reordered_share"] = value{ratio(planReordered, planBatches), "ratio"}

	// service
	m["service.handler_ms"] = value{ratio(handlerNs, evals) / nsPerMs, "ms/op"}
	m["service.invocations"] = value{ratio(handlerCalls, evals), "count/op"}
	m["service.retries"] = value{sum(stat(func(s core.Stats) float64 { return float64(s.Retries) })), "count"}
	m["service.failed"] = value{sum(stat(func(s core.Stats) float64 { return float64(s.FailedCalls) })) + float64(cnt.handlerErrors.Load()), "count"}
	m["service.cache_hit_share"] = value{ratio(float64(st.cacheHits), float64(st.cacheLookups)), "ratio"}

	// soap
	trips, inOp := v.spans("soap.roundtrip")
	us("soap.roundtrip_us_p50", "soap.roundtrip")
	us("soap.encode_us", "soap.encode")
	// Overhead of one round trip: what is left after the provider's own
	// work — its handler (median per service) and, on the workload's own
	// server, the latency it really sleeps. The replay's server does not
	// sleep.
	handlers := v.replay["service.handler"]
	if inOp {
		handlers = v.inOp["service.handler"]
	}
	lo, hi := int64(1<<62), int64(0)
	for _, s := range trips {
		lo, hi = min(lo, s.Start), max(hi, s.End)
	}
	served := map[string][]int64{}
	for _, h := range handlers {
		if h.Start >= lo && h.End <= hi {
			served[h.Attr] = append(served[h.Attr], h.dur())
		}
	}
	var overheads []float64
	for _, s := range trips {
		o := float64(s.dur()) - median(served[s.Attr])
		if svc := p.reg.Lookup(s.Attr); inOp && svc != nil {
			o -= float64(svc.Latency)
		}
		overheads = append(overheads, o)
	}
	m["soap.overhead_us"] = value{median(overheads) / nsPerUs, "us"}
	m["soap.bytes_per_call"] = value{ratio(float64(cnt.soapBytes.Load()), float64(len(trips))), "bytes"}

	// session: the window's requests on the serving workloads, the
	// replayed memo answers elsewhere.
	reqs := st.reqs
	if len(reqs) == 0 {
		reqs = rp.sessionReqs
	}
	handlerDur := map[int64]int64{}
	sessionSpans, _ := v.spans("session.handler")
	for _, s := range sessionSpans {
		handlerDur[s.Op] = s.dur()
	}
	var hot, small, writes, reevals, queued, elapsed, overhead, transport []float64
	var memoN, hotN float64
	for _, r := range reqs {
		ns := float64(r.ns)
		switch r.kind {
		case 'w':
			writes = append(writes, ns)
			continue
		case 's':
			small = append(small, ns)
		case 'h':
			hot = append(hot, ns)
			if !r.memo {
				reevals = append(reevals, ns)
			}
		}
		hotN++
		if r.memo {
			memoN++
		}
		queued = append(queued, r.queued*1e3)
		elapsed = append(elapsed, r.elapsed*1e3)
		if d, ok := handlerDur[r.op]; ok {
			overhead = append(overhead, float64(d)/nsPerUs-r.queued*1e3-r.elapsed*1e3)
			transport = append(transport, (ns-float64(d))/nsPerUs)
		}
	}
	us("session.query_us_p50", "session.query")
	m["session.queued_us_p50"] = value{median(queued), "us"}
	m["session.elapsed_us_p50"] = value{median(elapsed), "us"}
	m["session.memo_share"] = value{ratio(memoN, hotN), "ratio"}
	m["session.shed"] = value{float64(st.shed), "count"}
	m["session.http_overhead_us"] = value{median(overhead), "us"}
	m["session.transport_us"] = value{median(transport), "us"}
	m["session.reeval_after_write_ms"] = value{median(reevals) / nsPerMs, "ms"}
	m["session.req_ms_p99"] = value{quantile(hot, 0.99) / nsPerMs, "ms"}
	m["session.small_req_us_p50"] = value{median(small) / nsPerUs, "us"}
	m["session.write_req_ms_p50"] = value{median(writes) / nsPerMs, "ms"}
	m["session.write_req_ms_p95"] = value{quantile(writes, 0.95) / nsPerMs, "ms"}

	// repo, store
	ms("repo.get_ms", "repo.get")
	ms("repo.put_ms", "repo.put")
	if st.gets > 0 {
		m["repo.get_warm_share"] = value{ratio(float64(st.warmGets), float64(st.gets)), "ratio"}
	} else {
		m["repo.get_warm_share"] = value{ratio(float64(rp.warmGets), float64(rp.gets)), "ratio"}
	}
	ms("store.write_atomic_ms", "store.write_atomic")

	// bench: what tracing itself costs, against the untraced half of the
	// same process.
	m["bench.trace_overhead_share"] = value{ratio(quantile(st.opNs, 0.5), quantile(ref.opNs, 0.5)) - 1, "ratio"}
	m["bench.spans_per_op"] = value{ratio(float64(spanCount), float64(len(v.trees))), "count/op"}
	// The tail of the op time: end-to-end in spirit, but it does not
	// repeat within any bound worth setting, so it is a diagnostic.
	m["bench.op_ms_p90"] = value{quantile(st.opNs, 0.90) / nsPerMs, "ms"}
	return m
}

// check is one line of the layer-isolation self-check.
type check struct {
	Name string  `json:"name"`
	Got  float64 `json:"got"`
	Want string  `json:"want"`
	OK   bool    `json:"ok"`
}

// selfCheck shows that the workload stresses the layer it was built for
// and bypasses the others, and that the trace is well formed.
func selfCheck(workload string, v *traceView, st *runStats, m map[string]value) []check {
	var out []check
	add := func(name string, got float64, want string, ok bool) {
		out = append(out, check{name, got, want, ok})
	}
	worst := 0.0
	for _, t := range v.trees {
		worst = max(worst, t.partitionError())
	}
	add("self times partition every op span", worst, "<= 0.01", worst <= 0.01)

	// share of the ops' wall covered by the named child spans
	covered := func(names ...string) float64 {
		want := map[string]bool{}
		for _, n := range names {
			want[n] = true
		}
		var in, total int64
		for _, t := range v.trees {
			var kids []span
			var walk func(id int64)
			walk = func(id int64) {
				for _, c := range t.children[id] {
					if want[c.Name] {
						kids = append(kids, c)
					}
					walk(c.ID)
				}
			}
			walk(t.root.ID)
			in += cover(kids, t.root.Start, t.root.End)
			total += t.root.dur()
		}
		return ratio(float64(in), float64(total))
	}
	switch workload {
	case "lazy-hotels":
		got := covered("service.handler")
		add("handlers' share of op wall", got, "< 0.05", got < 0.05)
	case "federated-soap":
		got := covered("soap.roundtrip")
		add("soap.roundtrip cover of op wall", got, ">= 0.70", got >= 0.70)
	case "open-query-persist":
		got := covered("repo.get", "repo.put")
		add("repo.get + repo.put share of op wall", got, ">= 0.50", got >= 0.50)
	case "serve-hot":
		got := m["session.memo_share"].Value
		add("memo answers' share of requests", got, ">= 0.99", got >= 0.99)
	case "serve-churn":
		got := float64(st.writesWithoutCalls)
		add("writes that invoked no call", got, "== 0", got == 0)
	}
	return out
}

func formatMetrics(m map[string]value) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	return sb.String()
}
