// Package core implements the lazy query-evaluation engine of "Lazy Query
// Evaluation for Active XML" (SIGMOD 2004): given an AXML document, a
// tree-pattern query and a registry of Web services, it computes the
// query's *full* result while invoking as few embedded service calls as
// possible.
//
// The engine implements the paper's algorithms as selectable strategies:
//
//   - NaiveFixpoint — the strawman of Section 1: invoke every call in the
//     document, recursively, until no call remains, then evaluate.
//   - TopDownEager — the "less naive" approach of Section 1: restrict
//     invocation to calls on the query's paths (LPQ positions), but
//     invoke them one at a time, blocking, with no further analysis.
//   - LazyLPQ — the NFQA loop of Section 4.1 driven by the linear path
//     queries of Section 3.1 (the lenient relevance of Section 6.1).
//   - LazyNFQ — the NFQA loop driven by the node-focused queries of
//     Section 3.2 (exact positional+conditional relevance, Prop. 1).
//   - LazyNFQTyped — LazyNFQ refined with service signatures (Section 5).
//
// Orthogonal options enable the layering and intra-layer parallelism of
// Sections 4.3–4.4, the F-guide acceleration and relaxations of Section 6,
// and the query pushing of Section 7.
//
// A run is one loop of rounds in four stages: detect picks the calls by the
// strategy's rule (every pending call, the first relevant member's, or the
// union of a layer's members'), plan applies the one budget rule and
// schedules the batch, invoke runs the calls from data of their own, and
// apply splices the responses in member order and does the accounting.
//
// An evaluation has two halves. Prepare does what depends on the query, the
// schema and the options alone — validation, satisfiability analysis,
// relevance-query generation, layering — once per query. An Evaluation is
// a prepared query's engine state over one document: Run evaluates, for as
// long as its caller's context lasts, and a run that leaves the document
// complete keeps what it learnt, so the next Run pays only for what was
// spliced in between — whoever spliced it: the document records its own
// splices (tree.Document.SplicesSince), and every evaluation over it reads
// them when it next runs. Evaluate is the two in one call, for a query asked
// once by a caller who waits for the answer.
package core

import (
	"fmt"
	"time"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
)

// Strategy selects the call-invocation policy.
type Strategy uint8

const (
	// NaiveFixpoint materialises the whole document before evaluating.
	NaiveFixpoint Strategy = iota
	// TopDownEager invokes calls on query paths, sequentially, with no
	// condition analysis.
	TopDownEager
	// LazyLPQ runs NFQA over linear path queries (positions only).
	LazyLPQ
	// LazyNFQ runs NFQA over node-focused queries (positions and
	// conditions, untyped).
	LazyNFQ
	// LazyNFQTyped runs NFQA over type-refined node-focused queries.
	LazyNFQTyped
)

// String returns the strategy's name as used in experiment tables.
func (s Strategy) String() string {
	switch s {
	case NaiveFixpoint:
		return "naive"
	case TopDownEager:
		return "eager"
	case LazyLPQ:
		return "lazy-lpq"
	case LazyNFQ:
		return "lazy-nfq"
	case LazyNFQTyped:
		return "lazy-nfq-typed"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// Options configures an evaluation.
type Options struct {
	// Strategy is the invocation policy; the zero value is NaiveFixpoint.
	Strategy Strategy
	// Schema supplies service signatures for LazyNFQTyped; it may be nil
	// for the other strategies.
	Schema *schema.Schema
	// SchemaMode selects exact or lenient satisfiability (Section 6.1).
	SchemaMode schema.Mode
	// NoProject disables type-based document projection. With a schema
	// and the LazyNFQTyped strategy, the engine normally derives from
	// schema + query a pruning predicate (desc of Definition 6) and has
	// every pattern evaluation skip subtrees that provably cannot
	// contain a match — relevance detection and result evaluation then
	// scale with the projected document instead of the full one. Results
	// and invoked-call sequences are identical either way (the predicate
	// is sound under the same assumptions as typed relevance pruning:
	// the document conforms to the schema, services to their
	// signatures); only Stats work counters change. Set NoProject to
	// evaluate over the whole document, e.g. for differential testing or
	// on documents known to violate their schema.
	NoProject bool
	// Layering enables the layer decomposition of Section 4.3. Only
	// meaningful for the lazy strategies.
	Layering bool
	// Parallel enables parallel invocation: within a layer, an NFQ that
	// meets the independence condition (✶) of Section 4.4 fires all its
	// retrieved calls as one batch, charged at the batch's maximum
	// latency. NaiveFixpoint batches each fixpoint round when set.
	Parallel bool
	// Speculative extends Parallel beyond the safe (✶) condition: within
	// a layer, the calls retrieved by *all* member NFQs in one pass are
	// fired as a single batch, even when their position languages
	// overlap. This is the "calling functions in parallel just in case"
	// direction the paper flags as future work (Section 4.4): it can
	// invoke calls that a strictly relevant rewriting would have skipped
	// (one batch member's result may invalidate another's relevance),
	// but it minimises sequential rounds and therefore latency-bound
	// time. Results are unaffected — only the invoked set may grow.
	// Implies Parallel.
	Speculative bool
	// Push ships subqueries to push-capable services (Section 7).
	Push bool
	// UseGuide accelerates relevance detection with an F-guide
	// (Section 6.2): the linear part of each relevance query runs on the
	// guide and only its candidates are checked against the remaining
	// conditions. Together with Incremental the guide is also what makes
	// detection a maintained view — its candidates seed the view once and
	// afterwards the view is fed the calls each splice brought in, read from
	// the document's splice records (tree.Splice.Calls). The session
	// layer sets it on every shared-mode run, whatever its template says
	// (the resident master's guide is the delta index); what is left to
	// switch it off are one-shot evaluations and the differentials.
	UseGuide bool
	// Guide, when set together with UseGuide, supplies a pre-built
	// F-guide for the document — typically one decoded from a
	// repository's persisted index (internal/repo) or kept warm by the
	// session layer across evaluations. The engine adopts it when it
	// describes this document and has incorporated every mutation
	// (fguide.Synced); otherwise it falls back to building one. The
	// engine maintains the adopted guide in place as calls expand, so
	// the caller's guide stays synced and can be re-used or persisted
	// after the run.
	Guide *fguide.Guide
	// Incremental makes each relevance query's pattern evaluator live as
	// long as the query object instead of being built afresh for every
	// detection — across the rounds of a run and, on an Evaluation that is
	// run again, across runs — kept sound by the document's splice records,
	// which it reads past its cursor when next asked (an evaluator the
	// records no longer reach back to starts afresh). What it keeps depends
	// on where the candidates come from. Under UseGuide the answer itself is
	// kept, as a maintained view: a detection validates only the candidates
	// that arrived since the last one and the verdicts the splices in
	// between can have changed (Stats.GuideCandidates, Stats.Revalidated),
	// and reads the rest.
	// Without a guide the evaluator keeps its memo of (query node, document
	// node) matches and re-evaluates the query down the spines the splices
	// touched — O(changed region) nodes visited instead of O(document), but
	// still one pass over the matched set per round. The guideless arm is
	// not a view on purpose: without an index of arriving calls a view has
	// to be seeded from every call of the document, which a short
	// evaluation never earns back (measured, doc/PERF.md §1). The invoked
	// call sequence and the results are identical to from-scratch
	// evaluation either way; only the work counters and DetectTime change.
	Incremental bool
	// InvokeWorkers bounds the invocation pool: how many members of a
	// parallel batch (the independent relevant calls one detection round
	// yields, Section 4.4) are in flight concurrently. Values > 1 imply
	// Parallel. Batch members are assigned to workers deterministically
	// (member i runs on worker i mod InvokeWorkers) and responses are
	// applied to the document in document order after the pool drains,
	// so results, Stats and traces are identical for every pool width —
	// only wall-clock time changes, by ≈ min(InvokeWorkers, batch width)
	// over real transports. 1 runs batch members sequentially on the
	// calling goroutine; 0 is unbounded (one worker per batch member).
	// A round with a single relevant call always runs inline, whatever
	// the width. Virtual-clock accounting is unaffected: a batch is
	// always charged the max, not the sum, of its members' costs.
	InvokeWorkers int
	// Planner, when set, decides per round how invocation batches
	// execute: member-to-worker assignment, effective pool width (up to
	// InvokeWorkers) and whether to ship pushable subqueries per
	// service. Only batches of two or more calls are shown to it. A planner may only reorder and
	// resize work — results are identical with and without one (see
	// internal/plan). Nil keeps the static striped schedule documented
	// on InvokeWorkers.
	Planner InvocationPlanner
	// RelaxJoins uses the join-free relaxed NFQs of Section 6.1.
	RelaxJoins bool
	// MaxCalls bounds the number of invocations (the paper's termination
	// safeguard, Section 2); 0 means DefaultMaxCalls.
	MaxCalls int
	// Retry configures per-call fault handling: attempts, exponential
	// backoff (charged to the virtual clock) and the per-attempt
	// deadline. The zero value is one attempt, no deadline.
	Retry RetryPolicy
	// Failure selects what an unrecoverable invocation failure does to
	// the evaluation: abort (FailFast, the default) or record the
	// failure and keep going (BestEffort), downgrading completeness if
	// the failed calls stay relevant.
	Failure FailurePolicy
	// Clock receives the simulated latency charges; nil means a fresh
	// SimClock, whose total is reported in Stats.VirtualTime.
	Clock service.Clock
	// Tracer, when set, receives hierarchical telemetry spans —
	// evaluate → analysis/layer → detect/plan/invoke — with wall-clock
	// and virtual-clock durations, shard and worker identity and
	// per-phase attributes (the data behind axmlquery -explain and
	// /debug/trace). All spans are emitted by the engine goroutine in
	// deterministic order: equal configurations produce equal streams
	// up to wall-clock fields. Nil disables span collection at the cost
	// of one pointer test per instrumentation point.
	Tracer *telemetry.Tracer
	// RemoteSpans bounds the span subtree a remote provider may return
	// per invocation for cross-process trace stitching (see
	// soap.MaxRemoteSpans for the server-side cap). It only takes effect
	// when Tracer carries a trace ID (telemetry.Tracer.SetTrace): the
	// trace context then propagates on the wire and returned remote spans
	// are grafted under the call's invoke span. 0 propagates the trace ID
	// without requesting spans back.
	RemoteSpans int
	// Metrics, when set, receives the engine's counters and log-scale
	// latency histograms (metric names in doc/OBSERVABILITY.md:
	// axml_evaluations_total, axml_detect_seconds, …). Instruments are
	// resolved once per evaluation; hot-path updates are atomic and
	// allocation-free. Nil disables metric recording.
	Metrics *telemetry.Registry
}

// WithSchema returns o evaluating under sch, which may be nil. Schema
// residency decides typing: with a schema LazyNFQ becomes LazyNFQTyped,
// without one LazyNFQTyped (which requires a schema) falls back to
// LazyNFQ — the one statement of that rule, for every caller that learns
// at run time whether a document carries signatures.
func (o Options) WithSchema(sch *schema.Schema) Options {
	o.Schema = sch
	switch {
	case sch != nil && o.Strategy == LazyNFQ:
		o.Strategy = LazyNFQTyped
	case sch == nil && o.Strategy == LazyNFQTyped:
		o.Strategy = LazyNFQ
	}
	return o
}

// DefaultMaxCalls bounds invocation counts when Options.MaxCalls is 0.
const DefaultMaxCalls = 100000

// RetryPolicy configures how the engine reacts to failed invocations.
// Only transient and timeout faults (service.Retryable) are retried;
// permanent errors fail immediately. All waiting is charged to the
// engine's virtual clock — simulated worlds never sleep.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call; values below 2
	// mean a single attempt (no retry).
	MaxAttempts int
	// Backoff is the pause before the second attempt; it doubles for
	// each further attempt (exponential backoff).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means uncapped.
	MaxBackoff time.Duration
	// Jitter randomises each backoff downward by up to this fraction
	// (0..1), decorrelating retry storms. The draw is deterministic in
	// Seed, the call and the attempt.
	Jitter float64
	// Deadline bounds one attempt's virtual latency. An attempt whose
	// reported latency exceeds it is cut off at the deadline, charged
	// exactly Deadline, and counts as a timeout fault (retryable).
	// 0 means no deadline.
	Deadline time.Duration
	// Seed makes the backoff jitter reproducible.
	Seed int64
}

// attempts normalises MaxAttempts.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 2 {
		return 1
	}
	return p.MaxAttempts
}

// backoffBefore computes the pause charged before the given attempt
// (attempt ≥ 2), deterministic in the policy seed and the call identity.
func (p RetryPolicy) backoffBefore(attempt, callID int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	d := p.Backoff << uint(attempt-2)
	if d < 0 || (p.MaxBackoff > 0 && d > p.MaxBackoff) {
		d = p.MaxBackoff
		if d == 0 {
			d = p.Backoff
		}
	}
	if p.Jitter > 0 {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		u := jitterDraw(p.Seed, callID, attempt)
		d = time.Duration(float64(d) * (1 - j*u))
	}
	return d
}

// jitterDraw is a stateless splitmix64 draw in [0,1) so concurrent batch
// members need no shared RNG.
func jitterDraw(seed int64, callID, attempt int) float64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(callID)*0xbf58476d1ce4e5b9 + uint64(attempt)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// FailurePolicy selects how invocation failures that survive the retry
// policy affect the evaluation.
type FailurePolicy uint8

const (
	// FailFast aborts the evaluation on the first unrecoverable
	// invocation failure.
	FailFast FailurePolicy = iota
	// BestEffort records the failure in Outcome.Failures, leaves the
	// call unresolved in the document, and keeps evaluating everything
	// else. Outcome.Complete is then recomputed from the final document
	// (Definition 3): it stays true only if every failed call turned
	// out irrelevant for the query.
	BestEffort
)

// String names the policy.
func (p FailurePolicy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case BestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("failure(%d)", uint8(p))
	}
}

// CallFailure records one call the engine gave up on under BestEffort.
type CallFailure struct {
	// Service is the call's service name.
	Service string
	// Path is the call's document path at failure time.
	Path string
	// Attempts is how many invocation attempts were made.
	Attempts int
	// Err is the final attempt's error.
	Err error
}

// Stats reports what one evaluation did — the quantities the paper's
// experiments compare.
type Stats struct {
	// CallsInvoked counts successful service invocations.
	CallsInvoked int
	// Retries counts repeated attempts after retryable faults (a call
	// that succeeds on its third attempt contributes 2).
	Retries int
	// FailedCalls counts calls given up on after exhausting the retry
	// policy (recorded in Outcome.Failures under BestEffort).
	FailedCalls int
	// DeadlineCuts counts attempts cut off by the per-call deadline.
	DeadlineCuts int
	// PushedCalls counts invocations that shipped a subquery.
	PushedCalls int
	// PushVetoed counts pushable calls whose subquery was withheld by
	// the planner (AllowPush returned false). Always 0 without a
	// planner; the veto is response-neutral by contract, so this only
	// measures saved serialization work.
	PushVetoed int
	// RelevanceQueries counts NFQ/LPQ evaluations (including residual
	// checks when the F-guide is active).
	RelevanceQueries int
	// GuideCandidates counts the F-guide candidates validated against a
	// relevance query's remaining conditions — a work counter like
	// NodesVisited: every candidate of every detection on a fresh
	// evaluator, under Options.Incremental only the new ones and those
	// counted by Revalidated.
	GuideCandidates int
	// Revalidated counts, among GuideCandidates, the verdicts that were
	// checked again because a splice touched their dependency root (see
	// pattern.IncrementalEvaluator): a handful per round when conditions
	// sit below the spine, every live candidate per round for a query
	// whose anchor carries a document-wide condition. Always 0 without
	// Options.Incremental, where nothing is kept to check again.
	Revalidated int
	// Rounds counts sequential invocation steps: a single call or one
	// parallel batch.
	Rounds int
	// NodesVisited accumulates the pattern evaluator's match attempts
	// actually computed (memo misses), in relevance detection — query
	// evaluation and the validation of F-guide candidates alike — and in
	// the final result evaluation.
	NodesVisited int
	// MemoHits accumulates detection's match attempts answered from an
	// evaluator's memo table: within one detection always, and across
	// rounds under Options.Incremental — the re-evaluation work the
	// incremental engine avoided, with or without a guide.
	MemoHits int
	// SubtreesPruned accumulates document subtrees that type-based
	// projection skipped wholesale during pattern evaluation (guide
	// candidate validation included) — the work the projection avoided.
	// Zero unless the engine projects (typed strategy with a schema,
	// NoProject unset).
	SubtreesPruned int
	// BytesFetched is the serialised size of everything services
	// returned.
	BytesFetched int
	// VirtualTime is the simulated end-to-end time: latencies charged to
	// the clock (sum over rounds, max within a batch).
	VirtualTime time.Duration
	// DetectTime is the real CPU time spent detecting relevant calls.
	DetectTime time.Duration
	// AnalysisTime is the real CPU time spent on query rewriting, type
	// analysis and influence layering.
	AnalysisTime time.Duration
	// FinalSize is the document's node count after evaluation.
	FinalSize int
}

// Outcome is the result of an evaluation.
type Outcome struct {
	// Results is the snapshot result of the query on the final document
	// state — by completeness (Definition 3), the full result. A live
	// Evaluation keeps it as its answer (see Unchanged): read-only.
	Results []pattern.Result
	// Complete reports whether the document was made complete for the
	// query; false means the call budget ran out first, or a failed
	// call (BestEffort) is still relevant.
	Complete bool
	// Resumed reports that the run continued from the state an earlier run
	// of the same Evaluation kept, instead of learning the document from
	// scratch. Always false for Evaluate.
	Resumed bool
	// Unchanged reports that Results are identical, row for row, to the
	// Results of this Evaluation's previous run — the same slice, handed out
	// again. Only a resumed run can say so: the user query's evaluator keeps
	// its answer as a maintained view and knows whether any row of it
	// changed. Always false for Evaluate.
	Unchanged bool
	// Failures lists the calls the engine gave up on (BestEffort only;
	// FailFast evaluations return an error instead).
	Failures []CallFailure
	// Stats is the evaluation accounting.
	Stats Stats
}
