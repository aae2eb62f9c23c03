// Package axml is a Go implementation of Active XML lazy query
// evaluation, reproducing "Lazy Query Evaluation for Active XML"
// (Abiteboul, Benjelloun, Cautis, Manolescu, Milo, Preda — SIGMOD 2004).
//
// Active XML documents are XML documents whose content is partly
// extensional (ordinary elements) and partly intensional: embedded calls
// to Web services that, when invoked, are replaced in place by the data
// they return. Answering a query over such a document lazily means
// invoking only the calls whose results may contribute to the answer.
//
// The package is a facade over the implementation packages; the types it
// exposes are the library's stable API.
//
// # Quick start
//
//	doc, _ := axml.ParseDocument(data)        // XML with <axml:call> elements
//	q, _ := axml.ParseQuery(`/hotels/hotel[name="Best Western"]//restaurant[name=$X] -> $X`)
//	reg := axml.NewRegistry()
//	reg.Register(&axml.Service{Name: "getNearbyRestos", Handler: myHandler})
//	out, _ := axml.Evaluate(doc, q, reg, axml.Options{Strategy: axml.LazyNFQ})
//	for _, r := range out.Results { fmt.Println(r.Values["X"]) }
//
// See the examples directory for complete programs, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the reproduced evaluation.
package axml

import (
	"github.com/activexml/axml/internal/construct"
	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/repo"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/tree"
)

// Document model (see internal/tree).
type (
	// Document is an Active XML document: an ordered labelled tree whose
	// nodes are data nodes or embedded service calls.
	Document = tree.Document
	// Node is a single document node.
	Node = tree.Node
	// Binding maps pushed-query variables to values.
	Binding = tree.Binding
)

// Node kinds.
const (
	// ElementNode is a data node labelled with an element name.
	ElementNode = tree.Element
	// TextNode is a data leaf carrying a value.
	TextNode = tree.Text
	// CallNode is an embedded service call.
	CallNode = tree.Call
	// TuplesNode is the materialised result of a pushed call.
	TuplesNode = tree.Tuples
)

// NewElement returns a detached element node.
func NewElement(name string) *Node { return tree.NewElement(name) }

// NewText returns a detached text leaf.
func NewText(value string) *Node { return tree.NewText(value) }

// NewCall returns a detached service-call node with parameter subtrees.
func NewCall(service string, params ...*Node) *Node { return tree.NewCall(service, params...) }

// NewDocument wraps a root element into a document.
func NewDocument(root *Node) *Document { return tree.NewDocument(root) }

// ParseDocument reads an AXML document from XML; service calls are
// <axml:call service="name"> elements in the namespace
// "http://activexml.net/2004/calls".
func ParseDocument(data []byte) (*Document, error) { return tree.Unmarshal(data) }

// MarshalDocument serialises a document subtree as XML.
func MarshalDocument(n *Node) ([]byte, error) { return tree.Marshal(n) }

// MarshalDocumentIndent is MarshalDocument with indentation.
func MarshalDocumentIndent(n *Node) ([]byte, error) { return tree.MarshalIndent(n) }

// Queries (see internal/pattern).
type (
	// Query is a tree-pattern query: the core tree-matching fragment of
	// XPath/XQuery, with variables, value joins and result nodes.
	Query = pattern.Pattern
	// QueryResult is one element of a query's result.
	QueryResult = pattern.Result
)

// ParseQuery reads a query in the XPath-like syntax, e.g.
//
//	/hotels/hotel[name="Best Western"][rating="*****"]
//	    /nearby//restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y
func ParseQuery(s string) (*Query, error) { return pattern.Parse(s) }

// MustParseQuery is ParseQuery panicking on error, for literals.
func MustParseQuery(s string) *Query { return pattern.MustParse(s) }

// Snapshot evaluates the query on the document as-is, without invoking
// any service call — the snapshot semantics of the paper.
func Snapshot(doc *Document, q *Query) []QueryResult {
	rs, _ := pattern.Eval(doc, q)
	return rs
}

// Schemas (see internal/schema).
type (
	// Schema declares service signatures and element content models.
	Schema = schema.Schema
	// Signature is a service's input/output type.
	Signature = schema.Signature
)

// TypeMode selects the satisfiability algorithm for type-based pruning.
type TypeMode = schema.Mode

// Satisfiability modes for type-based pruning.
const (
	// ExactTypes is the exact satisfiability analysis of the paper's
	// Section 5.
	ExactTypes = schema.Exact
	// LenientTypes is the polynomial relaxation of Section 6.1.
	LenientTypes = schema.Lenient
)

// ParseSchema reads the DTD-like schema syntax of the paper's Figure 2.
func ParseSchema(s string) (*Schema, error) { return schema.Parse(s) }

// Services (see internal/service).
type (
	// Registry holds the invocable Web services.
	Registry = service.Registry
	// Service is one registered service.
	Service = service.Service
	// Handler computes a service's result forest.
	Handler = service.Handler
	// Response is the outcome of one invocation.
	Response = service.Response
	// Clock abstracts evaluation time; SimClock accumulates simulated
	// latencies without sleeping.
	Clock = service.Clock
	// SimClock is the virtual clock used by benchmarks.
	SimClock = service.SimClock
	// Fault is a classified invocation error (see doc/FAULTS.md).
	Fault = service.Fault
	// ErrorClass partitions invocation errors into permanent, transient
	// and timeout; only the latter two are retried.
	ErrorClass = service.ErrorClass
	// FaultSpec configures the deterministic fault injector.
	FaultSpec = service.FaultSpec
	// Faults is a seeded fault injector wrapping a registry.
	Faults = service.Faults
	// FaultStats counts what a Faults injector did (Faults.Stats).
	FaultStats = service.FaultStats
)

// Error classes.
const (
	// PermanentFault marks errors that retrying cannot fix.
	PermanentFault = service.Permanent
	// TransientFault marks passing failures worth retrying.
	TransientFault = service.Transient
	// TimeoutFault marks deadline expirations, also retryable.
	TimeoutFault = service.Timeout
)

// ClassOf extracts the error class from any error chain; unclassified
// errors are permanent.
func ClassOf(err error) ErrorClass { return service.ClassOf(err) }

// NewFaults builds a deterministic fault injector; wrap a registry with
// its Wrap method.
func NewFaults(spec FaultSpec) *Faults { return service.NewFaults(spec) }

// NewRegistry returns an empty service registry.
func NewRegistry() *Registry { return service.NewRegistry() }

// NewWallClock returns a real-time clock; when sleep is set, simulated
// latencies physically block.
func NewWallClock(sleep bool) Clock { return service.NewWallClock(sleep) }

// Engine (see internal/core).
type (
	// Options configures an evaluation: strategy, typing, layering,
	// parallelism, pushing, guide, budgets.
	Options = core.Options
	// Outcome is an evaluation's results plus accounting.
	Outcome = core.Outcome
	// Stats is the evaluation accounting.
	Stats = core.Stats
	// Strategy selects the invocation policy.
	Strategy = core.Strategy
	// RetryPolicy configures per-call retries, backoff and deadlines
	// (Options.Retry; see doc/FAULTS.md).
	RetryPolicy = core.RetryPolicy
	// FailurePolicy decides what a call that exhausts its attempts does
	// to the evaluation (Options.Failure).
	FailurePolicy = core.FailurePolicy
	// CallFailure records one abandoned call under BestEffort
	// (Outcome.Failures).
	CallFailure = core.CallFailure
)

// Failure policies.
const (
	// FailFast aborts the evaluation on the first exhausted call.
	FailFast = core.FailFast
	// BestEffort records exhausted calls and keeps evaluating;
	// completeness is then re-derived from what actually failed.
	BestEffort = core.BestEffort
)

// Strategies.
const (
	// NaiveFixpoint invokes every call before evaluating.
	NaiveFixpoint = core.NaiveFixpoint
	// TopDownEager invokes calls on query paths one at a time.
	TopDownEager = core.TopDownEager
	// LazyLPQ prunes by position (linear path queries).
	LazyLPQ = core.LazyLPQ
	// LazyNFQ prunes by position and conditions (node-focused queries).
	LazyNFQ = core.LazyNFQ
	// LazyNFQTyped additionally prunes by service signatures.
	LazyNFQTyped = core.LazyNFQTyped
)

// Evaluate computes the full result of q over doc, invoking services from
// reg lazily according to the options. The document is materialised in
// place as calls are invoked; clone it first to keep the original.
func Evaluate(doc *Document, q *Query, reg *Registry, opt Options) (*Outcome, error) {
	return core.Evaluate(doc, q, reg, opt)
}

// Complete reports whether doc is complete for q (Definition 3 of the
// paper): no remaining call is relevant, so the snapshot result equals
// the full result. A non-nil schema uses the type-refined relevance of
// Section 5 with the given mode.
func Complete(doc *Document, q *Query, sch *Schema, mode TypeMode) (bool, error) {
	return core.Complete(doc, q, sch, mode)
}

// Relevant returns the calls of doc currently relevant for q, in document
// order. A non-nil schema refines relevance with service signatures.
func Relevant(doc *Document, q *Query, sch *Schema, mode TypeMode) ([]*Node, error) {
	return core.Relevant(doc, q, sch, mode)
}

// F-guides (see internal/fguide).
type (
	// FGuide is the function-call guide access structure of the paper's
	// Section 6.2. The engine builds one automatically under
	// Options.UseGuide; the type is exported for inspection and tooling.
	FGuide = fguide.Guide
)

// BuildFGuide constructs the F-guide of a document.
func BuildFGuide(doc *Document) *FGuide { return fguide.Build(doc) }

// HTTP transport (see internal/soap).
type (
	// HTTPServer serves a registry over HTTP with an XML envelope.
	HTTPServer = soap.Server
	// HTTPClient invokes remote AXML service providers, one HTTP request
	// per invocation: it classifies faults but never retries them
	// (Options.Retry is the retry layer).
	HTTPClient = soap.Client
	// ServiceInfo describes one remote service.
	ServiceInfo = soap.ServiceInfo
)

// NewHTTPServer wraps a registry into an http.Handler; sleepLatency makes
// the server block for each service's configured latency.
func NewHTTPServer(reg *Registry, sleepLatency bool) *HTTPServer {
	return soap.NewServer(reg, sleepLatency)
}

// RecursivePush wraps every service of reg so pushed queries are honoured
// even by services whose results embed further calls: the provider
// materialises its own result first (the ActiveXML peer deployment of the
// paper's Section 7) — a naive-fixpoint run of the engine under the
// request's context, bounded by maxCalls, each round's calls invoked on up
// to workers goroutines (1 sequential, 0 one per call; the tuples are the
// same at every width — `axmlserver -invoke-workers`).
func RecursivePush(reg *Registry, maxCalls, workers int) *Registry {
	return soap.RecursivePush(reg, maxCalls, workers)
}

// Document repository (see internal/repo).
type (
	// Repo is a file-backed repository of AXML documents, each persisted
	// with its schema and a manifest through atomic, durable writes; an
	// open builds the document's F-guide.
	Repo = repo.Repo
)

// OpenRepo prepares a document repository at dir.
func OpenRepo(dir string) (*Repo, error) { return repo.Open(dir) }

// Result construction (see internal/construct).
type (
	// Template is an XML result template with {$X} placeholders,
	// instantiated once per query result — the return-clause half of the
	// XQuery core.
	Template = construct.Template
)

// ParseTemplate reads an XML forest whose text may embed {$X}
// placeholders referencing query variables.
func ParseTemplate(src string) (*Template, error) { return construct.ParseTemplate(src) }

// ConstructDocument instantiates the template for every result and wraps
// the forests under a fresh root element.
func ConstructDocument(rootName string, t *Template, results []QueryResult) (*Document, error) {
	return construct.Document(rootName, t, results)
}
