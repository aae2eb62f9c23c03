// Package axml_test exercises the public facade exactly as an importing
// project would, without touching internal packages.
package axml_test

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	axml "github.com/activexml/axml"
)

const hotelsDoc = `
<hotels>
  <hotel>
    <name>Best Western</name>
    <rating>*****</rating>
    <nearby><axml:call service="getNearbyRestos">addr-1</axml:call></nearby>
  </hotel>
  <hotel>
    <name>Pennsylvania</name>
    <rating>*****</rating>
    <nearby><axml:call service="getNearbyRestos">addr-2</axml:call></nearby>
  </hotel>
</hotels>`

const hotelsSchema = `
functions:
  getNearbyRestos = [in: data, out: restaurant*]
elements:
  hotels     = hotel*
  hotel      = name.rating.nearby
  nearby     = (restaurant|getNearbyRestos)*
  restaurant = name.rating
  name       = data
  rating     = data
`

func restosService(invocations *int) *axml.Service {
	return &axml.Service{
		Name:    "getNearbyRestos",
		CanPush: true,
		Handler: func(params []*axml.Node) ([]*axml.Node, error) {
			*invocations++
			mk := func(name, rating string) *axml.Node {
				r := axml.NewElement("restaurant")
				r.Append(axml.NewElement("name")).Append(axml.NewText(name))
				r.Append(axml.NewElement("rating")).Append(axml.NewText(rating))
				return r
			}
			addr := params[0].Text()
			return []*axml.Node{
				mk("Good-"+addr, "*****"),
				mk("Meh-"+addr, "**"),
			}, nil
		},
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	doc, err := axml.ParseDocument([]byte(hotelsDoc))
	if err != nil {
		t.Fatal(err)
	}
	q, err := axml.ParseQuery(
		`/hotels/hotel[name="Best Western"]/nearby//restaurant[rating="*****"][name=$X] -> $X`)
	if err != nil {
		t.Fatal(err)
	}
	invocations := 0
	reg := axml.NewRegistry()
	reg.Register(restosService(&invocations))

	// Snapshot before any invocation is empty (Definition 1 semantics).
	if rs := axml.Snapshot(doc, q); len(rs) != 0 {
		t.Fatalf("snapshot should be empty, got %v", rs)
	}
	// Completeness check sees the two relevant... no: only Best Western's
	// call is relevant (the other hotel's name cannot change).
	rel, err := axml.Relevant(doc, q, nil, axml.ExactTypes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 1 {
		t.Fatalf("relevant calls = %d, want 1", len(rel))
	}
	ok, err := axml.Complete(doc, q, nil, axml.ExactTypes)
	if err != nil || ok {
		t.Fatalf("fresh doc complete=%v err=%v", ok, err)
	}

	out, err := axml.Evaluate(doc, q, reg, axml.Options{Strategy: axml.LazyNFQ})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || len(out.Results) != 1 {
		t.Fatalf("outcome: %+v", out)
	}
	if out.Results[0].Values["X"] != "Good-addr-1" {
		t.Fatalf("result = %v", out.Results[0].Values)
	}
	if invocations != 1 {
		t.Fatalf("invocations = %d, want 1 (Pennsylvania pruned)", invocations)
	}
	ok, err = axml.Complete(doc, q, nil, axml.ExactTypes)
	if err != nil || !ok {
		t.Fatalf("evaluated doc complete=%v err=%v", ok, err)
	}
}

func TestFacadeSchemaAndValidation(t *testing.T) {
	sch, err := axml.ParseSchema(hotelsSchema)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := axml.ParseDocument([]byte(hotelsDoc))
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.ValidateDocument(doc); err != nil {
		t.Fatalf("document should validate: %v", err)
	}
	bad, _ := axml.ParseDocument([]byte(`<hotels><hotel><name>x</name></hotel></hotels>`))
	if err := sch.ValidateDocument(bad); err == nil {
		t.Fatal("truncated hotel should fail validation")
	}
	// Typed evaluation through the facade.
	q := axml.MustParseQuery(`/hotels/hotel[name="Best Western"]/nearby//restaurant[name=$X] -> $X`)
	invocations := 0
	reg := axml.NewRegistry()
	reg.Register(restosService(&invocations))
	out, err := axml.Evaluate(doc, q, reg, axml.Options{
		Strategy: axml.LazyNFQTyped, Schema: sch, SchemaMode: axml.LenientTypes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(out.Results))
	}
}

func TestFacadeDocumentConstruction(t *testing.T) {
	root := axml.NewElement("r")
	root.Append(axml.NewElement("a")).Append(axml.NewText("v"))
	root.Append(axml.NewCall("f", axml.NewText("p")))
	doc := axml.NewDocument(root)
	data, err := axml.MarshalDocument(doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	back, err := axml.ParseDocument(data)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Root.Equal(back.Root) {
		t.Fatal("construction round trip failed")
	}
	if _, err := axml.MarshalDocumentIndent(doc.Root); err != nil {
		t.Fatal(err)
	}
	g := axml.BuildFGuide(doc)
	if g.Calls() != 1 {
		t.Fatalf("guide calls = %d", g.Calls())
	}
}

func TestFacadeHTTP(t *testing.T) {
	invocations := 0
	reg := axml.NewRegistry()
	reg.Register(restosService(&invocations))
	srv := httptest.NewServer(axml.NewHTTPServer(reg, false))
	defer srv.Close()

	client := &axml.HTTPClient{BaseURL: srv.URL}
	remote, err := client.RegistryFor()
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := axml.ParseDocument([]byte(hotelsDoc))
	q := axml.MustParseQuery(
		`/hotels/hotel[name="Best Western"]/nearby//restaurant[rating="*****"][name=$X] -> $X`)
	out, err := axml.Evaluate(doc, q, remote, axml.Options{
		Strategy: axml.LazyNFQ, Push: true, Clock: axml.NewWallClock(false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Stats.PushedCalls != 1 {
		t.Fatalf("outcome over HTTP: results=%d pushed=%d", len(out.Results), out.Stats.PushedCalls)
	}
}

func TestFacadeStrategyNames(t *testing.T) {
	names := []string{}
	for _, s := range []axml.Strategy{
		axml.NaiveFixpoint, axml.TopDownEager, axml.LazyLPQ, axml.LazyNFQ, axml.LazyNFQTyped,
	} {
		names = append(names, fmt.Sprint(s))
	}
	if strings.Join(names, ",") != "naive,eager,lazy-lpq,lazy-nfq,lazy-nfq-typed" {
		t.Fatalf("strategy names = %v", names)
	}
}

// TestFacadeConstructAndWatch turns query results into a new document.
// (Watching one is polling POST /query — doc/SERVER.md; the name is the
// one the test floor tracks.)
func TestFacadeConstructAndWatch(t *testing.T) {
	doc, _ := axml.ParseDocument([]byte(hotelsDoc))
	q := axml.MustParseQuery(
		`/hotels/hotel[name="Best Western"]/nearby//restaurant[rating="*****"][name=$X] -> $X`)
	invocations := 0
	reg := axml.NewRegistry()
	reg.Register(restosService(&invocations))
	out, err := axml.Evaluate(doc, q, reg, axml.Options{Strategy: axml.LazyNFQ})
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := axml.ParseTemplate(`<pick>{$X}</pick>`)
	if err != nil {
		t.Fatal(err)
	}
	built, err := axml.ConstructDocument("picks", tmpl, out.Results)
	if err != nil {
		t.Fatal(err)
	}
	if built.Root.Label != "picks" || len(built.Root.Children) != 1 ||
		built.Root.Children[0].Text() != "Good-addr-1" {
		t.Fatalf("constructed = %s", built.Root)
	}
}

// TestFacadeFaultTolerance drives the fault layer exactly as an importer
// would: a flaky injected registry, engine retries, and best effort with
// honest completeness (see doc/FAULTS.md).
func TestFacadeFaultTolerance(t *testing.T) {
	doc, _ := axml.ParseDocument([]byte(hotelsDoc))
	q, _ := axml.ParseQuery(
		`/hotels/hotel[name="Best Western"]/nearby//restaurant[rating="*****"][name=$X] -> $X`)
	invocations := 0
	reg := axml.NewRegistry()
	reg.Register(restosService(&invocations))

	// The first invocation of every service fails with a transient fault.
	inj := axml.NewFaults(axml.FaultSpec{Seed: 7, FailFirst: 1})
	flaky := inj.Wrap(reg)

	// Fail-fast without retries surfaces a classified fault.
	_, err := axml.Evaluate(doc.Clone(), q, flaky, axml.Options{Strategy: axml.LazyNFQ})
	if err == nil {
		t.Fatal("fail-fast run succeeded despite injected fault")
	}
	if axml.ClassOf(err) != axml.TransientFault {
		t.Fatalf("class = %v, want transient (err %v)", axml.ClassOf(err), err)
	}

	// Retries absorb the fault; best effort is not even needed.
	inj.Reset()
	out, err := axml.Evaluate(doc.Clone(), q, flaky, axml.Options{
		Strategy: axml.LazyNFQ,
		Retry:    axml.RetryPolicy{MaxAttempts: 3},
		Failure:  axml.BestEffort,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || len(out.Results) != 1 || len(out.Failures) != 0 {
		t.Fatalf("outcome: complete=%t results=%d failures=%d",
			out.Complete, len(out.Results), len(out.Failures))
	}
	if out.Stats.Retries == 0 {
		t.Fatal("no retries recorded")
	}

	// A permanently failing relevant call under best effort: recorded,
	// and completeness honestly degraded.
	inj2 := axml.NewFaults(axml.FaultSpec{Seed: 7, PermanentRate: 1})
	out, err = axml.Evaluate(doc.Clone(), q, inj2.Wrap(reg), axml.Options{
		Strategy: axml.LazyNFQ,
		Retry:    axml.RetryPolicy{MaxAttempts: 3},
		Failure:  axml.BestEffort,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Complete || len(out.Failures) != 1 {
		t.Fatalf("outcome: complete=%t failures=%+v", out.Complete, out.Failures)
	}
	if out.Failures[0].Service != "getNearbyRestos" || out.Failures[0].Attempts != 1 {
		t.Fatalf("failure record: %+v", out.Failures[0])
	}
}
