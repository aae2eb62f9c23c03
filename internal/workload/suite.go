package workload

import (
	"time"

	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
)

// Scenario is one named document with the queries clients run against
// it — a unit of the mixed serving workload Suite assembles.
type Scenario struct {
	// Name is the document name the serving layer registers.
	Name string
	// Doc is a fresh document instance; the caller owns it (the session
	// manager materialises it in place).
	Doc *tree.Document
	// Schema carries the scenario's service signatures; nil means the
	// scenario runs untyped.
	Schema *schema.Schema
	// Queries are the tree-pattern sources clients draw from. Every
	// query projects onto variables, so results compare across
	// evaluation modes by value.
	Queries []string
}

// Suite assembles the mixed multi-tenant serving workload: one shared
// registry and four scenario documents — the paper's running example
// (travel), its value-join variant (distributed), the introduction's
// city guide (nightlife) and the aggregation page of the activation
// discussion (newsfeed). One registry serves all four documents, the
// shape of a provider farm behind a query server: hotel services come
// from the spec (with tags enabled so the join workload qualifies),
// guide and feed services are pure deterministic handlers with the
// spec's latency.
//
// Everything is deterministic and every handler is pure, so any
// interleaving of queries over any number of sessions yields the same
// results as a serial run — the property the session layer's
// differential tests assert.
func Suite(spec HotelSpec) (*service.Registry, []Scenario) {
	if spec.TagJoinEvery == 0 {
		spec.TagJoinEvery = 2
	}
	w := Hotels(spec)
	reg := w.Registry
	registerGuideServices(reg, spec.Latency)
	registerFeedServices(reg, spec.Latency)

	scenarios := []Scenario{
		{
			Name:   "travel",
			Doc:    w.Doc,
			Schema: w.Schema,
			Queries: []string{
				`/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y`,
				`/hotels/hotel[name="Best Western"][rating="*****"]/nearby//*[rating="*****"][name=$X] -> $X`,
			},
		},
		{
			Name:   "distributed",
			Doc:    Hotels(spec).Doc,
			Schema: w.Schema,
			Queries: []string{
				`/hotels/hotel[name=$N][tag=$N][rating="*****"]/nearby//restaurant[rating="*****"][name=$X] -> $N, $X`,
				`/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y`,
			},
		},
		{
			Name:   "nightlife",
			Doc:    mustUnmarshal(nightlifeGuide),
			Schema: schema.MustParse(nightlifeSchema),
			Queries: []string{
				`/goingout/movies//show[title="The Hours"]/schedule/$T -> $T`,
				`/goingout/restaurants//restaurant[name=$N][address=$A] -> $N, $A`,
			},
		},
		{
			Name:   "newsfeed",
			Doc:    mustUnmarshal(newsfeedPage),
			Schema: schema.MustParse(newsfeedSchema),
			Queries: []string{
				`/page/weather/city[name="Paris"]/sky/$S -> $S`,
				`/page/headlines/item/$H -> $H`,
			},
		},
	}
	return reg, scenarios
}

// nightlifeGuide is the introduction's city guide (examples/nightlife):
// movies and restaurants, both partly intensional. The schedule query
// prunes every restaurant call by position and the review calls by
// signature.
const nightlifeGuide = `
<goingout>
  <movies>
    <theater>
      <name>Grand Rex</name>
      <axml:call service="getShows"><theater>Grand Rex</theater></axml:call>
      <axml:call service="getReviews"><theater>Grand Rex</theater></axml:call>
    </theater>
    <theater>
      <name>MK2</name>
      <axml:call service="getShows"><theater>MK2</theater></axml:call>
    </theater>
  </movies>
  <restaurants>
    <axml:call service="getRestaurants"><area>center</area></axml:call>
    <axml:call service="getRestaurants"><area>north</area></axml:call>
  </restaurants>
</goingout>`

const nightlifeSchema = `
functions:
  getShows       = [in: data, out: show*]
  getReviews     = [in: data, out: review*]
  getRestaurants = [in: data, out: restaurant*]
elements:
  show       = title.schedule
  review     = title.stars
  restaurant = name.address
  title      = data
  schedule   = data
  stars      = data
  name       = data
  address    = data
`

// newsfeedPage is a news aggregation page with every call left lazy.
// The handlers here are pure — an edition counter would make results
// depend on invocation counts, which a differential workload cannot
// tolerate.
const newsfeedPage = `
<page>
  <masthead><axml:call service="getMasthead"/></masthead>
  <headlines><axml:call service="getHeadlines"/></headlines>
  <archive><axml:call service="getArchive"/></archive>
  <weather>
    <city><name>Paris</name><axml:call service="getWeather">Paris</axml:call></city>
    <city><name>Oslo</name><axml:call service="getWeather">Oslo</axml:call></city>
  </weather>
</page>`

const newsfeedSchema = `
functions:
  getMasthead  = [in: data, out: item]
  getHeadlines = [in: data, out: item]
  getArchive   = [in: data, out: item]
  getWeather   = [in: data, out: sky]
elements:
  item = data
  sky  = data
`

// registerGuideServices adds the nightlife city-guide services.
func registerGuideServices(reg *service.Registry, latency time.Duration) {
	mkShow := func(title, at string) *tree.Node {
		s := tree.NewElement("show")
		s.Append(tree.NewElement("title")).Append(tree.NewText(title))
		s.Append(tree.NewElement("schedule")).Append(tree.NewText(at))
		return s
	}
	reg.Register(&service.Service{
		Name: "getShows", Latency: latency,
		Handler: func(params []*tree.Node) ([]*tree.Node, error) {
			if len(params) > 0 && params[0].Text() == "Grand Rex" {
				return []*tree.Node{mkShow("The Hours", "20:30"), mkShow("Solaris", "22:00")}, nil
			}
			return []*tree.Node{mkShow("The Hours", "18:00")}, nil
		},
	})
	reg.Register(&service.Service{
		Name: "getReviews", Latency: latency,
		Handler: func([]*tree.Node) ([]*tree.Node, error) {
			r := tree.NewElement("review")
			r.Append(tree.NewElement("title")).Append(tree.NewText("The Hours"))
			r.Append(tree.NewElement("stars")).Append(tree.NewText("4"))
			return []*tree.Node{r}, nil
		},
	})
	reg.Register(&service.Service{
		Name: "getRestaurants", Latency: latency,
		Handler: func(params []*tree.Node) ([]*tree.Node, error) {
			area := "center"
			if len(params) > 0 {
				area = params[0].Text()
			}
			r := tree.NewElement("restaurant")
			r.Append(tree.NewElement("name")).Append(tree.NewText("In Delis (" + area + ")"))
			r.Append(tree.NewElement("address")).Append(tree.NewText("2nd Ave."))
			return []*tree.Node{r}, nil
		},
	})
}

// registerFeedServices adds the newsfeed page services.
func registerFeedServices(reg *service.Registry, latency time.Duration) {
	item := func(v string) service.Handler {
		return func([]*tree.Node) ([]*tree.Node, error) {
			n := tree.NewElement("item")
			n.Append(tree.NewText(v))
			return []*tree.Node{n}, nil
		}
	}
	reg.Register(&service.Service{Name: "getMasthead", Latency: latency, Handler: item("The Daily AXML")})
	reg.Register(&service.Service{Name: "getHeadlines", Latency: latency, Handler: item("lazy evaluation pays off")})
	reg.Register(&service.Service{Name: "getArchive", Latency: latency, Handler: item("42 archived stories")})
	reg.Register(&service.Service{
		Name: "getWeather", Latency: latency,
		Handler: func(params []*tree.Node) ([]*tree.Node, error) {
			sky := tree.NewElement("sky")
			if len(params) > 0 && params[0].Text() == "Paris" {
				sky.Append(tree.NewText("sunny"))
			} else {
				sky.Append(tree.NewText("snow"))
			}
			return []*tree.Node{sky}, nil
		},
	})
}

// mustUnmarshal parses a scenario constant; failures are programming
// errors.
func mustUnmarshal(src string) *tree.Document {
	doc, err := tree.Unmarshal([]byte(src))
	if err != nil {
		panic(err)
	}
	return doc
}
