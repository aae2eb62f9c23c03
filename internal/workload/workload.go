// Package workload generates the synthetic documents, service back-ends
// and schemas used to reproduce the experiments of "Lazy Query Evaluation
// for Active XML" (SIGMOD 2004). The scenario is the paper's running
// example — a hotels directory with extensional and intensional parts —
// parameterised so each experiment can scale the dimension it studies:
// document size, share of irrelevant calls, call latency, result
// selectivity, nesting depth of calls-in-results, and the number of
// service kinds.
//
// Everything is deterministic: hotel i is fully determined by its index,
// and service handlers are pure functions of their parameters, so results
// are reproducible and handlers are safe for concurrent invocation.
package workload

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
)

// TargetName is the hotel name the default query filters on.
const TargetName = "Best Western"

// FiveStars is the rating value the default query filters on.
const FiveStars = "*****"

// HotelSpec parameterises the hotels world. Zero values give a tiny but
// complete world; DefaultSpec gives the baseline used by the experiments.
type HotelSpec struct {
	// Hotels is the number of extensional hotels in the document.
	Hotels int
	// HiddenHotels is the number of additional hotels returned by a
	// root-level getHotels call (0 omits the call).
	HiddenHotels int
	// TargetEvery makes every k-th hotel carry TargetName (others get a
	// unique name). 0 disables target names entirely.
	TargetEvery int
	// FiveStarEvery makes every k-th hotel five-star. Others get "***".
	FiveStarEvery int
	// IntensionalRatingEvery makes every k-th hotel's rating a getRating
	// call instead of a data value. 0 keeps all ratings extensional.
	IntensionalRatingEvery int
	// RatingChainDepth makes each getRating call resolve through a chain
	// of that many further getRating calls before producing the value —
	// the calls-returning-calls nesting the layering experiment sweeps.
	RatingChainDepth int
	// RestosPerCall is the number of restaurants a getNearbyRestos call
	// returns; FiveStarRestos of them are five-star (the push
	// selectivity knob). 0 restaurants omits the call.
	RestosPerCall  int
	FiveStarRestos int
	// MaterializedRestos adds that many extensional (non-matching)
	// restaurants to each hotel's nearby zone — pure document bulk for
	// the F-guide experiment.
	MaterializedRestos int
	// MuseumsPerCall is the number of museums a getNearbyMuseums call
	// returns. 0 omits the call. Museums are never query-relevant; they
	// are the irrelevant-call population the lazy strategies must avoid.
	MuseumsPerCall int
	// TeaserKinds adds one getTeaser<i> call (i cycling over the kinds)
	// to each hotel's nearby zone. Teasers have an exclusive-choice
	// content model (name|rating): exact type analysis proves they can
	// never satisfy a [name][rating] pattern, lenient analysis cannot —
	// the exact-vs-lenient divergence of Section 6.1.
	TeaserKinds int
	// TagJoinEvery adds a tag element to every hotel, equal to the
	// hotel's name on every k-th hotel — the value-join workload for the
	// relaxed-NFQ experiment. 0 omits tags.
	TagJoinEvery int
	// ExtrasPerCall gives every hotel an extras zone holding a getExtras
	// call returning that many extra elements. The query never touches
	// extras, so even pure position analysis (LPQs) prunes these calls —
	// the paper's "/goingout/restaurants" observation. 0 omits them.
	ExtrasPerCall int
	// Latency is the simulated per-call round-trip.
	Latency time.Duration
	// ServiceLatency overrides Latency per service name, modelling a
	// heterogeneous federation (one slow partner among fast ones) for
	// scheduling experiments. Services absent from the map keep Latency.
	ServiceLatency map[string]time.Duration
	// PushCapable marks the services with extensional results (nearby
	// restaurants, museums, extras, teasers, and ratings when unchained)
	// as able to evaluate pushed queries. getHotels results always embed
	// calls and are never push targets.
	PushCapable bool
}

// DefaultSpec is the baseline world: a quarter of the hotels match the
// target name, half of those are five-star, ratings are part intensional,
// and every hotel drags along an irrelevant museums call.
func DefaultSpec() HotelSpec {
	return HotelSpec{
		Hotels:                 40,
		HiddenHotels:           8,
		TargetEvery:            4,
		FiveStarEvery:          2,
		IntensionalRatingEvery: 3,
		RestosPerCall:          5,
		FiveStarRestos:         2,
		MuseumsPerCall:         5,
		ExtrasPerCall:          5,
		Latency:                10 * time.Millisecond,
	}
}

// World bundles everything an experiment run needs.
type World struct {
	// Doc is the generated AXML document.
	Doc *tree.Document
	// Registry serves the world's Web services.
	Registry *service.Registry
	// Schema declares the signatures and content models (Figure 2 style).
	Schema *schema.Schema
	// Query is the default Figure-4-style query.
	Query *pattern.Pattern
	// JoinQuery filters hotels through a name=tag value join; only set
	// when the spec enables tags.
	JoinQuery *pattern.Pattern
	// StarQuery matches any five-star venue (restaurant or otherwise)
	// with a name — the query the teaser experiment uses.
	StarQuery *pattern.Pattern
	// ExpectedResults is the ground-truth result count of Query on the
	// fully materialised document.
	ExpectedResults int
	// Spec echoes the generating parameters.
	Spec HotelSpec
}

// Hotels builds the world for a spec.
func Hotels(spec HotelSpec) *World {
	w := &World{Spec: spec}
	w.Schema = buildSchema(spec)
	w.Registry = buildRegistry(spec)
	w.Doc = buildDoc(spec)
	w.Query = pattern.MustParse(
		`/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y`)
	if spec.TagJoinEvery > 0 {
		w.JoinQuery = pattern.MustParse(
			`/hotels/hotel[name=$N][tag=$N][rating="*****"]/nearby//restaurant[rating="*****"][name=$X] -> $N, $X`)
	}
	w.StarQuery = pattern.MustParse(
		`/hotels/hotel[name="Best Western"][rating="*****"]/nearby//*[rating="*****"][name=$X] -> $X`)
	w.ExpectedResults = expectedResults(spec)
	return w
}

// Deterministic per-hotel attributes.

func hotelName(spec HotelSpec, i int) string {
	if spec.TargetEvery > 0 && i%spec.TargetEvery == 0 {
		return TargetName
	}
	return fmt.Sprintf("Hotel-%d", i)
}

func hotelRating(spec HotelSpec, i int) string {
	if spec.FiveStarEvery > 0 && i%spec.FiveStarEvery == 0 {
		return FiveStars
	}
	return "***"
}

func hotelAddress(i int) string { return "addr-" + strconv.Itoa(i) }

func intensionalRating(spec HotelSpec, i int) bool {
	return spec.IntensionalRatingEvery > 0 && i%spec.IntensionalRatingEvery == 0
}

func qualifies(spec HotelSpec, i int) bool {
	return hotelName(spec, i) == TargetName && hotelRating(spec, i) == FiveStars
}

func expectedResults(spec HotelSpec) int {
	total := 0
	for i := 0; i < spec.Hotels+spec.HiddenHotels; i++ {
		if qualifies(spec, i) {
			total += spec.FiveStarRestos
		}
	}
	return total
}

// buildDoc constructs the extensional document: spec.Hotels hotels plus
// the optional root getHotels call.
func buildDoc(spec HotelSpec) *tree.Document {
	root := tree.NewElement("hotels")
	for i := 0; i < spec.Hotels; i++ {
		root.Append(hotelTree(spec, i))
	}
	if spec.HiddenHotels > 0 {
		root.Append(tree.NewCall("getHotels", tree.NewText("all")))
	}
	return tree.NewDocument(root)
}

// hotelTree builds hotel i with its intensional parts.
func hotelTree(spec HotelSpec, i int) *tree.Node {
	h := tree.NewElement("hotel")
	h.Append(tree.NewLeaf("name", hotelName(spec, i)))
	if spec.TagJoinEvery > 0 {
		tag := hotelName(spec, i)
		if i%spec.TagJoinEvery != 0 {
			tag = fmt.Sprintf("tag-%d", i)
		}
		h.Append(tree.NewLeaf("tag", tag))
	}
	h.Append(tree.NewLeaf("address", hotelAddress(i)))
	rating := h.Append(tree.NewElement("rating"))
	if intensionalRating(spec, i) {
		rating.Append(tree.NewCall("getRating", tree.NewText(ratingParam(spec.RatingChainDepth, hotelRating(spec, i)))))
	} else {
		rating.Append(tree.NewText(hotelRating(spec, i)))
	}
	nearby := h.Append(tree.NewElement("nearby"))
	for j := 0; j < spec.MaterializedRestos; j++ {
		nearby.Append(restaurantTree(fmt.Sprintf("Bulk-%d-%d", i, j), hotelAddress(i), "***"))
	}
	if spec.RestosPerCall > 0 {
		nearby.Append(tree.NewCall("getNearbyRestos", tree.NewText(hotelAddress(i))))
	}
	if spec.MuseumsPerCall > 0 {
		nearby.Append(tree.NewCall("getNearbyMuseums", tree.NewText(hotelAddress(i))))
	}
	if spec.TeaserKinds > 0 {
		kind := i % spec.TeaserKinds
		nearby.Append(tree.NewCall(teaserService(kind), tree.NewText(hotelAddress(i))))
	}
	if spec.ExtrasPerCall > 0 {
		extras := h.Append(tree.NewElement("extras"))
		extras.Append(tree.NewCall("getExtras", tree.NewText(hotelAddress(i))))
	}
	return h
}

func restaurantTree(name, addr, rating string) *tree.Node {
	r := &tree.Node{Kind: tree.Element, Label: "restaurant", Children: make([]*tree.Node, 0, 3)}
	r.Append(tree.NewLeaf("name", name))
	r.Append(tree.NewLeaf("address", addr))
	r.Append(tree.NewLeaf("rating", rating))
	return r
}

func teaserService(kind int) string { return fmt.Sprintf("getTeaser%d", kind) }

// ratingParam encodes a getRating chain: "depth|value". A call with depth
// d > 0 returns a call with depth d-1; depth 0 returns the value.
func ratingParam(depth int, value string) string {
	return strconv.Itoa(depth) + "|" + value
}

func parseRatingParam(s string) (int, string) {
	d, v, ok := strings.Cut(s, "|")
	if !ok {
		return 0, s
	}
	depth, err := strconv.Atoi(d)
	if err != nil {
		return 0, v
	}
	return depth, v
}

// paramText extracts the single text parameter of a call.
func paramText(params []*tree.Node) string {
	if len(params) == 1 {
		return params[0].Text()
	}
	var sb strings.Builder
	for _, p := range params {
		sb.WriteString(p.Text())
	}
	return sb.String()
}

// addrIndex recovers the hotel index from an "addr-i" parameter.
func addrIndex(addr string) int {
	s, ok := strings.CutPrefix(addr, "addr-")
	if !ok {
		return 0
	}
	i, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return i
}

func buildRegistry(spec HotelSpec) *service.Registry {
	reg := service.NewRegistry()
	latencyFor := func(name string) time.Duration {
		if l, ok := spec.ServiceLatency[name]; ok {
			return l
		}
		return spec.Latency
	}
	// addExt registers a service with extensional results (eligible for
	// query pushing); add registers one whose results embed calls.
	addExt := func(name string, h service.Handler) {
		reg.Register(&service.Service{
			Name:    name,
			Latency: latencyFor(name),
			CanPush: spec.PushCapable,
			Handler: h,
		})
	}
	add := func(name string, h service.Handler) {
		reg.Register(&service.Service{Name: name, Latency: latencyFor(name), Handler: h})
	}

	addRating := add
	if spec.RatingChainDepth == 0 {
		addRating = addExt
	}
	addRating("getRating", func(params []*tree.Node) ([]*tree.Node, error) {
		depth, value := parseRatingParam(paramText(params))
		if depth > 0 {
			return []*tree.Node{
				tree.NewCall("getRating", tree.NewText(ratingParam(depth-1, value))),
			}, nil
		}
		return []*tree.Node{tree.NewText(value)}, nil
	})

	addExt("getNearbyRestos", func(params []*tree.Node) ([]*tree.Node, error) {
		i := addrIndex(paramText(params))
		addr, prefix := hotelAddress(i), "Resto-"+strconv.Itoa(i)+"-"
		out := make([]*tree.Node, spec.RestosPerCall)
		for j := range out {
			rating := "***"
			if j < spec.FiveStarRestos {
				rating = FiveStars
			}
			out[j] = restaurantTree(prefix+strconv.Itoa(j), addr, rating)
		}
		return out, nil
	})

	addExt("getNearbyMuseums", func(params []*tree.Node) ([]*tree.Node, error) {
		i := addrIndex(paramText(params))
		out := make([]*tree.Node, 0, spec.MuseumsPerCall)
		for j := 0; j < spec.MuseumsPerCall; j++ {
			m := tree.NewElement("museum")
			m.Append(tree.NewLeaf("name", fmt.Sprintf("Museum-%d-%d", i, j)))
			m.Append(tree.NewLeaf("address", hotelAddress(i)))
			out = append(out, m)
		}
		return out, nil
	})

	if spec.HiddenHotels > 0 {
		add("getHotels", func(params []*tree.Node) ([]*tree.Node, error) {
			out := make([]*tree.Node, 0, spec.HiddenHotels)
			for i := spec.Hotels; i < spec.Hotels+spec.HiddenHotels; i++ {
				out = append(out, hotelTree(spec, i))
			}
			return out, nil
		})
	}

	if spec.ExtrasPerCall > 0 {
		addExt("getExtras", func(params []*tree.Node) ([]*tree.Node, error) {
			i := addrIndex(paramText(params))
			out := make([]*tree.Node, 0, spec.ExtrasPerCall)
			for j := 0; j < spec.ExtrasPerCall; j++ {
				x := tree.NewElement("extra")
				x.Append(tree.NewText(fmt.Sprintf("extra-%d-%d", i, j)))
				out = append(out, x)
			}
			return out, nil
		})
	}

	for k := 0; k < spec.TeaserKinds; k++ {
		addExt(teaserService(k), func(params []*tree.Node) ([]*tree.Node, error) {
			// A teaser carries a name or a rating, never both: it can
			// never satisfy a [name][rating] pattern.
			tz := tree.NewElement("teaser")
			tz.Append(tree.NewLeaf("name", "Teaser"))
			return []*tree.Node{tz}, nil
		})
	}
	return reg
}

func buildSchema(spec HotelSpec) *schema.Schema {
	var sb strings.Builder
	sb.WriteString(`functions:
  getHotels        = [in: data, out: hotel*]
  getRating        = [in: data, out: data|getRating]
  getNearbyRestos  = [in: data, out: restaurant*]
  getNearbyMuseums = [in: data, out: museum*]
  getExtras        = [in: data, out: extra*]
`)
	for k := 0; k < spec.TeaserKinds; k++ {
		fmt.Fprintf(&sb, "  %s = [in: data, out: teaser]\n", teaserService(k))
	}
	sb.WriteString(`elements:
  hotels     = (hotel|getHotels)*
  hotel      = name.tag?.address.rating.nearby.extras?
  nearby     = (restaurant|getNearbyRestos|museum|getNearbyMuseums`)
	for k := 0; k < spec.TeaserKinds; k++ {
		sb.WriteString("|" + teaserService(k))
	}
	sb.WriteString("|teaser)*\n")
	sb.WriteString(`  restaurant = name.address.rating
  extras     = (extra|getExtras)*
  extra      = data
  museum     = name.address
  teaser     = name|rating
  name       = data
  tag        = data
  address    = data
  rating     = data|getRating
`)
	s := schema.MustParse(sb.String())
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// TotalCalls returns the number of calls the naive strategy will invoke
// for the spec: every call in the document plus every call nested in the
// results, recursively. It is the denominator of the pruning-ratio
// metric.
func TotalCalls(spec HotelSpec) int {
	total := 0
	perHotel := func(i int) int {
		n := 0
		if intensionalRating(spec, i) {
			n += 1 + spec.RatingChainDepth
		}
		if spec.RestosPerCall > 0 {
			n++
		}
		if spec.MuseumsPerCall > 0 {
			n++
		}
		if spec.TeaserKinds > 0 {
			n++
		}
		if spec.ExtrasPerCall > 0 {
			n++
		}
		return n
	}
	for i := 0; i < spec.Hotels+spec.HiddenHotels; i++ {
		total += perHotel(i)
	}
	if spec.HiddenHotels > 0 {
		total++ // the getHotels call itself
	}
	return total
}
