package pattern_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/tree"
)

// allocQuery targets the hotel region only; every archive section is
// statically irrelevant to it.
const allocQuery = `//hotel[name=$N][rating=$R] -> $N, $R`

// allocNodes is the document size (total tree nodes) of the allocation
// guard: large enough that descendant lists and join cross-products
// dominate what the seed evaluator allocates.
const allocNodes = 15000

// TestE13AllocationRegression is the allocation-regression guard `make
// microbench` runs: on a large document, the streaming evaluator must not
// allocate more than the retained seed evaluator (naive_test.go), and
// adding type-based projection must cut allocation volume at least 5x.
// All three modes must return the identical result sequence; only
// allocation moves. It lives in the external test package so it can
// import schema and still reach the test-only seed evaluator.
func TestE13AllocationRegression(t *testing.T) {
	sch, err := schema.Parse(allocSchema)
	if err != nil {
		t.Fatal(err)
	}
	q := pattern.MustParse(allocQuery)
	proj := schema.NewProjection(sch, q, schema.Exact)
	if proj.Trivial() {
		t.Fatal("projection is trivial, the guard would measure nothing")
	}
	doc := allocDoc(allocNodes)
	if err := sch.ValidateDocument(doc); err != nil {
		t.Fatalf("generator broke conformance: %v", err)
	}
	modes := []struct {
		name string
		eval func() ([]pattern.Result, pattern.Stats)
	}{
		{"seed", func() ([]pattern.Result, pattern.Stats) { return pattern.EvalNaive(doc, q) }},
		{"stream", func() ([]pattern.Result, pattern.Stats) { return pattern.Eval(doc, q) }},
		{"stream+proj", func() ([]pattern.Result, pattern.Stats) { return pattern.EvalProjected(doc, q, proj) }},
	}
	type profile struct{ bytesPerOp, allocsPerOp uint64 }
	got := map[string]profile{}
	var seedKeys string
	for _, m := range modes {
		rs, _ := m.eval() // warm-up, and the run the checks use
		keys := ""
		for _, r := range rs {
			keys += r.Key() + "|"
		}
		if len(rs) == 0 {
			t.Fatalf("%s: empty result set", m.name)
		}
		if m.name == "seed" {
			seedKeys = keys
		} else if keys != seedKeys {
			t.Fatalf("%s diverges from the seed evaluator", m.name)
		}
		const iters = 3
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			m.eval()
		}
		runtime.ReadMemStats(&after)
		got[m.name] = profile{
			bytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / iters,
			allocsPerOp: (after.Mallocs - before.Mallocs) / iters,
		}
	}
	seed, stream, projected := got["seed"], got["stream"], got["stream+proj"]
	t.Logf("%d nodes: seed %d B/op %d allocs/op, stream %d B/op %d allocs/op, stream+proj %d B/op %d allocs/op",
		allocNodes, seed.bytesPerOp, seed.allocsPerOp, stream.bytesPerOp, stream.allocsPerOp,
		projected.bytesPerOp, projected.allocsPerOp)
	if stream.allocsPerOp > seed.allocsPerOp {
		t.Fatalf("streaming evaluator allocates more than the seed evaluator: %d vs %d allocs/op",
			stream.allocsPerOp, seed.allocsPerOp)
	}
	if projected.bytesPerOp*5 > seed.bytesPerOp {
		t.Fatalf("projection reduction below the 5x floor: seed %d B/op, projected %d B/op",
			seed.bytesPerOp, projected.bytesPerOp)
	}
}

// allocSchema declares the synthetic site family: hotel sections next to
// archive sections whose content models provably cannot produce a hotel.
const allocSchema = `
functions:
  getInfo = [in: data, out: info*]
elements:
  site = section*
  section = hotels|archive
  hotels = hotel*
  archive = entry*
  entry = info*
  info = data
  hotel = name.rating.nearby?
  name = data
  rating = data
  nearby = restaurant*
  restaurant = name.rating
`

// allocDoc grows a conforming document of roughly target tree nodes:
// about a tenth of them in one hotels section the query matches, the
// rest in archive sections projection can skip. Deterministic, so every
// mode and iteration sees the same tree.
func allocDoc(target int) *tree.Document {
	const hotelNodes = 16 // hotel + name/rating text pairs + nearby with 2 restaurants
	const entryNodes = 7  // entry + 3 info/text pairs
	hotels := target / 10 / hotelNodes
	if hotels < 1 {
		hotels = 1
	}
	entries := (target - hotels*hotelNodes) / entryNodes
	site := tree.NewElement("site")
	hs := site.Append(tree.NewElement("section")).Append(tree.NewElement("hotels"))
	ratings := []string{"*", "**", "***", "****", "*****"}
	for i := 0; i < hotels; i++ {
		h := hs.Append(tree.NewElement("hotel"))
		h.Append(tree.NewElement("name")).Append(tree.NewText(fmt.Sprintf("hotel-%d", i)))
		h.Append(tree.NewElement("rating")).Append(tree.NewText(ratings[i%len(ratings)]))
		nearby := h.Append(tree.NewElement("nearby"))
		for r := 0; r < 2; r++ {
			resto := nearby.Append(tree.NewElement("restaurant"))
			resto.Append(tree.NewElement("name")).Append(tree.NewText(fmt.Sprintf("resto-%d-%d", i, r)))
			resto.Append(tree.NewElement("rating")).Append(tree.NewText(ratings[(i+r)%len(ratings)]))
		}
	}
	// Archive sections of bounded width keep the tree bushy rather than
	// one enormous flat child list.
	const perSection = 200
	var archive *tree.Node
	for e := 0; e < entries; e++ {
		if e%perSection == 0 {
			archive = site.Append(tree.NewElement("section")).Append(tree.NewElement("archive"))
		}
		entry := archive.Append(tree.NewElement("entry"))
		for j := 0; j < 3; j++ {
			entry.Append(tree.NewElement("info")).Append(tree.NewText(fmt.Sprintf("info-%d-%d", e, j)))
		}
	}
	return tree.NewDocument(site)
}
