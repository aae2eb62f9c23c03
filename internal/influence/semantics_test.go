package influence

import (
	"testing"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// TestMayInfluenceIsSemanticallySound validates Proposition 3's analysis
// against actual engine behaviour: whenever the analysis says NFQ i may
// NOT influence NFQ j, invoking a call retrieved by i must never add a
// new call to j's retrieved set. The test exercises every
// (retrieved-call, NFQ) pair of several worlds.
func TestMayInfluenceIsSemanticallySound(t *testing.T) {
	specs := []workload.HotelSpec{
		workload.DefaultSpec(),
		func() workload.HotelSpec {
			s := workload.DefaultSpec()
			s.Hotels = 8
			s.RatingChainDepth = 2
			s.TeaserKinds = 2
			return s
		}(),
	}
	for _, spec := range specs {
		spec.Hotels = min(spec.Hotels, 8)
		spec.HiddenHotels = 3
		w := workload.Hotels(spec)
		nfqs, err := rewrite.BuildAll(w.Query, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		analysis := New(nfqs)

		retrievedSet := func(doc *tree.Document, k int) map[uint64]string {
			out := map[uint64]string{}
			for _, c := range pattern.MatchedCalls(doc, nfqs[k].Query, nfqs[k].Out) {
				out[c.ID] = c.Label
			}
			return out
		}

		for i := range nfqs {
			// Fresh document per source NFQ; node IDs are deterministic
			// across clones (same construction order).
			doc := w.Doc.Clone()
			srcCalls := pattern.MatchedCalls(doc, nfqs[i].Query, nfqs[i].Out)
			if len(srcCalls) == 0 {
				continue
			}
			call := srcCalls[0]
			invokedID := call.ID
			before := make([]map[uint64]string, len(nfqs))
			for j := range nfqs {
				if !analysis.may[i][j] {
					before[j] = retrievedSet(doc, j)
				}
			}
			resp, err := w.Registry.Invoke(call.Label, tree.CloneForest(call.Children), nil)
			if err != nil {
				t.Fatal(err)
			}
			doc.ReplaceCall(call, resp.Forest)
			for j := range nfqs {
				if analysis.may[i][j] {
					continue
				}
				after := retrievedSet(doc, j)
				for id, label := range after {
					if id == invokedID {
						continue
					}
					if _, ok := before[j][id]; !ok {
						t.Errorf("spec(%d hotels): ¬MayInfluence(%s → %s) but invoking %s added call %s (node %d) to the target set",
							spec.Hotels, nfqs[i], nfqs[j], call.Label, label, id)
					}
				}
			}
		}
	}
}
