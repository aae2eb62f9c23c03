package core

import (
	"reflect"
	"testing"

	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/telemetry/spantest"
	"github.com/activexml/axml/internal/workload"
)

// TestIncrementalCutsPerRoundWork is the acceptance guard for the
// incremental evaluator: on a mid-sized world (the cut grows with
// document size), keeping the match memo alive across rounds must cut
// the per-round NodesVisited at least 3× while leaving the invoked call
// sequence and the results untouched. Under an F-guide a round's match
// work must not grow with the document at all: at 20 and at 200 hotels
// it stays within 2× — a round costs O(change), not O(document).
func TestIncrementalCutsPerRoundWork(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 50
	spec.HiddenHotels = 10
	w := workload.Hotels(spec)

	scratch, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: LazyNFQ})
	if err != nil {
		t.Fatal(err)
	}
	incr, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: LazyNFQ, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := resultKeys(incr), resultKeys(scratch); got != want {
		t.Fatalf("incremental results diverge\n got %q\nwant %q", got, want)
	}
	if incr.Stats.CallsInvoked != scratch.Stats.CallsInvoked {
		t.Fatalf("incremental changed the invoked set: %d vs %d calls",
			incr.Stats.CallsInvoked, scratch.Stats.CallsInvoked)
	}
	if incr.Stats.Rounds != scratch.Stats.Rounds {
		t.Fatalf("incremental changed the round count: %d vs %d",
			incr.Stats.Rounds, scratch.Stats.Rounds)
	}
	if incr.Stats.MemoHits == 0 {
		t.Fatal("incremental evaluation recorded no memo hits")
	}
	perRound := func(s Stats) float64 {
		rounds := s.Rounds
		if rounds == 0 {
			rounds = 1
		}
		return float64(s.NodesVisited) / float64(rounds)
	}
	if ratio := perRound(scratch.Stats) / perRound(incr.Stats); ratio < 3 {
		t.Fatalf("incremental cut per-round match work only %.1fx (scratch %.0f/round, incremental %.0f/round), want ≥3x",
			ratio, perRound(scratch.Stats), perRound(incr.Stats))
	}

	flat := map[int]float64{}
	for _, hotels := range []int{20, 200} {
		spec := workload.DefaultSpec()
		spec.Hotels = hotels
		spec.HiddenHotels = hotels / 5
		out := run(t, workload.Hotels(spec), Options{Strategy: LazyNFQ, UseGuide: true, Incremental: true})
		flat[hotels] = perRound(out.Stats)
		t.Logf("guide+incremental at %d hotels: %.0f nodes visited/round over %d rounds", hotels, flat[hotels], out.Stats.Rounds)
	}
	if lo, hi := flat[20], flat[200]; hi > 2*lo || lo > 2*hi {
		t.Fatalf("guide+incremental per-round match work grows with the document: %.0f/round at 20 hotels, %.0f/round at 200",
			lo, hi)
	}
}

// invokedSequence lists the document paths of a run's invocations in
// invocation order.
func invokedSequence(spans []telemetry.Span) []string {
	var seq []string
	for _, s := range spansNamed(spans, "invoke") {
		seq = append(seq, s.Attr("path"))
	}
	return seq
}

// TestIncrementalPreservesSequence: persistent evaluators move match
// work, never outcomes — results and the invoked-call sequence are
// identical to a fresh evaluator per detection, with or without an
// F-guide, layering and the response cache; uncached (a cache hit costs
// no virtual time), so are the whole span stream and every Stats field
// but the work counters.
func TestIncrementalPreservesSequence(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	for _, guide := range []bool{false, true} {
		for _, layering := range []bool{false, true} {
			opt := Options{Strategy: LazyNFQ, UseGuide: guide, Layering: layering}
			base, baseSpans, err := tracedEvaluate(t, w.Doc.Clone(), w.Query, w.Registry, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Incremental = true
			cached := service.NewCache(service.CacheSpec{}).Wrap(w.Registry)
			for _, reg := range []*service.Registry{w.Registry, cached} {
				out, spans, err := tracedEvaluate(t, w.Doc.Clone(), w.Query, reg, opt)
				if err != nil {
					t.Fatalf("guide=%v layering=%v: %v", guide, layering, err)
				}
				if got, want := resultKeys(out), resultKeys(base); got != want {
					t.Fatalf("guide=%v layering=%v: results diverge\n got %q\nwant %q", guide, layering, got, want)
				}
				if got, want := invokedSequence(spans), invokedSequence(baseSpans); !reflect.DeepEqual(got, want) {
					t.Fatalf("guide=%v layering=%v: invoked sequence diverges\n got %q\nwant %q", guide, layering, got, want)
				}
				if reg == cached {
					continue
				}
				if !reflect.DeepEqual(spantest.Normalize(spans, false), spantest.Normalize(baseSpans, false)) {
					t.Fatalf("guide=%v layering=%v: span stream diverges from the fresh-evaluator run", guide, layering)
				}
				st, want := normalizedStats(out), normalizedStats(base)
				if st.GuideCandidates > want.GuideCandidates {
					t.Fatalf("guide=%v layering=%v: kept evaluators validated %d candidates, fresh ones %d",
						guide, layering, st.GuideCandidates, want.GuideCandidates)
				}
				st.NodesVisited, st.MemoHits, st.SubtreesPruned = want.NodesVisited, want.MemoHits, want.SubtreesPruned
				st.GuideCandidates, st.Revalidated = want.GuideCandidates, want.Revalidated
				if st != want {
					t.Fatalf("guide=%v layering=%v: stats beyond the work counters moved\n got %+v\nwant %+v",
						guide, layering, st, want)
				}
			}
		}
	}
}

// TestIncrementalReachesTheGuideArm: under an F-guide the persistent
// evaluator must carry candidate validation from round to round — memo
// hits are recorded, no more matches are computed than with a fresh
// evaluator per detection, and fewer candidates are validated.
func TestIncrementalReachesTheGuideArm(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 100
	w := workload.Hotels(spec)
	fresh := run(t, w, Options{Strategy: LazyNFQ, UseGuide: true})
	kept := run(t, w, Options{Strategy: LazyNFQ, UseGuide: true, Incremental: true})
	if kept.Stats.CallsInvoked != fresh.Stats.CallsInvoked {
		t.Fatalf("incremental changed guided detection: %d calls, want %d", kept.Stats.CallsInvoked, fresh.Stats.CallsInvoked)
	}
	if kept.Stats.GuideCandidates >= fresh.Stats.GuideCandidates {
		t.Fatalf("UseGuide+Incremental validated %d candidates, not fewer than the %d of UseGuide alone",
			kept.Stats.GuideCandidates, fresh.Stats.GuideCandidates)
	}
	if kept.Stats.MemoHits == 0 {
		t.Fatal("UseGuide+Incremental recorded no memo hits: candidate validation forgets between rounds")
	}
	if kept.Stats.NodesVisited > fresh.Stats.NodesVisited {
		t.Fatalf("UseGuide+Incremental visited %d nodes, more than the %d of UseGuide alone",
			kept.Stats.NodesVisited, fresh.Stats.NodesVisited)
	}
}

// TestGuidedDetectionIsAMaintainedView: with the full lazy stack, guided
// detection validates a candidate when it enters the index and again only
// when a splice touches what its verdict hangs on — a small multiple of
// the calls ever present in the document, not rounds × candidates.
func TestGuidedDetectionIsAMaintainedView(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 100
	w := workload.Hotels(spec)
	doc := w.Doc.Clone()
	out, err := Evaluate(doc, w.Query, w.Registry, Options{Strategy: LazyNFQTyped, Schema: w.Schema,
		Layering: true, Parallel: true, UseGuide: true, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every call ever present was invoked or is still pending.
	present := out.Stats.CallsInvoked + len(doc.Calls())
	if out.Stats.GuideCandidates >= 3*present {
		t.Fatalf("validated %d candidates for %d calls ever present (%d rounds): detection re-validates what no splice touched",
			out.Stats.GuideCandidates, present, out.Stats.Rounds)
	}
	if out.Stats.Revalidated == 0 || out.Stats.Revalidated >= out.Stats.GuideCandidates {
		t.Fatalf("revalidated %d of %d validated candidates, want some but not all", out.Stats.Revalidated, out.Stats.GuideCandidates)
	}
}

// TestIncrementalResetOnRebuild: layering rebuilds the member queries as
// calls resolve (and typed analysis bumps name versions); the persistent
// evaluators must follow the rebuilt queries rather than serve matches
// for stale query nodes.
func TestIncrementalResetOnRebuild(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.RatingChainDepth = 2
	spec.IntensionalRatingEvery = 2
	w := workload.Hotels(spec)

	base, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: LazyNFQ, Layering: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{
		Strategy: LazyNFQ, Layering: true, Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultKeys(out), resultKeys(base); got != want {
		t.Fatalf("incremental under layering diverges\n got %q\nwant %q", got, want)
	}
}
