package core

import (
	"testing"

	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/workload"
)

// TestIncrementalCutsPerRoundWork is the acceptance guard for the
// incremental evaluator: on a mid-sized world (the trend grows with
// document size — see E10, which reaches >100× at 1000 hotels), keeping
// the match memo alive across rounds must cut the per-round NodesVisited
// at least 3× while leaving the invoked call sequence and the results
// untouched.
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
}

// TestIncrementalPreservesSequence: persistent evaluator shards move
// match work, never outcomes — results and invoked calls are identical
// to from-scratch evaluation, with or without layering and the response
// cache.
func TestIncrementalPreservesSequence(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	base, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: LazyNFQ})
	if err != nil {
		t.Fatal(err)
	}
	want := resultKeys(base)

	for _, layering := range []bool{false, true} {
		cached := service.NewCache(service.CacheSpec{}).Wrap(w.Registry)
		for _, reg := range []*service.Registry{w.Registry, cached} {
			out, err := Evaluate(w.Doc.Clone(), w.Query, reg, Options{
				Strategy: LazyNFQ, Incremental: true, Layering: layering,
			})
			if err != nil {
				t.Fatalf("layering=%v: %v", layering, err)
			}
			if got := resultKeys(out); got != want {
				t.Fatalf("layering=%v: results diverge\n got %q\nwant %q", layering, got, want)
			}
			if out.Stats.CallsInvoked != base.Stats.CallsInvoked {
				t.Fatalf("layering=%v: %d calls, want %d",
					layering, out.Stats.CallsInvoked, base.Stats.CallsInvoked)
			}
		}
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
