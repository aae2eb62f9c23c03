package core

import (
	"sync"
	"time"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// Shared is what the evaluations of one document that run at once share:
// the document's lock and the table of the calls they are invoking.
//
// A run holds the lock for reading while it detects, plans and evaluates its
// result, holds nothing while it invokes, and holds it for writing only
// while it applies responses: it catches up on the splices other runs made
// since it last held the lock, splices, and patches the guide it adopted.
// Splices by other runs thus land between two of its rounds, and Definition
// 3 makes the document they leave a valid rewriting for every query. A run
// ends only when, within one read hold, no layer's detection finds a call;
// its result is evaluated in that hold and Outcome.Version is the hold's
// version.
//
// A call is claimed by the run whose detection picked it, from that read
// hold until its response is spliced or given up on. Another run that
// detects a claimed call waits for the claim holding nothing, then detects
// again: it reads the splice, it never invokes the call a second time. Only
// its claimant splices a claimed call, so a call stays in the document from
// its detection to its claimant's apply.
//
// The zero Shared is ready to use. Its lock is the document's: anything but
// a run that changes the document holds it for writing, anything that reads
// the document while runs may splice it holds it for reading. An evaluation
// handed no Shared (Prepared.Over, Evaluate) makes one of its own, which
// nobody else takes: it goes through the same holds and claims.
type Shared struct {
	sync.RWMutex
	// Waits, when set, times every wait of a run for a hold or a claim.
	Waits *telemetry.Histogram

	mu     sync.Mutex                   // guards claims
	claims map[*tree.Node]chan struct{} // closed when the claim is released
}

// hold is what of its document's lock a run holds.
type hold uint8

const (
	holdNone hold = iota
	holdRead
	holdExcl
)

// hold moves the run to holding h, letting go of what it held first. A
// hold taken once the run has learnt the document catches up on the splices
// other runs made while it held nothing.
func (e *engine) hold(h hold) {
	if e.held == h {
		return
	}
	switch e.held {
	case holdRead:
		e.sh.RUnlock()
	case holdExcl:
		e.sh.Unlock()
	}
	e.held = holdNone
	if h == holdNone {
		return
	}
	var t0 time.Time
	if e.sh.Waits != nil {
		t0 = time.Now()
	}
	if h == holdRead {
		e.sh.RLock()
	} else {
		e.sh.Lock()
	}
	if e.sh.Waits != nil {
		e.sh.Waits.Observe(time.Since(t0))
	}
	e.held = h
	if e.started {
		e.catchUp()
	}
}

// catchUp reads the splices other runs made since this one last held the
// lock: names from their records, or from the document's counts when it
// no longer keeps them. A guide of the run's own is patched with them, as
// their runs patched the one they adopted. Every layer may have new calls
// from them, so every layer is due another detection before the run may
// end.
func (e *engine) catchUp() {
	if e.at == e.doc.Version() {
		return
	}
	for i := range e.dirty {
		e.dirty[i] = true
	}
	ss, ok := e.doc.SplicesSince(e.at)
	if g := e.guide; g != nil && !e.adopted {
		if !ok {
			g = fguide.Build(e.doc)
		}
		for _, s := range ss {
			g.ApplyExpansion(s)
		}
		e.guide = g
	}
	if !ok || !e.follow() {
		e.seed()
		e.cur.set = nil
	}
}

// claim claims calls, the round detect picked under the read hold, for this
// run. When another run has claimed one of them it claims none: it lets go
// of the lock, waits for that claim, takes the read hold again and reports
// false — the other run's splice is in the document, detect again.
func (e *engine) claim(calls []*tree.Node) bool {
	s := e.sh
	s.mu.Lock()
	for _, c := range calls {
		if ch, ok := s.claims[c]; ok {
			s.mu.Unlock()
			e.hold(holdNone)
			t0 := time.Now()
			select {
			case <-ch:
			case <-e.ctx.Done(): // the loop returns the context's error
			}
			s.Waits.Observe(time.Since(t0))
			e.hold(holdRead)
			return false
		}
	}
	if s.claims == nil {
		s.claims = map[*tree.Node]chan struct{}{}
	}
	e.claimCh = make(chan struct{})
	for _, c := range calls {
		s.claims[c] = e.claimCh
	}
	s.mu.Unlock()
	e.claimed = calls
	return true
}

// unclaim releases the run's claims, if it has any, waking whoever waits
// for one of them.
func (e *engine) unclaim() {
	if e.claimed == nil {
		return
	}
	s := e.sh
	s.mu.Lock()
	for _, c := range e.claimed {
		delete(s.claims, c)
	}
	s.mu.Unlock()
	close(e.claimCh)
	e.claimed, e.claimCh = nil, nil
}

// letGo releases whatever the run still holds: it has ended, or failed
// mid-round.
func (e *engine) letGo() {
	e.unclaim()
	e.hold(holdNone)
}
