package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder was created. Op is the id of the op span the
// interval belongs to (an op span's Op is its own ID); 0 marks a span
// recorded where the harness could not tell which concurrent op caused
// it (a service handler under the session server).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Replay marks a span the harness produced after the timed window by
	// calling a layer's public function on the workload's own inputs: the
	// layer's cost on that input, not its share of an op.
	Replay bool `json:"replay,omitempty"`
	// Attr carries the one label some metrics group by (a service name).
	Attr string `json:"attr,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so op code is the same in the untraced pass.
type recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span

	// ambient is the span the shims parent to: the core.evaluate span of
	// the single op in flight. Workloads with concurrent ops leave it
	// unset and their shim spans are recorded with Op 0.
	ambient atomic.Pointer[open]
	// replaying flags every span started while a replay runs.
	replaying atomic.Bool
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open is a started span.
type open struct {
	r    *recorder
	span span
}

// start opens a span under parent (nil for a root, which becomes an op).
func (r *recorder) start(name string, parent *open) *open {
	if r == nil {
		return nil
	}
	o := &open{r: r, span: span{ID: r.next.Add(1), Name: name, Replay: r.replaying.Load()}}
	if parent != nil {
		o.span.Parent, o.span.Op = parent.span.ID, parent.span.Op
	} else {
		o.span.Op = o.span.ID
	}
	o.span.Start = int64(time.Since(r.epoch))
	return o
}

// startAt opens a span under a parent known only by its ids (a request
// header carried them across the loopback connection).
func (r *recorder) startAt(name string, parentID, op int64) *open {
	o := r.start(name, nil)
	if o != nil {
		o.span.Parent, o.span.Op = parentID, op
	}
	return o
}

// startAmbient opens a shim span under the op in flight, if known.
func (r *recorder) startAmbient(name, attr string) *open {
	if r == nil {
		return nil
	}
	o := r.start(name, r.ambient.Load())
	if o.span.Parent == 0 {
		o.span.Op = 0
	}
	o.span.Attr = attr
	return o
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.span.End = int64(time.Since(o.r.epoch))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.span)
	o.r.mu.Unlock()
}

func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.span.ID
}

func (r *recorder) setAmbient(o *open) {
	if r != nil {
		r.ambient.Store(o)
	}
}

// replay runs fn with every span it starts flagged as a replay.
func (r *recorder) replay(fn func()) {
	r.replaying.Store(true)
	defer r.replaying.Store(false)
	fn()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cover is the length of the union of the intervals, clipped to
// [lo, hi): the part of a span its children cover, however they overlap.
func cover(children []span, lo, hi int64) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	at := lo
	for _, c := range children {
		s, e := max(c.Start, at), min(c.End, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// opTree is one op's spans indexed for self-time queries.
type opTree struct {
	root     span
	children map[int64][]span
}

// opTrees groups spans by op. Spans with Op 0 belong to no tree.
func opTrees(spans []span) []opTree {
	byOp := map[int64]*opTree{}
	var order []int64
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		t := byOp[s.Op]
		if t == nil {
			t = &opTree{children: map[int64][]span{}}
			byOp[s.Op] = t
			order = append(order, s.Op)
		}
		if s.ID == s.Op {
			t.root = s
		} else {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	out := make([]opTree, 0, len(order))
	for _, op := range order {
		if t := byOp[op]; t.root.ID != 0 {
			out = append(out, *t)
		}
	}
	return out
}

// self is a span's duration minus the part its children cover.
func (t opTree) self(s span) int64 {
	return s.dur() - cover(t.children[s.ID], s.Start, s.End)
}

// partitionError reports how far the op's self times are from
// partitioning it: |Σ self − Σ parallel overlap − op| / op, where the
// overlap is what concurrent siblings (a parallel invocation batch)
// cover more than once. It is 0 when every span lies inside its parent;
// a child that starts before or outlives its parent shows as an error.
func (t opTree) partitionError() float64 {
	var selfSum, overlap int64
	var walk func(s span)
	walk = func(s span) {
		selfSum += t.self(s)
		var inside int64 // children's durations, clipped to the parent
		for _, c := range t.children[s.ID] {
			inside += max(min(c.End, s.End)-max(c.Start, s.Start), 0)
			walk(c)
		}
		overlap += inside - cover(t.children[s.ID], s.Start, s.End)
	}
	walk(t.root)
	if t.root.dur() == 0 {
		return 0
	}
	diff := selfSum - overlap - t.root.dur()
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) / float64(t.root.dur())
}
