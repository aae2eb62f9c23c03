// Package spantest is the tests' support for span streams: the one
// normalisation every differential test applies before comparing two
// evaluations' streams, attribute lookup, and the decoder of what
// telemetry.SinkJSONL writes.
package spantest

import (
	"sort"
	"time"

	"github.com/activexml/axml/internal/telemetry"
)

// Normalize returns the comparable form of a span stream: the wall-clock
// fields (Start, Wall) are zeroed, spans whose name is in drop are
// removed, and IDs are renumbered densely in start order, so a stream
// compares equal to one that never emitted the dropped spans. stripWorker
// additionally zeroes Worker, for comparisons across invocation-pool
// widths and schedules, which may only move members between workers.
func Normalize(spans []telemetry.Span, stripWorker bool, drop ...string) []telemetry.Span {
	dropped := map[string]bool{}
	for _, name := range drop {
		dropped[name] = true
	}
	var out []telemetry.Span
	var ids []telemetry.SpanID
	for _, s := range spans {
		if dropped[s.Name] {
			continue
		}
		s.Start, s.Wall = time.Time{}, 0
		if stripWorker {
			s.Worker = 0
		}
		out = append(out, s)
		ids = append(ids, s.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dense := make(map[telemetry.SpanID]telemetry.SpanID, len(ids))
	for i, id := range ids {
		dense[id] = telemetry.SpanID(i + 1)
	}
	for i := range out {
		out[i].ID, out[i].Parent = dense[out[i].ID], dense[out[i].Parent]
	}
	return out
}
