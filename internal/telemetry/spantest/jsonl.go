package spantest

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"github.com/activexml/axml/internal/telemetry"
)

// Attr returns the value of the span's named attribute, or "".
func Attr(s telemetry.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// CorruptTraceError reports a span stream that ended mid-record or held
// a malformed record — a crashed writer tears the final line, for
// example. DecodeJSONL returns it together with the well-formed prefix.
type CorruptTraceError struct {
	// Record is the 1-based index of the first bad record.
	Record int
	// Err is the underlying decode error.
	Err error
}

func (e *CorruptTraceError) Error() string {
	return fmt.Sprintf("spantest: bad span record %d: %v", e.Record, e.Err)
}

func (e *CorruptTraceError) Unwrap() error { return e.Err }

// DecodeJSONL parses the stream telemetry.SinkJSONL writes, one span per
// line (blank lines are skipped). On a truncated or corrupt stream it
// returns the decoded prefix together with a *CorruptTraceError, so a
// reader keeps every span recorded before the tear.
func DecodeJSONL(r io.Reader) ([]telemetry.Span, error) {
	var out []telemetry.Span
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		spans, err := telemetry.UnmarshalSpansJSON(append(append([]byte{'['}, line...), ']'))
		if err == nil && len(spans) != 1 {
			err = fmt.Errorf("%d records on one line", len(spans))
		}
		if err != nil {
			return out, &CorruptTraceError{Record: len(out) + 1, Err: err}
		}
		out = append(out, spans[0])
	}
	if err := sc.Err(); err != nil {
		return out, &CorruptTraceError{Record: len(out) + 1, Err: err}
	}
	return out, nil
}
