package session

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/activexml/axml/internal/tree"
)

// QueryRequest is the POST /query JSON body.
type QueryRequest struct {
	// Tenant identifies the client (optional).
	Tenant string `json:"tenant,omitempty"`
	// Document names the target document.
	Document string `json:"document"`
	// Query is the tree-pattern source.
	Query string `json:"query"`
	// Weight is the admission cost (optional, default 1).
	Weight int `json:"weight,omitempty"`
	// Isolated requests a private document clone (optional).
	Isolated bool `json:"isolated,omitempty"`
}

// QueryResponse is the POST /query JSON answer.
type QueryResponse struct {
	// Document echoes the target.
	Document string `json:"document"`
	// Bindings holds one variable→value map per result.
	Bindings []map[string]string `json:"bindings"`
	// Complete is the Definition-3 completeness flag.
	Complete bool `json:"complete"`
	// Memo reports a stored answer: no engine run, zero engine counters.
	Memo bool `json:"memo,omitempty"`
	// CallsInvoked, Rounds and VirtualMs summarise the engine work.
	CallsInvoked int     `json:"callsInvoked"`
	Rounds       int     `json:"rounds"`
	VirtualMs    float64 `json:"virtualMs"`
	// QueuedMs and ElapsedMs are the wall-clock admission wait and the time
	// from admission to the answer (Result.Queued, Result.Elapsed).
	QueuedMs  float64 `json:"queuedMs"`
	ElapsedMs float64 `json:"elapsedMs"`
}

const (
	// maxQueryBody bounds a POST /query body: a document name and a query.
	maxQueryBody = 1 << 20
	// statusClientClosedRequest is what nginx logs for a client that hung
	// up: nobody reads the answer, the status is for the access log.
	statusClientClosedRequest = 499
)

// errorBody is the JSON error envelope every non-2xx answer carries.
type errorBody struct {
	Error string `json:"error"`
}

// Handler mounts the manager's endpoints on a new mux:
//
//	POST /query      run one query (QueryRequest → QueryResponse)
//	GET  /documents  list resident document names
//	GET  /tenants    per-tenant accounting
//	GET  /stats      manager snapshot
//
// Admission failures map to transport semantics: shed → 429 with a
// Retry-After header (whole seconds, rounded up), draining → 503,
// unknown document → 404, bad query → 400, a body over 1 MiB → 413, an
// evaluation its request's context ended → 504 (deadline) or 499 (client
// gone), one an expired drain ended → 503.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	Mount(mux, m)
	return mux
}

// Mount attaches the manager's endpoints to an existing mux (axmlserver
// mounts them next to the SOAP and telemetry endpoints).
func Mount(mux *http.ServeMux, m *Manager) {
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, errors.New("session: POST only"))
			return
		}
		var qr QueryRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&qr); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeError(w, status, fmt.Errorf("session: bad request body: %w", err))
			return
		}
		res, err := m.Query(r.Context(), Request{
			Tenant:   qr.Tenant,
			Document: qr.Document,
			Query:    qr.Query,
			Weight:   qr.Weight,
			Isolated: qr.Isolated,
		})
		if err != nil {
			status, retryAfter := errStatus(err)
			if retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
			}
			writeError(w, status, err)
			return
		}
		t0 := time.Now()
		writeQuery(w, qr.Document, res)
		m.mWriteSecs.Observe(time.Since(t0))
	})
	mux.HandleFunc("/documents", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Documents())
	})
	mux.HandleFunc("/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.TenantStats())
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})
}

// errStatus maps a Query error to its HTTP status and Retry-After hint.
func errStatus(err error) (status int, retryAfter time.Duration) {
	var shed *ShedError
	var unknown *UnknownDocumentError
	var bad *BadQueryError
	switch {
	case errors.As(err, &shed):
		return http.StatusTooManyRequests, shed.RetryAfter
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, 0
	case errors.As(err, &unknown):
		return http.StatusNotFound, 0
	case errors.As(err, &bad):
		return http.StatusBadRequest, 0
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, 0
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, 0
	default:
		return http.StatusInternalServerError, 0
	}
}

// retryAfterSeconds rounds a hint up to whole seconds — Retry-After is an
// integer header, and rounding down would tell clients to retry sooner
// than the server asked.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// queryTail is what a QueryResponse encodes after its bindings: the same
// fields under the same tags, so that encoding/json writes them alike.
type queryTail struct {
	Complete     bool    `json:"complete"`
	Memo         bool    `json:"memo,omitempty"`
	CallsInvoked int     `json:"callsInvoked"`
	Rounds       int     `json:"rounds"`
	VirtualMs    float64 `json:"virtualMs"`
	QueuedMs     float64 `json:"queuedMs"`
	ElapsedMs    float64 `json:"elapsedMs"`
}

// writeQuery answers POST /query with res, byte for byte what
// json.NewEncoder(w).Encode(QueryResponse{…}) writes, in three pieces:
// the head up to "bindings", the bindings — a stored answer's as encoded
// once for every request that sends it, any other marshalled afresh — and
// the tail, whose leading '{' becomes ','.
func writeQuery(w http.ResponseWriter, document string, res *Result) {
	doc, _ := json.Marshal(document) // a string always encodes
	head := make([]byte, 0, len(`{"document":,"bindings":`)+len(doc))
	head = append(append(append(head, `{"document":`...), doc...), `,"bindings":`...)
	var bindings []byte
	if res.answer != nil {
		bindings = res.answer.encoded()
	} else {
		bindings = marshalBindings(res.Bindings)
	}
	tail, _ := json.Marshal(queryTail{ // scalars always encode
		Complete:     res.Complete,
		Memo:         res.Memo,
		CallsInvoked: res.Stats.CallsInvoked,
		Rounds:       res.Stats.Rounds,
		VirtualMs:    float64(res.Stats.VirtualTime) / float64(time.Millisecond),
		QueuedMs:     float64(res.Queued) / float64(time.Millisecond),
		ElapsedMs:    float64(res.Elapsed) / float64(time.Millisecond),
	})
	tail[0] = ','
	tail = append(tail, '\n')

	hdr := w.Header()
	hdr.Set("Content-Type", "application/json")
	hdr.Set("Content-Length", strconv.Itoa(len(head)+len(bindings)+len(tail)))
	w.WriteHeader(http.StatusOK)
	for _, p := range [...][]byte{head, bindings, tail} {
		if _, err := w.Write(p); err != nil {
			return // the client is gone
		}
	}
}

// marshalBindings is the JSON of a QueryResponse's bindings: an empty
// answer is [], never null.
func marshalBindings(bs []tree.Binding) []byte {
	if bs == nil {
		bs = []tree.Binding{}
	}
	b, _ := json.Marshal(bs) // maps of strings always encode
	return b
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}
