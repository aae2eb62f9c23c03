package soap

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// An oversized request must be rejected with an explicit 413
// permanent-classed fault, not silently truncated into a parse error.
func TestServerRejectsOversizedRequest(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	s := NewServer(w.Registry, false)
	s.MaxPayloadBytes = 1 << 10
	srv := httptest.NewServer(s)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	big := strings.Repeat("x", 2<<10)
	_, err := c.InvokeContext(context.Background(), "getNearbyRestos", []*tree.Node{tree.NewText(big)}, nil)
	if err == nil {
		t.Fatal("oversized request accepted")
	}
	var fault *service.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want a classed service.Fault", err)
	}
	if fault.Class != service.Permanent {
		t.Fatalf("class = %v, want Permanent (retrying cannot shrink the payload)", fault.Class)
	}
	if !strings.Contains(err.Error(), "payload too large") {
		t.Fatalf("err = %v, want an explicit payload-too-large message", err)
	}
	if !strings.Contains(err.Error(), "413") {
		t.Fatalf("err = %v, want HTTP 413", err)
	}
}

// A request of exactly the configured limit must still go through: the
// limit detection reads one byte past the bound, it does not shrink it.
func TestServerAcceptsRequestAtLimit(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	s := NewServer(w.Registry, false)
	body, err := EncodeInvoke("getNearbyRestos", []*tree.Node{tree.NewText("addr-7")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxPayloadBytes = int64(len(body))
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/services/getNearbyRestos", "application/xml", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 for a body of exactly the limit", resp.StatusCode)
	}
}

// An oversized response must surface as a permanent-classed fault on the
// client, not as a truncated-XML parse error.
func TestClientRejectsOversizedResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/xml")
		w.Write([]byte(`<response pushed="false"><blob>` + strings.Repeat("y", 2<<10) + `</blob></response>`))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, MaxPayloadBytes: 1 << 10}
	_, err := c.InvokeContext(context.Background(), "getNearbyRestos", nil, nil)
	if err == nil {
		t.Fatal("oversized response accepted")
	}
	var fault *service.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want a classed service.Fault", err)
	}
	if fault.Class != service.Permanent {
		t.Fatalf("class = %v, want Permanent", fault.Class)
	}
	if !strings.Contains(err.Error(), "payload too large") {
		t.Fatalf("err = %v, want an explicit payload-too-large message", err)
	}
}

// The default limits are symmetric, and small payloads are unaffected.
func TestPayloadDefaultsSymmetric(t *testing.T) {
	if DefaultMaxPayloadBytes != 64<<20 {
		t.Fatalf("DefaultMaxPayloadBytes = %d", DefaultMaxPayloadBytes)
	}
	w := workload.Hotels(workload.DefaultSpec())
	srv := httptest.NewServer(NewServer(w.Registry, false))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	resp, err := c.InvokeContext(context.Background(), "getNearbyRestos", []*tree.Node{tree.NewText("addr-7")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Forest) == 0 {
		t.Fatal("empty response under default limits")
	}
}
