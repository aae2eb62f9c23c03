package soap

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
)

// TestDecodeInvokeAllocationCeiling keeps a request envelope read once:
// its start tag as one encoding/xml token, its content through the wire
// scanner. Sending the whole envelope through the encoding/xml fallback
// and reading the start tag a second time costs 44 allocations for the
// plain request and 67 with the pushed query.
func TestDecodeInvokeAllocationCeiling(t *testing.T) {
	params := []*tree.Node{tree.NewText("addr-0")}
	for _, c := range []struct {
		name    string
		pushed  *pattern.Pattern
		ceiling float64
	}{
		{"plain", nil, 30},
		{"pushed", pattern.MustParse(`/restaurant[rating="*****"][name=$X] -> $X`), 50},
	} {
		body, err := EncodeInvoke("getNearbyRestos", params, c.pushed)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, _, err := decodeInvoke(body, "getNearbyRestos"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.ceiling {
			t.Fatalf("%s: decodeInvoke made %.0f allocations, ceiling %.0f", c.name, allocs, c.ceiling)
		}
		t.Logf("%s: decodeInvoke made %.0f allocations", c.name, allocs)
	}
}

// TestClientReadsEnvelopes runs the client against a fake provider that
// answers each service with fixed bytes: the start tag's attributes are
// read, a fault without a class takes the class of its HTTP status, and
// an envelope whose end tag does not close the payload is refused.
func TestClientReadsEnvelopes(t *testing.T) {
	answers := map[string]struct {
		status int
		body   string
	}{
		"pushed":      {http.StatusOK, `<response pushed="true"><tuples/></response>` + "\n"},
		"plain":       {http.StatusOK, `<response><a>x</a></response>`},
		"fault":       {http.StatusBadGateway, `<fault>upstream gone</fault>`},
		"raw":         {http.StatusGatewayTimeout, "too slow\n"},
		"trailing":    {http.StatusOK, `<response pushed="false"><a>x</a></response><!-- -->`},
		"selfclosing": {http.StatusOK, `<response pushed="false"/>`},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a := answers[strings.TrimPrefix(r.URL.Path, "/services/")]
		w.WriteHeader(a.status)
		w.Write([]byte(a.body))
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	invoke := func(name string) (service.Response, error) {
		return c.InvokeContext(context.Background(), name, nil, nil)
	}

	if resp, err := invoke("pushed"); err != nil || !resp.Pushed {
		t.Fatalf("pushed: %+v, %v; want Pushed", resp, err)
	}
	if resp, err := invoke("plain"); err != nil || resp.Pushed || len(resp.Forest) != 1 || resp.Forest[0].Value() != "x" {
		t.Fatalf("plain: %+v, %v; want one unpushed <a>x</a>", resp, err)
	}
	for name, want := range map[string]struct {
		class service.ErrorClass
		msg   string
	}{
		"fault": {service.Transient, "502 Bad Gateway: upstream gone"},
		"raw":   {service.Timeout, "504 Gateway Timeout: too slow"},
	} {
		_, err := invoke(name)
		if service.ClassOf(err) != want.class || !strings.HasSuffix(err.Error(), want.msg) {
			t.Errorf("%s: %v (class %v); want class %v ending %q", name, err, service.ClassOf(err), want.class, want.msg)
		}
	}
	for _, name := range []string{"trailing", "selfclosing"} {
		if _, err := invoke(name); err == nil || !strings.Contains(err.Error(), "bad response envelope") {
			t.Errorf("%s: err = %v; want a bad response envelope", name, err)
		}
	}
}
