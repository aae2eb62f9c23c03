package soap

import (
	"context"
	"net/http/httptest"
	"testing"

	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// The pair below prices cross-process trace propagation per call — the
// extra envelope attributes, the server's per-request tracer, and the
// span subtree marshalled into (and parsed back out of) every response.
// What the SOAP boundary as a whole costs a call of a sleep-dominated
// evaluation is soap.overhead_us in the benchmark's federated-soap
// workload.

func benchReg() *service.Registry {
	reg := service.NewRegistry()
	reg.Register(&service.Service{
		Name: "svc", Latency: 0,
		Handler: func(params []*tree.Node) ([]*tree.Node, error) {
			n := tree.NewElement("item")
			n.Append(tree.NewText("v"))
			return []*tree.Node{n}, nil
		},
	})
	return reg
}

func BenchmarkPropagationOff(b *testing.B) {
	srv := httptest.NewServer(NewServer(benchReg(), false))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	reg, err := c.RegistryFor()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Invoke("svc", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPropagationOn(b *testing.B) {
	srv := httptest.NewServer(NewServer(benchReg(), false))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	reg, err := c.RegistryFor()
	if err != nil {
		b.Fatal(err)
	}
	ctx := telemetry.WithTrace(context.Background(), telemetry.TraceContext{
		TraceID: telemetry.DeriveTraceID("bench"), Parent: 1, MaxSpans: 512,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.InvokeContext(ctx, "svc", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
