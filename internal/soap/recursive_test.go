package soap

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

func TestRecursivePushMaterialisesNestedCalls(t *testing.T) {
	// getHotels results embed rating and restaurant calls; a recursive
	// provider resolves them before answering a pushed query.
	spec := workload.DefaultSpec()
	spec.IntensionalRatingEvery = 2 // plenty of nested calls
	w := workload.Hotels(spec)
	peer := RecursivePush(w.Registry, 10000, 1)

	pushed := pattern.MustParse(
		`/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X] -> $X`)
	resp, err := peer.Invoke("getHotels", nil, pushed)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Pushed || len(resp.Forest) != 1 || resp.Forest[0].Kind != tree.Tuples {
		t.Fatalf("resp = %+v", resp)
	}
	// Hidden hotels 40..47; qualifying (i%4==0): 40, 44 → 2 hotels × 2
	// five-star restaurants.
	if got := len(resp.Forest[0].PushedBindings); got != 4 {
		t.Fatalf("bindings = %d, want 4 (%v)", got, resp.Forest[0].PushedBindings)
	}
}

func TestRecursivePushWithoutQueryPassesThrough(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	peer := RecursivePush(w.Registry, 10000, 1)
	resp, err := peer.Invoke("getHotels", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Pushed || len(resp.Forest) != 8 {
		t.Fatalf("resp = %+v", resp)
	}
	// Intensional parts stay intensional when nothing is pushed.
	calls := 0
	for _, h := range resp.Forest {
		h.Walk(func(n *tree.Node) bool {
			if n.Kind == tree.Call {
				calls++
			}
			return true
		})
	}
	if calls == 0 {
		t.Fatal("pass-through should keep embedded calls")
	}
}

func TestRecursivePushBudget(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	peer := RecursivePush(w.Registry, 2, 1)
	pushed := pattern.MustParse(`/hotel[name=$X] -> $X`)
	if _, err := peer.Invoke("getHotels", nil, pushed); err == nil {
		t.Fatal("tiny budget must fail the materialisation")
	}
}

func TestRecursivePushEndToEnd(t *testing.T) {
	// Full engine run against a recursive-push provider over HTTP:
	// every call can now be pushed, including getHotels.
	spec := workload.DefaultSpec()
	spec.Hotels = 12
	spec.HiddenHotels = 4
	w := workload.Hotels(spec)
	peer := RecursivePush(w.Registry, 100000, 1)
	srv := httptest.NewServer(NewServer(peer, false))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	reg, err := client.RegistryFor()
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.Evaluate(w.Doc.Clone(), w.Query, reg, core.Options{
		Strategy: core.LazyNFQTyped, Schema: w.Schema, Push: true,
		Clock: service.NewWallClock(false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != w.ExpectedResults {
		t.Fatalf("results = %d, want %d", len(out.Results), w.ExpectedResults)
	}
	if out.Stats.PushedCalls == 0 {
		t.Fatal("no pushes against the recursive provider")
	}
}

// TestRecursivePushWidthIndependent: the provider-side fixpoint splices in
// document order whatever its pool width, so the tuples a peer receives are
// byte-identical at every width — over seeded worlds whose ratings resolve
// through chains of calls returning calls.
func TestRecursivePushWidthIndependent(t *testing.T) {
	pushed := pattern.MustParse(`/hotel[name=$N][rating=$R]/nearby//restaurant[name=$X][rating=$S] -> $N, $R, $X, $S`)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := workload.DefaultSpec()
		spec.Hotels = 2 + rng.Intn(6)
		spec.HiddenHotels = 2 + rng.Intn(8)
		spec.IntensionalRatingEvery = 1 + rng.Intn(3)
		spec.RatingChainDepth = 2 + rng.Intn(3)
		spec.TeaserKinds = rng.Intn(3)
		var want []byte
		for _, width := range []int{1, 2, 4, 0} {
			resp, err := RecursivePush(workload.Hotels(spec).Registry, 100000, width).Invoke("getHotels", nil, pushed)
			if err != nil {
				t.Fatalf("seed %d width %d: %v", seed, width, err)
			}
			if !resp.Pushed || len(resp.Forest) != 1 || len(resp.Forest[0].PushedBindings) == 0 {
				t.Fatalf("seed %d width %d: resp = %+v", seed, width, resp)
			}
			got, err := tree.Marshal(resp.Forest[0])
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: width %d returns\n%s\nwidth 1 returned\n%s", seed, width, got, want)
			}
		}
	}
}

// TestRecursivePushStopsWhenClientLeaves: the materialisation runs under the
// request's context. A peer that disconnects while the first round is out
// ends it there — the responses in flight still land, the next round never
// starts — where a chain four calls deep was waiting.
func TestRecursivePushStopsWhenClientLeaves(t *testing.T) {
	const width, depth = 4, 4
	var steps atomic.Int32
	entered := make(chan struct{}, width)
	reg := service.NewRegistry()
	reg.Register(&service.Service{Name: "root", Handler: func([]*tree.Node) ([]*tree.Node, error) {
		var calls []*tree.Node
		for i := 0; i < width; i++ {
			calls = append(calls, tree.NewCall("step", tree.NewText("1")))
		}
		return calls, nil
	}})
	reg.Register(&service.Service{
		Name: "step",
		RemoteCtx: func(ctx context.Context, params []*tree.Node, _ *pattern.Pattern) (service.Response, error) {
			steps.Add(1)
			d, _ := strconv.Atoi(params[0].Text())
			if d == 1 { // the first round answers only once the peer is gone
				entered <- struct{}{}
				<-ctx.Done()
			}
			if d == depth {
				return service.Response{Forest: []*tree.Node{tree.NewElement("leaf")}}, nil
			}
			return service.Response{Forest: []*tree.Node{tree.NewCall("step", tree.NewText(strconv.Itoa(d+1)))}}, nil
		},
	})
	// ended reports how the provider's handling of the request came out.
	ended := make(chan error, 1)
	peer := RecursivePush(reg, 10000, width).Proxy(func(_ *service.Service, next service.Invoker) service.Invoker {
		return func(ctx context.Context, params []*tree.Node, pushed *pattern.Pattern) (service.Response, error) {
			resp, err := next(ctx, params, pushed)
			ended <- err
			return resp, err
		}
	})
	srv := httptest.NewServer(NewServer(peer, false))
	defer srv.Close()

	ctx, leave := context.WithCancel(context.Background())
	defer leave()
	answered := make(chan error, 1)
	go func() {
		_, err := (&Client{BaseURL: srv.URL}).InvokeContext(ctx, "root", nil, pattern.MustParse(`//leaf[$X] -> $X`))
		answered <- err
	}()
	for i := 0; i < width; i++ {
		<-entered
	}
	leave()
	if err := <-answered; !errors.Is(err, context.Canceled) {
		t.Fatalf("client: got %v, want context.Canceled", err)
	}
	select {
	case err := <-ended:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("provider: materialisation ended with %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the provider keeps materialising for a peer that left")
	}
	if n := steps.Load(); n != width {
		t.Fatalf("%d step invocations, want the first round's %d: the fixpoint went on without its client", n, width)
	}
}
