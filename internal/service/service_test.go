package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/tree"
)

func restaurants() []*tree.Node {
	mk := func(name, addr, rating string) *tree.Node {
		r := tree.NewElement("restaurant")
		r.Append(tree.NewElement("name")).Append(tree.NewText(name))
		r.Append(tree.NewElement("address")).Append(tree.NewText(addr))
		r.Append(tree.NewElement("rating")).Append(tree.NewText(rating))
		return r
	}
	return []*tree.Node{
		mk("In Delis", "2nd Ave.", "*****"),
		mk("Jo", "2nd Ave.", "***"),
		mk("The Capital", "2nd Ave.", "*****"),
	}
}

func registryWithRestos(canPush bool) *Registry {
	r := NewRegistry()
	r.Register(&Service{
		Name:    "getNearbyRestos",
		Latency: 50 * time.Millisecond,
		CanPush: canPush,
		Handler: func(params []*tree.Node) ([]*tree.Node, error) {
			return restaurants(), nil
		},
	})
	return r
}

func TestInvokeFullResult(t *testing.T) {
	r := registryWithRestos(false)
	resp, err := r.Invoke("getNearbyRestos", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Forest) != 3 || resp.Pushed {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Bytes <= 0 {
		t.Fatal("transfer bytes not accounted")
	}
	if resp.Latency != 50*time.Millisecond {
		t.Fatalf("latency = %v", resp.Latency)
	}
	st := r.Stats()
	if st.Invocations != 1 || st.Bytes != int64(resp.Bytes) || st.PushedInvocations != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvokePushed(t *testing.T) {
	r := registryWithRestos(true)
	pushed := pattern.MustParse(`/restaurant[rating="*****"][name=$X][address=$Y] -> $X, $Y`)
	resp, err := r.Invoke("getNearbyRestos", nil, pushed)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Pushed || len(resp.Forest) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	tu := resp.Forest[0]
	if tu.Kind != tree.Tuples || tu.PushedQuery != pushed.String() {
		t.Fatalf("tuples node = %+v", tu)
	}
	if len(tu.PushedBindings) != 2 {
		t.Fatalf("bindings = %v", tu.PushedBindings)
	}
	names := map[string]bool{}
	for _, b := range tu.PushedBindings {
		names[b["X"]] = true
	}
	if !names["In Delis"] || !names["The Capital"] {
		t.Fatalf("wrong bindings: %v", tu.PushedBindings)
	}
	if r.Stats().PushedInvocations != 1 {
		t.Fatal("pushed invocation not counted")
	}
}

func TestPushReducesTransfer(t *testing.T) {
	// The point of Section 7: tuples are much smaller than the full
	// result when selectivity is low.
	full := registryWithRestos(false)
	push := registryWithRestos(true)
	pushed := pattern.MustParse(`/restaurant[rating="*****"][name=$X] -> $X`)
	rf, err := full.Invoke("getNearbyRestos", nil, pushed) // ignored: CanPush=false
	if err != nil {
		t.Fatal(err)
	}
	if rf.Pushed {
		t.Fatal("non-push service applied the query")
	}
	rp, err := push.Invoke("getNearbyRestos", nil, pushed)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Bytes >= rf.Bytes {
		t.Fatalf("push did not reduce transfer: %d vs %d", rp.Bytes, rf.Bytes)
	}
}

func TestInvokeErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Invoke("ghost", nil, nil); err == nil {
		t.Fatal("unknown service must fail")
	}
	r.Register(&Service{Name: "boom", Handler: func([]*tree.Node) ([]*tree.Node, error) {
		return nil, errors.New("backend down")
	}})
	if _, err := r.Invoke("boom", nil, nil); err == nil || !strings.Contains(err.Error(), "backend down") {
		t.Fatalf("err = %v", err)
	}
	// However many Proxy layers the error crosses, it is named once.
	stack := NewCache(CacheSpec{}).Wrap(NewFaults(FaultSpec{}).Wrap(r))
	if _, err := stack.Invoke("boom", nil, nil); err == nil || err.Error() != "service boom: backend down" {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterPanics(t *testing.T) {
	r := NewRegistry()
	for name, fn := range map[string]func(){
		"nil handler": func() { r.Register(&Service{Name: "x"}) },
		"duplicate": func() {
			h := func([]*tree.Node) ([]*tree.Node, error) { return nil, nil }
			r.Register(&Service{Name: "d", Handler: h})
			r.Register(&Service{Name: "d", Handler: h})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNamesAndLookup(t *testing.T) {
	r := registryWithRestos(false)
	h := func([]*tree.Node) ([]*tree.Node, error) { return nil, nil }
	r.Register(&Service{Name: "aaa", Handler: h})
	names := r.Names()
	if len(names) != 2 || names[0] != "aaa" || names[1] != "getNearbyRestos" {
		t.Fatalf("Names = %v", names)
	}
	if r.Lookup("aaa") == nil || r.Lookup("zzz") != nil {
		t.Fatal("Lookup misbehaves")
	}
}

func TestResetStats(t *testing.T) {
	r := registryWithRestos(false)
	if _, err := r.Invoke("getNearbyRestos", nil, nil); err != nil {
		t.Fatal(err)
	}
	r.ResetStats()
	if st := r.Stats(); st.Invocations != 0 || st.Bytes != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

func TestSimClockConcurrent(t *testing.T) {
	c := &SimClock{}
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Advance(time.Millisecond)
		}()
	}
	wg.Wait()
	if c.Elapsed() != 50*time.Millisecond {
		t.Fatalf("Elapsed = %v", c.Elapsed())
	}
}

func TestWallClock(t *testing.T) {
	c := NewWallClock(true)
	c.Advance(2 * time.Millisecond)
	if c.Elapsed() < 2*time.Millisecond {
		t.Fatalf("wall clock did not sleep: %v", c.Elapsed())
	}
	// Non-sleeping wall clock still measures real time.
	c2 := NewWallClock(false)
	c2.Advance(time.Hour)
	if c2.Elapsed() > time.Minute {
		t.Fatal("non-sleeping wall clock slept")
	}
}

func TestConcurrentInvocations(t *testing.T) {
	r := registryWithRestos(true)
	pushed := pattern.MustParse(`/restaurant[name=$X] -> $X`)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(push bool) {
			defer wg.Done()
			var p *pattern.Pattern
			if push {
				p = pushed
			}
			if _, err := r.Invoke("getNearbyRestos", nil, p); err != nil {
				t.Error(err)
			}
		}(i%2 == 0)
	}
	wg.Wait()
	st := r.Stats()
	if st.Invocations != 20 || st.PushedInvocations != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemoteService(t *testing.T) {
	r := NewRegistry()
	var gotPushed *pattern.Pattern
	r.Register(&Service{
		Name:    "remote",
		CanPush: true,
		RemoteCtx: func(_ context.Context, params []*tree.Node, pushed *pattern.Pattern) (Response, error) {
			gotPushed = pushed
			return Response{
				Forest: []*tree.Node{tree.NewText("ok")},
				Bytes:  42,
				Pushed: pushed != nil,
			}, nil
		},
	})
	p := pattern.MustParse(`/r[a=$X] -> $X`)
	resp, err := r.Invoke("remote", nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Pushed || resp.Bytes != 42 || gotPushed != p {
		t.Fatalf("remote delegation broken: %+v", resp)
	}
	st := r.Stats()
	if st.Invocations != 1 || st.Bytes != 42 || st.PushedInvocations != 1 {
		t.Fatalf("remote stats = %+v", st)
	}
}

func TestRemoteServiceError(t *testing.T) {
	r := NewRegistry()
	r.Register(&Service{
		Name: "down",
		RemoteCtx: func(context.Context, []*tree.Node, *pattern.Pattern) (Response, error) {
			return Response{}, errors.New("unreachable")
		},
	})
	if _, err := r.Invoke("down", nil, nil); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err = %v", err)
	}
	if st := r.Stats(); st.Invocations != 0 {
		t.Fatalf("failed remote invocation counted: %+v", st)
	}
}

func TestPushIgnoredWhenNotCapable(t *testing.T) {
	r := registryWithRestos(false)
	p := pattern.MustParse(`/restaurant[name=$X] -> $X`)
	resp, err := r.Invoke("getNearbyRestos", nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Pushed || len(resp.Forest) != 3 {
		t.Fatalf("push applied by non-capable service: %+v", resp)
	}
}

// TestHandlerDoesNotOutliveItsCaller: an in-process handler cannot see the
// invocation's context, but its caller need not wait for it. Once the
// context ends the invocation returns the context's error; the handler's
// late result is dropped and not counted.
func TestHandlerDoesNotOutliveItsCaller(t *testing.T) {
	started, release, returned := make(chan struct{}), make(chan struct{}), make(chan struct{})
	r := NewRegistry()
	r.Register(&Service{Name: "slow", Handler: func([]*tree.Node) ([]*tree.Node, error) {
		defer close(returned)
		close(started)
		<-release
		return restaurants(), nil
	}})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	if _, err := r.InvokeContext(ctx, "slow", nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	close(release)
	<-returned
	if st := r.Stats(); st.Invocations != 0 || st.Bytes != 0 {
		t.Fatalf("the dropped result was counted: %+v", st)
	}
}
