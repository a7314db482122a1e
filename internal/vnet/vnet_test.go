package vnet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func echoHandler(from SiteID, kind string, payload []byte) ([]byte, error) {
	return []byte(fmt.Sprintf("%s/%s:%s", from, kind, payload)), nil
}

func testNet(t *testing.T, sites ...SiteID) (*Network, map[SiteID]*Node) {
	t.Helper()
	n := NewNetwork(WithSeed(42), WithCallTimeout(20*time.Millisecond))
	nodes := make(map[SiteID]*Node)
	for _, s := range sites {
		nd := n.AddNode(s)
		nd.SetHandler(echoHandler)
		nodes[s] = nd
	}
	return n, nodes
}

func TestCallRoundTrip(t *testing.T) {
	_, nodes := testNet(t, "a", "b")
	got, err := nodes["a"].Call(context.Background(), "b", "ping", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "a/ping:hello" {
		t.Fatalf("got %q", got)
	}
}

func TestCallUnknownSite(t *testing.T) {
	_, nodes := testNet(t, "a")
	_, err := nodes["a"].Call(context.Background(), "ghost", "x", nil)
	if !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("err = %v, want ErrUnknownSite", err)
	}
}

func TestCallNoHandler(t *testing.T) {
	n := NewNetwork(WithCallTimeout(20 * time.Millisecond))
	a := n.AddNode("a")
	n.AddNode("b") // no handler installed
	_, err := a.Call(context.Background(), "b", "x", nil)
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

func TestCallHandlerError(t *testing.T) {
	n := NewNetwork(WithCallTimeout(20 * time.Millisecond))
	a := n.AddNode("a")
	b := n.AddNode("b")
	boom := errors.New("boom")
	b.SetHandler(func(SiteID, string, []byte) ([]byte, error) { return nil, boom })
	_, err := a.Call(context.Background(), "b", "x", nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want handler error", err)
	}
}

func TestCrashedCalleeTimesOut(t *testing.T) {
	net, nodes := testNet(t, "a", "b")
	if err := net.Crash("b"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := nodes["a"].Call(context.Background(), "b", "x", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("timed out too quickly to be a timeout")
	}
	// After restart the site serves again.
	net.Restart("b")
	if _, err := nodes["a"].Call(context.Background(), "b", "x", nil); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
}

func TestCrashedCallerFailsFast(t *testing.T) {
	net, nodes := testNet(t, "a", "b")
	net.Crash("a")
	_, err := nodes["a"].Call(context.Background(), "b", "x", nil)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
}

func TestCrashUnknownSite(t *testing.T) {
	net, _ := testNet(t, "a")
	if err := net.Crash("ghost"); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("Crash(ghost) = %v", err)
	}
	if err := net.Restart("ghost"); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("Restart(ghost) = %v", err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	net, nodes := testNet(t, "a", "b")
	net.Partition("a", "b")
	if _, err := nodes["a"].Call(context.Background(), "b", "x", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("partitioned call err = %v, want ErrTimeout", err)
	}
	net.Heal("a", "b")
	if _, err := nodes["a"].Call(context.Background(), "b", "x", nil); err != nil {
		t.Fatalf("healed call: %v", err)
	}
}

func TestByteAccounting(t *testing.T) {
	net, nodes := testNet(t, "a", "b")
	payload := []byte(strings.Repeat("z", 1000))
	if _, err := nodes["a"].Call(context.Background(), "b", "k", payload); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.Messages != 2 {
		t.Fatalf("messages = %d, want 2 (request+response)", st.Messages)
	}
	wantMin := int64(1000 + headerOverhead)
	if st.BytesTotal < wantMin {
		t.Fatalf("bytes = %d, want >= %d", st.BytesTotal, wantMin)
	}
	if net.LinkBytes("a", "b") < wantMin {
		t.Fatalf("link a->b bytes = %d", net.LinkBytes("a", "b"))
	}
	if net.LinkBytes("b", "a") <= 0 {
		t.Fatal("response direction not accounted")
	}
	net.ResetStats()
	if net.Stats().BytesTotal != 0 || net.LinkBytes("a", "b") != 0 {
		t.Fatal("ResetStats left residue")
	}
}

func TestVirtualTimeCharged(t *testing.T) {
	net, nodes := testNet(t, "a", "b")
	net.SetBidirLink("a", "b", LinkParams{Latency: 10 * time.Millisecond, Bandwidth: 1 << 20})
	start := time.Now()
	if _, err := nodes["a"].Call(context.Background(), "b", "k", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("virtual time should not sleep, took %v", wall)
	}
	st := net.Stats()
	// 1 MiB at 1 MiB/s ≈ 1s plus latency; at minimum well over 500ms.
	if st.VirtualTime < 500*time.Millisecond {
		t.Fatalf("virtual time = %v, want >= 500ms", st.VirtualTime)
	}
}

func TestRealTimeSleeps(t *testing.T) {
	n := NewNetwork(RealTime(), WithCallTimeout(time.Second))
	a := n.AddNode("a")
	b := n.AddNode("b")
	b.SetHandler(echoHandler)
	n.SetBidirLink("a", "b", LinkParams{Latency: 30 * time.Millisecond})
	start := time.Now()
	if _, err := a.Call(context.Background(), "b", "k", nil); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall < 55*time.Millisecond {
		t.Fatalf("real-time call returned in %v, want >= 2×30ms", wall)
	}
}

func TestLossDropsMessages(t *testing.T) {
	n := NewNetwork(WithSeed(7), WithCallTimeout(5*time.Millisecond))
	a := n.AddNode("a")
	b := n.AddNode("b")
	b.SetHandler(echoHandler)
	n.SetLink("a", "b", LinkParams{Loss: 1.0})
	_, err := a.Call(context.Background(), "b", "k", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("lossy call err = %v, want ErrTimeout", err)
	}
}

func TestContextCancellation(t *testing.T) {
	n := NewNetwork(WithCallTimeout(10 * time.Second))
	a := n.AddNode("a")
	b := n.AddNode("b")
	b.SetHandler(func(SiteID, string, []byte) ([]byte, error) {
		time.Sleep(time.Second)
		return nil, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := a.Call(ctx, "b", "k", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("cancellation not honored promptly")
	}
}

// TestNestedCallsRunInline: a call that cannot be cancelled runs its handler
// on the caller's goroutine, so a chain of nested calls — a roaming agent's
// itinerary — grows no goroutine per hop. Each handler calls the other
// node until the depth in the payload reaches zero.
func TestNestedCallsRunInline(t *testing.T) {
	const depth = 256
	n := NewNetwork(WithCallTimeout(time.Second))
	nodes := []*Node{n.AddNode("a"), n.AddNode("b")}
	var deepest int
	for i, nd := range nodes {
		other := nodes[1-i].ID()
		nd.SetHandler(func(_ SiteID, kind string, payload []byte) ([]byte, error) {
			d, err := strconv.Atoi(string(payload))
			if err != nil {
				return nil, err
			}
			if d == 0 {
				deepest = runtime.NumGoroutine()
				return []byte("bottom"), nil
			}
			return nd.Call(context.Background(), other, kind, []byte(strconv.Itoa(d-1)))
		})
	}
	// Goroutines other tests left behind may exit while the chain runs;
	// retry until a run sees a steady count.
	for attempt := 0; ; attempt++ {
		before := runtime.NumGoroutine()
		got, err := nodes[0].Call(context.Background(), "b", "hop", []byte(strconv.Itoa(depth-1)))
		if err != nil || string(got) != "bottom" {
			t.Fatalf("chain of %d calls: %q, %v", depth, got, err)
		}
		if deepest == before {
			return
		}
		if attempt == 20 {
			t.Fatalf("deepest handler saw %d goroutines, %d before the outer call", deepest, before)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestClosedEndpoint(t *testing.T) {
	_, nodes := testNet(t, "a", "b")
	nodes["a"].Close()
	_, err := nodes["a"].Call(context.Background(), "b", "k", nil)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestAddNodeIdempotent(t *testing.T) {
	n := NewNetwork()
	a1 := n.AddNode("a")
	a2 := n.AddNode("a")
	if a1 != a2 {
		t.Fatal("AddNode created a duplicate node")
	}
}

func TestSitesSorted(t *testing.T) {
	n := NewNetwork()
	for _, s := range []SiteID{"c", "a", "b"} {
		n.AddNode(s)
	}
	got := n.Sites()
	want := []SiteID{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sites = %v", got)
		}
	}
}

func TestTransferTime(t *testing.T) {
	p := LinkParams{Latency: time.Millisecond, Bandwidth: 1000}
	// 500 bytes at 1000 B/s = 500ms, plus 1ms latency.
	got := p.TransferTime(500)
	if got < 500*time.Millisecond || got > 502*time.Millisecond {
		t.Fatalf("TransferTime = %v", got)
	}
	inf := LinkParams{Latency: 2 * time.Millisecond}
	if inf.TransferTime(1<<30) != 2*time.Millisecond {
		t.Fatal("infinite bandwidth should charge latency only")
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, nodes := testNet(t, "a", "b")
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := nodes["a"].Call(context.Background(), "b", "k", []byte{byte(i)})
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
