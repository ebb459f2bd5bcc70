package container

import (
	"context"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"testing"

	"altstacks/internal/obs"
	"altstacks/internal/xmlutil"
)

// TestDeliveryTraceComposesPerCall: a delivery under a context that
// already carries a ClientTrace fires the caller's GotConn hook and the
// delivery connection accounting once each, and the caller's hook must
// not stick to the shared delivery trace — a later plain delivery does
// not call it. The concurrent half is for -race: each traced delivery
// composes its own copy, so fan-out workers never write shared hooks.
func TestDeliveryTraceComposesPerCall(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
	c, client := startPlain(t)
	delivery := client.ForDelivery(DeliveryPooled)
	epr := c.EPR("/echo")
	body := xmlutil.NewText("urn:echo", "Echo", "hi")
	deliver := func(ctx context.Context) {
		t.Helper()
		if _, err := delivery.CallContext(ctx, epr, "urn:echo/Echo", body); err != nil {
			t.Error(err)
		}
	}
	conns := func() int64 { return obs.DeliveryConnsDialed.Value() + obs.DeliveryConnsReused.Value() }
	withHook := func(n *atomic.Int32) context.Context {
		return httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { n.Add(1) },
		})
	}

	var caller atomic.Int32
	before := conns()
	deliver(withHook(&caller))
	if n := caller.Load(); n != 1 {
		t.Fatalf("caller GotConn fired %d times, want 1", n)
	}
	if d := conns() - before; d != 1 {
		t.Fatalf("delivery accounting saw %d connections, want 1", d)
	}
	deliver(context.Background())
	if n := caller.Load(); n != 1 {
		t.Fatalf("caller GotConn fired %d times after a plain delivery, want still 1", n)
	}

	var hooks [4]atomic.Int32
	var wg sync.WaitGroup
	for i := range hooks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := withHook(&hooks[i])
			for j := 0; j < 5; j++ {
				deliver(ctx)
			}
		}()
	}
	wg.Wait()
	for i := range hooks {
		if n := hooks[i].Load(); n != 5 {
			t.Errorf("worker %d: GotConn fired %d times over 5 deliveries", i, n)
		}
	}
}
