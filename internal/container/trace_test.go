package container

import (
	"context"
	"net/http"
	"sync"
	"testing"

	"altstacks/internal/obs"
	"altstacks/internal/xmlutil"
)

// passThrough is an http.RoundTripper that hands every request to the
// transport under it, as perfbench's meter does.
type passThrough struct{ Base http.RoundTripper }

func (p passThrough) RoundTrip(req *http.Request) (*http.Response, error) {
	return p.Base.RoundTrip(req)
}

// TestDeliveryTraceComposesPerCall: a delivery counts its connection,
// as a dial or a reuse, once, whether the client's transport is the
// container's own or wrapped in an http.RoundTripper (whose RoundTrip
// learns of the count from the request's context), and concurrent
// deliveries count one each. Run with -race.
func TestDeliveryTraceComposesPerCall(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
	c, client := startPlain(t)
	metered := *client
	metered.HTTP = &http.Client{Transport: passThrough{client.HTTP.Transport}}
	epr := c.EPR("/echo")
	body := xmlutil.NewText("urn:echo", "Echo", "hi")
	conns := func() int64 { return obs.DeliveryConnsDialed.Value() + obs.DeliveryConnsReused.Value() }
	for name, base := range map[string]*Client{"direct": client, "metered": &metered} {
		t.Run(name, func(t *testing.T) {
			delivery := base.ForDelivery(DeliveryPooled)
			deliver := func() {
				if _, err := delivery.CallContext(context.Background(), epr, "urn:echo/Echo", body); err != nil {
					t.Error(err)
				}
			}
			before := conns()
			deliver()
			if d := conns() - before; d != 1 {
				t.Fatalf("delivery accounting saw %d connections, want 1", d)
			}
			// A plain call is not a delivery.
			before = conns()
			if _, err := base.Call(epr, "urn:echo/Echo", body); err != nil {
				t.Fatal(err)
			}
			if d := conns() - before; d != 0 {
				t.Fatalf("a plain call counted %d delivery connections", d)
			}

			const workers, rounds = 4, 5
			before = conns()
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < rounds; j++ {
						deliver()
					}
				}()
			}
			wg.Wait()
			if d := conns() - before; d != workers*rounds {
				t.Fatalf("%d concurrent deliveries counted %d connections", workers*rounds, d)
			}
		})
	}
}
