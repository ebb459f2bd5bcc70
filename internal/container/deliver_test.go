package container

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

// faultService answers every action with a fault whose reason and
// detail text are the request body's text, so concurrent exchanges put
// different bytes of the same length through the pooled buffers.
func faultService() *Service {
	return &Service{
		Path: "/faulty",
		Actions: map[string]ActionFunc{
			"urn:echo/Fail": func(ctx *Ctx) (*xmlutil.Element, error) {
				said := ctx.Envelope.Body.TrimText()
				return nil, &soap.Fault{Code: soap.FaultClient, Reason: "refused " + said, Actor: "actor-" + said,
					Detail: xmlutil.NewText("urn:why", "Why", said).SetAttr("urn:why", "n", said)}
			},
		},
	}
}

// TestDeliverFaultOutlivesBuffers: a fault returned from a one-way
// delivery is checked in place, over a pooled buffer and a reused
// parser arena, so it must have been copied out. Every fault is read
// again after later exchanges have reused those buffers; run with
// -race -count=10.
func TestDeliverFaultOutlivesBuffers(t *testing.T) {
	c := New(SecurityNone)
	c.Register(faultService())
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	delivery := NewClient(ClientConfig{}).ForDelivery(DeliveryPooled)
	epr := c.EPR("/faulty")

	const workers, rounds = 4, 25
	faults := make([][]*soap.Fault, workers)
	var wg sync.WaitGroup
	for w := range faults {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				said := fmt.Sprintf("w%d-%04d", w, i)
				err := delivery.Deliver(context.Background(), epr, "urn:echo/Fail", nil, xmlutil.NewText("urn:echo", "Echo", said))
				var f *soap.Fault
				if !errors.As(err, &f) {
					t.Errorf("Deliver = %v, want a *soap.Fault", err)
					return
				}
				faults[w] = append(faults[w], f)
			}
		}()
	}
	wg.Wait()
	for w, fs := range faults {
		for i, f := range fs {
			said := fmt.Sprintf("w%d-%04d", w, i)
			if f.Code != soap.FaultClient || f.Reason != "refused "+said || f.Actor != "actor-"+said {
				t.Fatalf("fault %s changed after later exchanges: %+v", said, f)
			}
			d := f.Detail
			if d == nil || d.Name.Space != "urn:why" || d.Name.Local != "Why" || d.Text != said || d.AttrValue("urn:why", "n") != said {
				t.Fatalf("fault %s detail changed after later exchanges: %v", said, d)
			}
		}
	}
}

// TestAckCheckAllocs pins the cost of checking one acknowledgement in
// place, as every unsigned one-way delivery does: a plain reply parses
// into the reused arena over the response bytes, with nothing copied
// and nothing kept.
func TestAckCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled parsers at random")
	}
	ack := soap.New(xmlutil.New(nsNT, "NotifyResponse"))
	wsa.StampReply(ack, "urn:uuid:00000000-0000-4000-8000-000000000001", nsNT+"/NotifyResponse")
	data := ack.Marshal()
	if err := checkAck(data, http.StatusOK, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := checkAck(data, http.StatusOK, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("ack check = %.0f allocs, want 0", allocs)
	}
}

// TestDeliverErrorsReadAsCall: the direct transport call keeps the
// error text http.Client.Do gave a failed exchange, which fan-out
// errors and flight-recorder events carry, and a delivery timeout still
// reads as a context deadline.
func TestDeliverErrorsReadAsCall(t *testing.T) {
	delivery := NewClient(ClientConfig{}).ForDelivery(DeliveryPooled)
	body := xmlutil.NewText("urn:echo", "Echo", "x")
	const dead = "http://127.0.0.1:1/consumer"
	err := delivery.Deliver(context.Background(), wsa.NewEPR(dead), "urn:echo/Echo", nil, body)
	if want := `container: urn:echo/Echo: Post "` + dead + `": `; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want prefix %q", err, want)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stall := make(chan struct{})
	defer close(stall)
	go http.Serve(ln, http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-stall })) //nolint:errcheck
	slow := wsa.NewEPR("http://" + ln.Addr().String() + "/consumer")
	// A timeout that never fires ends at the cancel instead, which
	// reads as context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(5*time.Second, cancel).Stop()
	for name, call := range map[string]func(*Client) error{
		"Deliver": func(c *Client) error { return c.Deliver(ctx, slow, "urn:echo/Echo", nil, body) },
		"Call":    func(c *Client) error { _, err := c.CallContext(ctx, slow, "urn:echo/Echo", body); return err },
	} {
		err := call(delivery.WithTimeout(50 * time.Millisecond))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s past its timeout = %v, want a context.DeadlineExceeded", name, err)
		}
	}
}
