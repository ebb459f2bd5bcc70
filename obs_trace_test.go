// Cross-process trace stitching, end to end: a counter Set travels
// client → producer container → notification delivery → consumer
// container, and the finished traces from the two containers stitch
// back into one logical trace over the WS-Addressing MessageID the
// delivery carried. This is the observability tentpole's acceptance
// path: every pipeline stage the request crossed shows up as a named
// span in a single stitched trace.
package altstacks_test

import (
	"testing"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/counter"
	"altstacks/internal/obs"
	"altstacks/internal/wsa"
	"altstacks/internal/xmldb"
)

func TestCrossProcessTrace(t *testing.T) {
	obs.Enable()
	obs.ResetTraces()
	defer func() {
		obs.Disable()
		obs.ResetTraces()
	}()

	c := container.New(container.SecurityNone)
	client := container.NewClient(container.ClientConfig{})
	counter.InstallWSRF(c, xmldb.NewMemory(xmldb.CostModel{}), client)
	base, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cl := &counter.WSRFClient{C: client, Service: wsa.NewEPR(base + "/counter")}
	epr, err := cl.Create(counter.Representation(1))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := cl.SubscribeValueChanged(epr)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Cancel() //nolint:errcheck

	if err := cl.Set(epr, counter.Representation(2)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stream.Events():
	case <-time.After(5 * time.Second):
		t.Fatal("notification never arrived")
	}

	// The consumer's dispatch span ends when its serveHTTP returns,
	// before the reply is written, but the stitched trace also waits on
	// the producer's spans, which end after it reads that reply — poll
	// until the stitched trace is complete.
	trace, ok := awaitStitchedTrace(t, 2*time.Second)
	if !ok {
		t.Fatalf("no stitched trace with a wsn.deliver span; traces:\n%s", dumpTraces())
	}

	// The Set request must have crossed at least five named stages, the
	// delivery hop into the consumer container among them.
	stages := map[string]bool{}
	for _, s := range trace.Spans {
		stages[s.Name] = true
	}
	want := []string{"container.dispatch", "handler", "xmldb.update", "wsn.notify", "wsn.deliver", "xmlutil.serialize"}
	found := 0
	for _, name := range want {
		if stages[name] {
			found++
		}
	}
	if found < 5 {
		t.Fatalf("stitched trace names %d of the expected stages %v, want >= 5; got %v", found, want, stages)
	}

	// MessageID/RelatesTo linkage: the deliver span carries the
	// MessageID the producer stamped on the outbound Notify, the
	// consumer's response relates back to that same id, and the absorbed
	// consumer dispatch root — the only container.dispatch span with a
	// parent — hangs under the deliver span with the matching inbound id.
	deliver := trace.Span("wsn.deliver")
	if deliver == nil {
		t.Fatal("stitched trace has no wsn.deliver span")
	}
	if deliver.MessageID == "" {
		t.Fatal("deliver span carries no MessageID")
	}
	if deliver.RelatesTo != deliver.MessageID {
		t.Fatalf("deliver span RelatesTo = %q, want its own MessageID %q", deliver.RelatesTo, deliver.MessageID)
	}
	var downstream *obs.SpanData
	for i := range trace.Spans {
		s := &trace.Spans[i]
		if s.Name == "container.dispatch" && s.Parent != "" {
			downstream = s
			break
		}
	}
	if downstream == nil {
		t.Fatalf("stitched trace absorbed no downstream dispatch root; spans: %v", stages)
	}
	if downstream.Parent != deliver.ID {
		t.Fatalf("downstream dispatch parented under %q, want the deliver span %q", downstream.Parent, deliver.ID)
	}
	if downstream.MessageID != deliver.MessageID {
		t.Fatalf("downstream dispatch saw MessageID %q, deliver sent %q", downstream.MessageID, deliver.MessageID)
	}
}

// awaitStitchedTrace polls the trace ring until stitching yields a
// trace that contains a wsn.deliver span together with an absorbed
// downstream dispatch (a container.dispatch span with a parent).
func awaitStitchedTrace(t *testing.T, timeout time.Duration) (obs.TraceData, bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for _, tr := range obs.Stitch(obs.Traces()) {
			if tr.Span("wsn.deliver") == nil {
				continue
			}
			for _, s := range tr.Spans {
				if s.Name == "container.dispatch" && s.Parent != "" {
					return tr, true
				}
			}
		}
		if time.Now().After(deadline) {
			return obs.TraceData{}, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func dumpTraces() string {
	data, err := obs.TracesJSON()
	if err != nil {
		return err.Error()
	}
	return string(data)
}
