// Exemplar resolution end to end: the deliver-stage histogram's
// exemplar — the trace id stamped on the slowest observed delivery —
// must resolve to a retained trace that stitches across the process
// boundary (producer dispatch through wsn.deliver into the absorbed
// consumer dispatch). This is what makes `gridctl top`'s SLOWEST
// EXEMPLAR column actionable: the id it prints pulls a full span tree.
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

func TestDeliverExemplarResolvesToStitchedTrace(t *testing.T) {
	obs.Enable()
	obs.ResetTraces()
	defer func() {
		obs.Disable()
		obs.ResetTraces()
	}()

	c := container.New(container.SecurityNone)
	client := container.NewClient(container.ClientConfig{})
	counter.InstallWSRF(c, xmldb.NewMemory(xmldb.CostModel{}), client)
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cl := &counter.WSRFClient{C: client, Service: wsa.NewEPR(c.BaseURL() + "/counter")}
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

	stitched, ok := awaitStitchedTrace(t, 2*time.Second)
	if !ok {
		t.Fatalf("no stitched cross-process trace; traces:\n%s", dumpTraces())
	}

	// The delivery wrote its exemplar into whichever bucket its latency
	// landed in; that exemplar's trace id must be the stitched trace's.
	var ex *obs.Exemplar
	for _, e := range obs.StageDeliver.Snapshot().Exemplars {
		if e != nil && e.TraceID == stitched.ID {
			ex = e
		}
	}
	if ex == nil {
		t.Fatalf("no deliver exemplar points at the stitched trace %s; exemplars: %+v",
			stitched.ID, obs.StageDeliver.Snapshot().Exemplars)
	}

	// And the exemplar's MessageID is the correlation key the stitch
	// joined on: the deliver span's outbound WS-Addressing MessageID.
	deliver := stitched.Span("wsn.deliver")
	if deliver == nil {
		t.Fatal("stitched trace lost its deliver span")
	}
	if ex.MessageID == "" || ex.MessageID != deliver.MessageID {
		t.Fatalf("exemplar MessageID %q != deliver span's %q", ex.MessageID, deliver.MessageID)
	}
	if ex.Value <= 0 {
		t.Fatalf("exemplar value %v not a positive latency", ex.Value)
	}
}
