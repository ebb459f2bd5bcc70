package wsn

import (
	"errors"
	"testing"
	"time"

	"altstacks/internal/faultinject"
	"altstacks/internal/obs"
	"altstacks/internal/retry"
	"altstacks/internal/xmldb"
)

// refusingDeletes is a backend that has stopped accepting deletes in
// one collection.
type refusingDeletes struct {
	xmldb.Backend
	collection string
}

func (b refusingDeletes) CondDelete(collection, id string) (bool, error) {
	if collection == b.collection {
		return false, errors.New("backend refuses delete")
	}
	return b.Backend.CondDelete(collection, id)
}

// TestEvictionCountsFailedDestroy pins that an eviction whose Destroy
// fails for a reason other than "already gone" is counted as a failed
// state write, not dropped silently; no eviction is counted, since the
// subscription survives.
func TestEvictionCountsFailedDestroy(t *testing.T) {
	p, _, client, producer := startProducerDB(t)
	p.Subs.DB = xmldb.New(refusingDeletes{xmldb.NewMemoryBackend(), "subs"}, xmldb.CostModel{})
	p.Retry = retry.Policy{MaxAttempts: 1}
	p.EvictAfter = 1
	in := faultinject.New()
	p.Deliver = in.WrapClient(p.Deliver)

	dead := newConsumer(t)
	if _, err := Subscribe(client, producer, dead.EPR(),
		SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
		t.Fatal(err)
	}
	in.Set(dead.EPR().Address, faultinject.Plan{FailAll: true})

	if _, err := p.Notify("job/exited", jobExited(0)); err == nil {
		t.Fatal("expected delivery failure")
	}
	st := p.DeliveryStats()
	if st.StateWriteErrors != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v; want 1 state-write error and no eviction", st)
	}
	if subs, _ := p.Subscriptions(); len(subs) != 1 {
		t.Fatalf("%d subscriptions; the refused destroy must leave 1", len(subs))
	}
}

// TestDeliveryCountersMirrorStats pins the registry families against
// the per-instance stats: over one Notify to a healthy and a dead
// consumer (retried, then evicted), each ogsa_wsn_* delivery family
// moves by exactly the matching DeliveryStats/MessagesSent delta.
// Deltas, and no t.Parallel, because the registry is process-wide.
func TestDeliveryCountersMirrorStats(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	p, _, client, producer := startProducerDB(t)
	p.Retry = retry.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	p.EvictAfter = 1
	in := faultinject.New()
	p.Deliver = in.WrapClient(p.Deliver)

	good := newConsumer(t)
	dead := newConsumer(t)
	for _, cons := range []*Consumer{good, dead} {
		if _, err := Subscribe(client, producer, cons.EPR(),
			SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
			t.Fatal(err)
		}
	}
	in.Set(dead.EPR().Address, faultinject.Plan{FailAll: true})

	reg0, st0, sent0 := obs.Values(), p.DeliveryStats(), p.MessagesSent()
	if n, err := p.Notify("job/exited", jobExited(0)); n != 1 || err == nil {
		t.Fatalf("Notify = %d, %v; want 1 delivered and the dead consumer's error", n, err)
	}
	recv(t, good)
	reg1, st1, sent1 := obs.Values(), p.DeliveryStats(), p.MessagesSent()

	if st1.Attempts-st0.Attempts != 3 || st1.Evictions-st0.Evictions != 1 {
		t.Fatalf("stats moved %+v -> %+v; want 3 attempts and 1 eviction", st0, st1)
	}
	for family, want := range map[string]int64{
		"ogsa_wsn_delivery_attempts_total":  st1.Attempts - st0.Attempts,
		"ogsa_wsn_retries_total":            st1.Retries - st0.Retries,
		"ogsa_wsn_deliveries_total":         st1.Deliveries - st0.Deliveries,
		"ogsa_wsn_delivery_failures_total":  st1.Failures - st0.Failures,
		"ogsa_wsn_filter_errors_total":      st1.FilterErrors - st0.FilterErrors,
		"ogsa_wsn_evictions_total":          st1.Evictions - st0.Evictions,
		"ogsa_wsn_state_write_errors_total": st1.StateWriteErrors - st0.StateWriteErrors,
		"ogsa_wsn_coalesced_batches_total":  st1.CoalescedBatches - st0.CoalescedBatches,
		"ogsa_wsn_messages_sent_total":      sent1 - sent0,
	} {
		if got := reg1[family] - reg0[family]; got != want {
			t.Errorf("%s moved %d, DeliveryStats moved %d", family, got, want)
		}
	}
}
