package wse

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"altstacks/internal/faultinject"
	"altstacks/internal/obs"
	"altstacks/internal/retry"
)

// blockStoreWrites takes the store's temp-file path with a directory,
// so every later flat-file rewrite fails.
func blockStoreWrites(t *testing.T, path string) {
	t.Helper()
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
}

// TestSweepCountsFailedStoreWrite pins that a removal whose flat-file
// rewrite fails is accounted: the subscription is already gone from
// memory, so the failed write is a state-write error rather than a
// silent loss (a restart would reload the removed subscription).
func TestSweepCountsFailedStoreWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.xml")
	src, client, source := startSource(t, path)
	sink := httpSink(t)
	// Already lapsed, so the sweep removes it.
	if _, err := Subscribe(client, source, SubscribeOptions{
		NotifyTo: sink.EPR(),
		Expires:  time.Now().Add(-time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	blockStoreWrites(t, path)

	if n := src.SweepExpired(); n != 1 {
		t.Fatalf("SweepExpired removed %d, want 1", n)
	}
	if got := src.DeliveryStats().StateWriteErrors; got != 1 {
		t.Fatalf("StateWriteErrors = %d after a failed sweep write, want 1", got)
	}
}

// TestUnsubscribeFailedStoreWriteStillCleansUp pins the unsubscribe
// side of the same fault: the caller gets the fault, the failed write
// is counted, and the removed subscription's ledger entry is dropped
// instead of lingering in memory.
func TestUnsubscribeFailedStoreWriteStillCleansUp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.xml")
	src, client, source := startSource(t, path)
	src.Retry = retry.Policy{MaxAttempts: 1}
	in := faultinject.New()
	src.HTTP = in.WrapClient(src.HTTP)
	sink := httpSink(t)
	res, err := Subscribe(client, source, SubscribeOptions{NotifyTo: sink.EPR()})
	if err != nil {
		t.Fatal(err)
	}
	id := src.Store.All()[0].ID
	in.Set(sink.EPR().Address, faultinject.Plan{FailAll: true})
	if _, err := src.Publish("t", jobDone("0")); err == nil {
		t.Fatal("expected delivery failure")
	}
	if h := src.Health(id); h.ConsecutiveFailures != 1 {
		t.Fatalf("health = %+v; want one recorded failure", h)
	}
	blockStoreWrites(t, path)

	if err := Unsubscribe(client, res.Manager); err == nil {
		t.Fatal("Unsubscribe succeeded despite the failed store write")
	}
	if got := src.DeliveryStats().StateWriteErrors; got != 1 {
		t.Fatalf("StateWriteErrors = %d, want 1", got)
	}
	if h := src.Health(id); !h.IsZero() {
		t.Fatalf("ledger entry survived the removal: %+v", h)
	}
}

// TestPublishConcurrentEvictionCountsOnce races publishes against a
// permanently dead sink with EvictAfter 1: whichever fan-out removes
// the subscription counts the eviction and sends the one
// SubscriptionEnd; the rest find it gone. Under -race this also proves
// the health ledger's locking.
func TestPublishConcurrentEvictionCountsOnce(t *testing.T) {
	src, client, source := startSource(t, "")
	src.Retry = retry.Policy{MaxAttempts: 1}
	src.EvictAfter = 1
	in := faultinject.New()
	src.HTTP = in.WrapClient(src.HTTP)

	dead := httpSink(t)
	endSink := httpSink(t)
	if _, err := Subscribe(client, source, SubscribeOptions{
		NotifyTo: dead.EPR(),
		EndTo:    endSink.EPR(),
	}); err != nil {
		t.Fatal(err)
	}
	in.Set(dead.EPR().Address, faultinject.Plan{FailAll: true})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = src.Publish("t", jobDone("0"))
		}()
	}
	wg.Wait()

	if ev := src.DeliveryStats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want exactly 1", ev)
	}
	if n := len(src.Store.All()); n != 0 {
		t.Fatalf("%d subscriptions survived eviction, want 0", n)
	}
	select {
	case status := <-endSink.Ends:
		if status != StatusDeliveryFailure {
			t.Fatalf("SubscriptionEnd status = %q", status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no SubscriptionEnd arrived at eviction")
	}
	select {
	case status := <-endSink.Ends:
		t.Fatalf("second SubscriptionEnd arrived: %q", status)
	case <-time.After(200 * time.Millisecond):
	}
}

// TestHealthPersistsAcrossSourceRestart pins that the failure ledger
// rides in the flat file: a new store and source over the same path
// see the prior consecutive-failure count, so a restart does not hand a
// dead subscriber a fresh allowance.
func TestHealthPersistsAcrossSourceRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subs.xml")
	src, client, source := startSource(t, path)
	src.Retry = retry.Policy{MaxAttempts: 1}
	in := faultinject.New()
	src.HTTP = in.WrapClient(src.HTTP)

	sink := httpSink(t)
	if _, err := Subscribe(client, source, SubscribeOptions{NotifyTo: sink.EPR()}); err != nil {
		t.Fatal(err)
	}
	id := src.Store.All()[0].ID
	in.Set(sink.EPR().Address, faultinject.Plan{FailAll: true})
	if _, err := src.Publish("t", jobDone("0")); err == nil {
		t.Fatal("expected delivery failure")
	}

	store, err := NewStore(path)
	if err != nil {
		t.Fatal(err)
	}
	src2 := NewSource(store, func() string { return "http://unused/manager" }, client)
	t.Cleanup(src2.TCP.Close)
	if h := src2.Health(id); h.ConsecutiveFailures != 1 || h.LastError == "" {
		t.Fatalf("restarted source health = %+v; want the persisted failure", h)
	}
}

// TestDeliveryCountersMirrorStats pins the registry families against
// the per-instance stats: over one publish to a healthy and a dead
// sink (retried, then evicted), each ogsa_wse_* delivery family moves
// by exactly the matching DeliveryStats/MessagesSent delta. Deltas,
// and no t.Parallel, because the registry is process-wide.
func TestDeliveryCountersMirrorStats(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	src, client, source := startSource(t, "")
	src.Retry = retry.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	src.EvictAfter = 1
	in := faultinject.New()
	src.HTTP = in.WrapClient(src.HTTP)

	good := httpSink(t)
	dead := httpSink(t)
	for _, sink := range []*HTTPSink{good, dead} {
		if _, err := Subscribe(client, source, SubscribeOptions{NotifyTo: sink.EPR()}); err != nil {
			t.Fatal(err)
		}
	}
	in.Set(dead.EPR().Address, faultinject.Plan{FailAll: true})

	reg0, st0, sent0 := obs.Values(), src.DeliveryStats(), src.MessagesSent()
	if n, err := src.Publish("t", jobDone("0")); n != 1 || err == nil {
		t.Fatalf("Publish = %d, %v; want 1 delivered and the dead sink's error", n, err)
	}
	recvEvent(t, good.Ch)
	reg1, st1, sent1 := obs.Values(), src.DeliveryStats(), src.MessagesSent()

	if st1.Attempts-st0.Attempts != 3 || st1.Evictions-st0.Evictions != 1 {
		t.Fatalf("stats moved %+v -> %+v; want 3 attempts and 1 eviction", st0, st1)
	}
	for family, want := range map[string]int64{
		"ogsa_wse_delivery_attempts_total":  st1.Attempts - st0.Attempts,
		"ogsa_wse_retries_total":            st1.Retries - st0.Retries,
		"ogsa_wse_deliveries_total":         st1.Deliveries - st0.Deliveries,
		"ogsa_wse_delivery_failures_total":  st1.Failures - st0.Failures,
		"ogsa_wse_filter_errors_total":      st1.FilterErrors - st0.FilterErrors,
		"ogsa_wse_evictions_total":          st1.Evictions - st0.Evictions,
		"ogsa_wse_state_write_errors_total": st1.StateWriteErrors - st0.StateWriteErrors,
		"ogsa_wse_coalesced_batches_total":  st1.CoalescedBatches - st0.CoalescedBatches,
		"ogsa_wse_end_notice_errors_total":  st1.EndNoticeErrors - st0.EndNoticeErrors,
		"ogsa_wse_messages_sent_total":      sent1 - sent0,
	} {
		if got := reg1[family] - reg0[family]; got != want {
			t.Errorf("%s moved %d, DeliveryStats moved %d", family, got, want)
		}
	}
}
