package wse

import (
	"testing"
	"time"

	"altstacks/internal/faultinject"
)

// pipelinedSink starts a source whose deliveries go through a fault
// injector, and an HTTP sink with three push subscriptions, so each
// Publish delivers to it as one pipelined run of three.
func pipelinedSink(t *testing.T) (*Source, *faultinject.Injector, *HTTPSink) {
	t.Helper()
	src, client, source := startSource(t, "")
	fastRetry(src)
	in := faultinject.New()
	src.HTTP = in.WrapClient(src.HTTP)
	sink := httpSink(t)
	for i := 0; i < 3; i++ {
		if _, err := Subscribe(client, source, SubscribeOptions{NotifyTo: sink.EPR()}); err != nil {
			t.Fatal(err)
		}
	}
	return src, in, sink
}

// expectNoEvent fails if an event arrives within 100ms.
func expectNoEvent(t *testing.T, sink *HTTPSink) {
	t.Helper()
	select {
	case e := <-sink.Ch:
		t.Fatalf("unexpected event: %+v", e)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestPublishFaultsOnPipelinedRun drives the fault plans against a run
// of three HTTP push deliveries to one sink, as
// wsn's TestNotifyFaultsOnPipelinedRun does for Notify.
func TestPublishFaultsOnPipelinedRun(t *testing.T) {
	t.Run("FailFirst", func(t *testing.T) {
		src, in, sink := pipelinedSink(t)
		in.Set(sink.EPR().Address, faultinject.Plan{FailFirst: 1})
		if n, err := src.Publish("t", jobDone("0")); n != 3 || err != nil {
			t.Fatalf("Publish = %d, %v; want 3, nil", n, err)
		}
		for i := 0; i < 3; i++ {
			recvEvent(t, sink.Ch)
		}
		expectNoEvent(t, sink)
		if st := src.DeliveryStats(); st.Attempts != 6 || st.Retries != 3 || st.Deliveries != 3 || st.Failures != 0 {
			t.Fatalf("stats = %+v; want 6 attempts, 3 retries, 3 deliveries, 0 failures", st)
		}
		if calls := in.Calls(sink.EPR().Address); calls != 4 {
			t.Fatalf("Calls = %d, want 4: the failed first, then the run of three", calls)
		}
	})

	t.Run("DropFirst", func(t *testing.T) {
		src, in, sink := pipelinedSink(t)
		src.DeliveryTimeout = 100 * time.Millisecond
		in.Set(sink.EPR().Address, faultinject.Plan{DropFirst: 1})
		t0 := time.Now()
		n, err := src.Publish("t", jobDone("0"))
		elapsed := time.Since(t0)
		if n != 3 || err != nil {
			t.Fatalf("Publish = %d, %v; want 3, nil", n, err)
		}
		if elapsed < src.DeliveryTimeout || elapsed >= 2*src.DeliveryTimeout {
			t.Fatalf("a dropped run took %v; want one %v timeout", elapsed, src.DeliveryTimeout)
		}
		for i := 0; i < 3; i++ {
			recvEvent(t, sink.Ch)
		}
		if calls := in.Calls(sink.EPR().Address); calls != 4 {
			t.Fatalf("Calls = %d, want 4", calls)
		}
	})

	t.Run("FailAll", func(t *testing.T) {
		src, in, sink := pipelinedSink(t)
		src.EvictAfter = 2
		in.Set(sink.EPR().Address, faultinject.Plan{FailAll: true})
		for i := 0; i < src.EvictAfter; i++ {
			if n, err := src.Publish("t", jobDone("x")); n != 0 || err == nil {
				t.Fatalf("Publish %d = %d, %v; want 0 and an error", i, n, err)
			}
		}
		if left := len(src.Store.All()); left != 0 {
			t.Fatalf("%d subscriptions survived eviction", left)
		}
		if ev := src.DeliveryStats().Evictions; ev != 3 {
			t.Fatalf("evictions = %d, want 3", ev)
		}
		calls := in.Calls(sink.EPR().Address)
		if want := src.EvictAfter * src.Retry.MaxAttempts; calls != want {
			t.Fatalf("Calls = %d, want %d", calls, want)
		}
		if n, err := src.Publish("t", jobDone("y")); n != 0 || err != nil {
			t.Fatalf("post-eviction Publish = %d, %v; want 0, nil", n, err)
		}
		if c := in.Calls(sink.EPR().Address); c != calls {
			t.Fatalf("evicted sink was called again (%d calls, was %d)", c, calls)
		}
	})
}
