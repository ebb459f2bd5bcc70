package wsn

import (
	"context"
	"strings"
	"testing"
	"time"

	"altstacks/internal/faultinject"
	"altstacks/internal/obs"
	"altstacks/internal/wsa"
)

// pipelinedConsumer starts a producer whose deliveries go through a
// fault injector, and a consumer with three subscriptions, so each
// Notify delivers to it as one pipelined run of three.
func pipelinedConsumer(t *testing.T) (*Producer, *faultinject.Injector, *Consumer) {
	t.Helper()
	p, _, client, producer := startProducerDB(t)
	fastRetry(p)
	in := faultinject.New()
	p.Deliver = in.WrapClient(p.Deliver)
	cons := newConsumer(t)
	for i := 0; i < 3; i++ {
		if _, err := Subscribe(client, producer, cons.EPR(), SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
			t.Fatal(err)
		}
	}
	return p, in, cons
}

// TestNotifyFaultsOnPipelinedRun drives the fault plans against a run
// of three deliveries to one consumer. A first call that fails fails
// the run whole, and the retry delivers each notification once; a
// dropped first call costs the publish one timeout, not three; a dead
// consumer's three subscriptions are evicted once each, and it is never
// called again.
func TestNotifyFaultsOnPipelinedRun(t *testing.T) {
	t.Run("FailFirst", func(t *testing.T) {
		if !obs.Enabled() {
			obs.Enable()
			t.Cleanup(obs.Disable)
		}
		p, in, cons := pipelinedConsumer(t)
		in.Set(cons.EPR().Address, faultinject.Plan{FailFirst: 1})
		ctx, root := obs.StartSpan(context.Background(), "publish")
		n, err := p.NotifyContext(ctx, "job/exited", jobExited(0))
		root.End()
		if n != 3 || err != nil {
			t.Fatalf("Notify = %d, %v; want 3, nil", n, err)
		}
		for i := 0; i < 3; i++ {
			recv(t, cons)
		}
		expectNone(t, cons)
		if st := p.DeliveryStats(); st.Attempts != 6 || st.Retries != 3 || st.Deliveries != 3 || st.Failures != 0 {
			t.Fatalf("stats = %+v; want 6 attempts, 3 retries, 3 deliveries, 0 failures", st)
		}
		if calls := in.Calls(cons.EPR().Address); calls != 4 {
			t.Fatalf("Calls = %d, want 4: the failed first, then the run of three", calls)
		}
		failed := 0
		for _, tr := range obs.Traces() {
			if tr.ID != root.TraceID() {
				continue
			}
			for _, s := range tr.Spans {
				if s.Name == "wsn.deliver" && len(s.Events) > 0 && strings.HasPrefix(s.Events[0], "attempt 1 failed: ") &&
					strings.Contains(s.Events[0], "faultinject: injected failure on call 0") {
					failed++
				}
			}
		}
		if failed != 3 {
			t.Fatalf("%d of 3 deliveries failed attempt 1 with the injected failure", failed)
		}
	})

	t.Run("DropFirst", func(t *testing.T) {
		p, in, cons := pipelinedConsumer(t)
		p.DeliveryTimeout = 100 * time.Millisecond
		in.Set(cons.EPR().Address, faultinject.Plan{DropFirst: 1})
		t0 := time.Now()
		n, err := p.Notify("job/exited", jobExited(0))
		elapsed := time.Since(t0)
		if n != 3 || err != nil {
			t.Fatalf("Notify = %d, %v; want 3, nil", n, err)
		}
		if elapsed < p.DeliveryTimeout || elapsed >= 2*p.DeliveryTimeout {
			t.Fatalf("a dropped run took %v; want one %v timeout", elapsed, p.DeliveryTimeout)
		}
		for i := 0; i < 3; i++ {
			recv(t, cons)
		}
		if calls := in.Calls(cons.EPR().Address); calls != 4 {
			t.Fatalf("Calls = %d, want 4", calls)
		}
	})

	t.Run("FailAll", func(t *testing.T) {
		p, in, cons := pipelinedConsumer(t)
		p.EvictAfter = 2
		in.Set(cons.EPR().Address, faultinject.Plan{FailAll: true})
		for i := 0; i < p.EvictAfter; i++ {
			if n, err := p.Notify("job/exited", jobExited(i)); n != 0 || err == nil {
				t.Fatalf("Notify %d = %d, %v; want 0 and an error", i, n, err)
			}
		}
		if subs, _ := p.Subscriptions(); len(subs) != 0 {
			t.Fatalf("%d subscriptions survived eviction", len(subs))
		}
		if ev := p.DeliveryStats().Evictions; ev != 3 {
			t.Fatalf("evictions = %d, want 3", ev)
		}
		// Each attempt's run fails at its first call.
		calls := in.Calls(cons.EPR().Address)
		if want := p.EvictAfter * p.Retry.MaxAttempts; calls != want {
			t.Fatalf("Calls = %d, want %d", calls, want)
		}
		if n, err := p.Notify("job/exited", jobExited(9)); n != 0 || err != nil {
			t.Fatalf("post-eviction Notify = %d, %v; want 0, nil", n, err)
		}
		if c := in.Calls(cons.EPR().Address); c != calls {
			t.Fatalf("evicted consumer was called again (%d calls, was %d)", c, calls)
		}
	})
}

// TestNotifyRefusedConsumerAddress: a consumer address the client
// refuses (here, one with an escape) fails its delivery, which is
// counted, and the subscription is evicted like any dead consumer's.
func TestNotifyRefusedConsumerAddress(t *testing.T) {
	p, _, client, producer := startProducerDB(t)
	fastRetry(p)
	p.EvictAfter = 2
	bad := wsa.NewEPR("http://127.0.0.1:1/a%20b")
	if _, err := Subscribe(client, producer, bad, SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.EvictAfter; i++ {
		n, err := p.Notify("job/exited", jobExited(i))
		if n != 0 || err == nil || !strings.Contains(err.Error(), `"`+bad.Address+`"`) {
			t.Fatalf("Notify %d = %d, %v; want 0 and an error naming the address", i, n, err)
		}
	}
	st := p.DeliveryStats()
	if st.Failures != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v; want 2 failures and 1 eviction", st)
	}
	if subs, _ := p.Subscriptions(); len(subs) != 0 {
		t.Fatal("the refused address's subscription survived eviction")
	}
}
