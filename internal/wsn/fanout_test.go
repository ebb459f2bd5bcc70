package wsn

import (
	"strings"
	"sync"
	"testing"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// startProducerDB is startProducer with the backing database exposed,
// for tests that assert access patterns against CollectionStats.
func startProducerDB(t *testing.T) (*Producer, *xmldb.DB, *container.Client, wsa.EPR) {
	t.Helper()
	c := container.New(container.SecurityNone)
	client := container.NewClient(container.ClientConfig{})
	db := xmldb.NewMemory(xmldb.CostModel{})
	p := NewProducer(db, "subs",
		func() string { return c.BaseURL() + "/manager" }, client)
	svc := &container.Service{Path: "/producer", Actions: map[string]container.ActionFunc{}}
	for a, fn := range p.ProducerPortType().Actions() {
		svc.Actions[a] = fn
	}
	c.Register(svc)
	c.Register(p.ManagerService("/manager"))
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return p, db, client, c.EPR("/producer")
}

// slowConsumer is a notification endpoint whose handler stalls, for
// exercising the per-delivery timeout.
func slowConsumer(t *testing.T, delay time.Duration) wsa.EPR {
	t.Helper()
	c := container.New(container.SecurityNone)
	c.Register(&container.Service{
		Path: "/slow",
		Actions: map[string]container.ActionFunc{
			ActionNotify: func(*container.Ctx) (*xmlutil.Element, error) {
				time.Sleep(delay)
				return xmlutil.New(NSNT, "NotifyResponse"), nil
			},
		},
	})
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c.EPR("/slow")
}

// TestNotifyFanOutMixedConsumers drives the concurrent fan-out through
// a subscriber set mixing healthy, unreachable, and topic-filtered
// consumers: the healthy ones must all be delivered to, the dead one
// must surface as the error without suppressing other deliveries, and
// (unlike wse) no subscription is cancelled on failure.
func TestNotifyFanOutMixedConsumers(t *testing.T) {
	p, _, client, producer := startProducerDB(t)
	p.Workers = 8

	good := []*Consumer{newConsumer(t), newConsumer(t), newConsumer(t)}
	for _, cons := range good {
		if _, err := Subscribe(client, producer, cons.EPR(),
			SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
			t.Fatal(err)
		}
	}
	// Unreachable consumer: registration succeeds (the producer does not
	// probe the EPR), delivery fails.
	dead := wsa.NewEPR("http://127.0.0.1:1/consumer")
	if _, err := Subscribe(client, producer, dead,
		SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
		t.Fatal(err)
	}
	// Filtered consumer: different topic, never matched.
	filtered := newConsumer(t)
	if _, err := Subscribe(client, producer, filtered.EPR(),
		SubscribeOptions{Topic: Concrete("job/other")}); err != nil {
		t.Fatal(err)
	}

	n, err := p.Notify("job/exited", jobExited(0))
	if n != 3 {
		t.Fatalf("delivered %d, want 3", n)
	}
	if err == nil {
		t.Fatal("expected a delivery error from the unreachable consumer")
	}
	for _, cons := range good {
		if got := recv(t, cons); got.Topic != "job/exited" {
			t.Fatalf("topic = %q", got.Topic)
		}
	}
	expectNone(t, filtered)

	// One failed publish is below the EvictAfter threshold, so the
	// subscription survives: the consumer may come back, and only
	// EvictAfter consecutive failures terminate it through the
	// resource-lifetime path.
	subs, err := p.Subscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 5 {
		t.Fatalf("got %d subscriptions after failed delivery, want 5", len(subs))
	}
}

// TestNotifyFirstErrorInSubscriptionOrder pins the error-reporting
// contract: with several failing deliveries racing on the pool, Notify
// returns the failure of the earliest matched subscription, exactly as
// the sequential dispatch did.
func TestNotifyFirstErrorInSubscriptionOrder(t *testing.T) {
	p, _, client, producer := startProducerDB(t)
	p.Workers = 8

	// Two distinct unreachable consumers; which sorts first depends on
	// the generated subscription IDs, so recover the order from the
	// producer and check the error against it.
	for _, addr := range []string{"http://127.0.0.1:1/a", "http://127.0.0.1:1/b"} {
		if _, err := Subscribe(client, producer, wsa.NewEPR(addr),
			SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
			t.Fatal(err)
		}
	}
	subs, err := p.Subscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("got %d subscriptions, want 2", len(subs))
	}
	first := subs[0].Consumer.Address

	n, err := p.Notify("job/exited", jobExited(0))
	if n != 0 {
		t.Fatalf("delivered %d, want 0", n)
	}
	if err == nil || !strings.Contains(err.Error(), first) {
		t.Fatalf("error %v does not name first subscription %s", err, first)
	}
}

// TestNotifyDeliveryTimeoutBoundsSlowConsumer checks that one stalled
// consumer costs the batch at most DeliveryTimeout, not its own
// response time, and that the healthy deliveries still land.
func TestNotifyDeliveryTimeoutBoundsSlowConsumer(t *testing.T) {
	p, _, client, producer := startProducerDB(t)
	p.Workers = 4
	p.DeliveryTimeout = 150 * time.Millisecond

	slow := slowConsumer(t, 2*time.Second)
	fast := []*Consumer{newConsumer(t), newConsumer(t)}
	for _, epr := range []wsa.EPR{slow, fast[0].EPR(), fast[1].EPR()} {
		if _, err := Subscribe(client, producer, epr,
			SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	n, err := p.Notify("job/exited", jobExited(0))
	elapsed := time.Since(start)
	if n != 2 {
		t.Fatalf("delivered %d, want 2", n)
	}
	if err == nil {
		t.Fatal("expected timeout error from slow consumer")
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("Notify took %v; timeout did not bound the slow delivery", elapsed)
	}
	for _, cons := range fast {
		recv(t, cons)
	}
}

// TestNotifyConcurrentWithSubscriptionChanges races Notify against
// subscription churn — the cache-invalidation window the generation
// counter exists for. Run under -race this is the proof the cache
// fill and the fan-out never trade unsynchronized state.
func TestNotifyConcurrentWithSubscriptionChanges(t *testing.T) {
	p, _, client, producer := startProducerDB(t)
	p.Workers = 4

	cons := newConsumer(t)
	if _, err := Subscribe(client, producer, cons.EPR(),
		SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := p.Notify("job/exited", jobExited(i)); err != nil {
				t.Errorf("Notify: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			mgr, err := Subscribe(client, producer, cons.EPR(),
				SubscribeOptions{Topic: Concrete("job/other")})
			if err != nil {
				t.Errorf("Subscribe: %v", err)
				return
			}
			if err := Unsubscribe(client, mgr); err != nil {
				t.Errorf("Unsubscribe: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// notifyOnce publishes one message, failing the test on any delivery error.
func notifyOnce(t *testing.T, p *Producer) {
	t.Helper()
	if _, err := p.Notify("job/exited", jobExited(0)); err != nil {
		t.Fatal(err)
	}
}

// TestNotifySteadyStateZeroDBReads is the cache acceptance test: after
// one warm-up Notify the subscription collection sees zero further
// reads across repeated Notifies, and each kind of
// subscription change — Subscribe, Pause, Resume, Unsubscribe — forces
// exactly one refill before steady state resumes.
func TestNotifySteadyStateZeroDBReads(t *testing.T) {
	p, db, client, producer := startProducerDB(t)

	cons := newConsumer(t)
	mgr, err := Subscribe(client, producer, cons.EPR(),
		SubscribeOptions{Topic: Concrete("job/exited")})
	if err != nil {
		t.Fatal(err)
	}

	steady := func(label string) {
		t.Helper()
		notifyOnce(t, p) // refill after whatever just changed
		before := db.CollectionStats("subs")
		for i := 0; i < 5; i++ {
			notifyOnce(t, p)
		}
		after := db.CollectionStats("subs")
		if after.Reads != before.Reads {
			t.Fatalf("%s: steady-state Notify touched the database: reads %d→%d",
				label, before.Reads, after.Reads)
		}
	}
	invalidates := func(label string, change func()) {
		t.Helper()
		notifyOnce(t, p) // ensure the cache is warm before the change
		change()
		before := db.CollectionStats("subs")
		notifyOnce(t, p)
		after := db.CollectionStats("subs")
		if after.Reads == before.Reads {
			t.Fatalf("%s did not invalidate the subscription cache", label)
		}
	}

	steady("initial")
	invalidates("Pause", func() {
		if err := Pause(client, mgr); err != nil {
			t.Fatal(err)
		}
	})
	steady("after pause")
	invalidates("Resume", func() {
		if err := Resume(client, mgr); err != nil {
			t.Fatal(err)
		}
	})
	steady("after resume")
	var mgr2 wsa.EPR
	invalidates("Subscribe", func() {
		var err error
		mgr2, err = Subscribe(client, producer, cons.EPR(),
			SubscribeOptions{Topic: Concrete("job/exited")})
		if err != nil {
			t.Fatal(err)
		}
	})
	steady("after subscribe")
	invalidates("Unsubscribe", func() {
		if err := Unsubscribe(client, mgr2); err != nil {
			t.Fatal(err)
		}
	})
	steady("after unsubscribe")
}

// TestCurrentMessageWriteThrough pins the persistence side of the
// Notify hot path: each dispatched notification writes the topic's
// current message through to the database (one Update, no reads), a
// publish nobody subscribes to materializes nothing, and a cold
// producer serves GetCurrentMessage from the persisted copy.
func TestCurrentMessageWriteThrough(t *testing.T) {
	p, db, client, producer := startProducerDB(t)

	// No subscribers: nothing is dispatched, nothing is materialized.
	notifyOnce(t, p)
	if s := db.CollectionStats("subs-current"); s.Updates != 0 {
		t.Fatalf("undispatched Notify wrote %d current-message updates", s.Updates)
	}

	cons := newConsumer(t)
	if _, err := Subscribe(client, producer, cons.EPR(),
		SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
		t.Fatal(err)
	}
	notifyOnce(t, p)
	s := db.CollectionStats("subs-current")
	if s.Updates != 1 || s.Reads != 0 {
		t.Fatalf("dispatched Notify: %d updates, %d reads; want 1 write-through, 0 reads", s.Updates, s.Reads)
	}

	// Cold producer: drop the in-memory copy; GetCurrentMessage must
	// fall back to the database.
	p.lastMu.Lock()
	p.lastMessage = nil
	p.lastMu.Unlock()
	msg, err := GetCurrentMessage(client, producer, "job/exited")
	if err != nil {
		t.Fatal(err)
	}
	if msg.ChildText(nsJob, "ExitCode") != "0" {
		t.Fatalf("persisted current message corrupted: %s", msg.Marshal())
	}
}

// TestNotifySharedWrappedBodyIsIsolated guards the marshal-once
// optimization: concurrent deliveries serialize from one shared body
// tree, so the messages on the wire must still be complete, identical
// envelopes (soap.New clones at marshal time — if that ever changes,
// this fails under -race or produces torn XML).
func TestNotifySharedWrappedBodyIsIsolated(t *testing.T) {
	p, _, client, producer := startProducerDB(t)
	p.Workers = 8

	consumers := make([]*Consumer, 6)
	for i := range consumers {
		consumers[i] = newConsumer(t)
		if _, err := Subscribe(client, producer, consumers[i].EPR(),
			SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := p.Notify("job/exited", jobExited(42))
	if err != nil || n != len(consumers) {
		t.Fatalf("Notify = %d, %v", n, err)
	}
	for _, cons := range consumers {
		got := recv(t, cons)
		if got.Message == nil ||
			got.Message.ChildText(nsJob, "ExitCode") != "42" {
			t.Fatalf("payload corrupted: %s", got.Message.Marshal())
		}
	}
	// The producer's own copy must be untouched by deliveries (soap
	// marshalling clones; nothing may have grafted namespaces onto it).
	env := soap.New(jobExited(42))
	if env.Body == nil {
		t.Fatal("sanity: envelope lost its body")
	}
}

// TestPauseReparsesOnlyChangedSubscription pins the per-document
// cache-invalidation win on the Notify path: pausing one subscription
// re-parses exactly that subscription's document on the next refill.
// Under whole-collection invalidation the Pause write evicted every
// parsed subscription, so the refill re-parsed all of them.
func TestPauseReparsesOnlyChangedSubscription(t *testing.T) {
	p, db, client, producer := startProducerDB(t)

	const subs = 5
	var mgrs []wsa.EPR
	for i := 0; i < subs; i++ {
		cons := newConsumer(t)
		mgr, err := Subscribe(client, producer, cons.EPR(),
			SubscribeOptions{Topic: Concrete("job/exited")})
		if err != nil {
			t.Fatal(err)
		}
		mgrs = append(mgrs, mgr)
	}
	notifyOnce(t, p) // warm: every subscription document parsed

	before := db.CollectionStats("subs").Parses
	if err := Pause(client, mgrs[2]); err != nil {
		t.Fatal(err)
	}
	notifyOnce(t, p) // refill reads all subs docs again
	after := db.CollectionStats("subs").Parses
	if got := after - before; got != 1 {
		t.Fatalf("refill after pausing 1 of %d subscriptions re-parsed %d documents, want 1",
			subs, got)
	}
}
