package wsn

import (
	"context"
	"testing"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/wsa"
	"altstacks/internal/wsrf/rl"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

const nsJob = "urn:jobs"

// startProducer wires a producer (with optional producer properties)
// into a live container.
func startProducer(t *testing.T, props func() *xmlutil.Element) (*Producer, *container.Client, wsa.EPR) {
	t.Helper()
	c := container.New(container.SecurityNone)
	client := container.NewClient(container.ClientConfig{})
	p := NewProducer(xmldb.NewMemory(xmldb.CostModel{}), "subs",
		func() string { return c.BaseURL() + "/manager" }, client)
	p.ProducerProperties = props
	svc := &container.Service{Path: "/producer"}
	svc.Actions = map[string]container.ActionFunc{}
	for a, fn := range p.ProducerPortType().Actions() {
		svc.Actions[a] = fn
	}
	c.Register(svc)
	c.Register(p.ManagerService("/manager"))
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return p, client, c.EPR("/producer")
}

func newConsumer(t *testing.T) *Consumer {
	t.Helper()
	cons, err := NewConsumer(16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cons.Close)
	return cons
}

func recv(t *testing.T, cons *Consumer) core.Event {
	t.Helper()
	select {
	case n := <-cons.Ch:
		return n
	case <-time.After(2 * time.Second):
		t.Fatal("no notification arrived")
		return core.Event{}
	}
}

func expectNone(t *testing.T, cons *Consumer) {
	t.Helper()
	select {
	case n := <-cons.Ch:
		t.Fatalf("unexpected notification: %+v", n)
	case <-time.After(100 * time.Millisecond):
	}
}

func jobExited(code int) *xmlutil.Element {
	return xmlutil.New(nsJob, "JobExited").Add(
		xmlutil.NewText(nsJob, "ExitCode", itoa(code)))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestSubscribeAndNotify(t *testing.T) {
	p, client, producerEPR := startProducer(t, nil)
	cons := newConsumer(t)
	subEPR, err := Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{Topic: Concrete("jobs/exited")})
	if err != nil {
		t.Fatal(err)
	}
	if subEPR.Address == "" {
		t.Fatal("empty subscription EPR")
	}
	n, err := p.Notify("jobs/exited", jobExited(0))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered = %d, want 1", n)
	}
	got := recv(t, cons)
	if got.Topic != "jobs/exited" {
		t.Fatalf("notification = %+v", got)
	}
	if got.Message.ChildText(nsJob, "ExitCode") != "0" {
		t.Fatalf("payload = %s", got.Message)
	}
}

func TestTopicFiltering(t *testing.T) {
	p, client, producerEPR := startProducer(t, nil)
	cons := newConsumer(t)
	if _, err := Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{Topic: Full("jobs//.")}); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Notify("tasks/other", jobExited(0)); n != 0 {
		t.Fatalf("off-topic delivered %d", n)
	}
	expectNone(t, cons)
	if n, _ := p.Notify("jobs/status/exited", jobExited(0)); n != 1 {
		t.Fatal("subtree topic not delivered")
	}
	recv(t, cons)
}

func TestMessageContentFilter(t *testing.T) {
	// Paper §2.2/§2.1: filters "examine message content (e.g., with an
	// XPath query)".
	p, client, producerEPR := startProducer(t, nil)
	cons := newConsumer(t)
	_, err := Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{
		Topic:          Concrete("jobs/exited"),
		MessageContent: "/JobExited[ExitCode!=0]",
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Notify("jobs/exited", jobExited(0)); n != 0 {
		t.Fatal("clean exit should be filtered out")
	}
	if n, _ := p.Notify("jobs/exited", jobExited(2)); n != 1 {
		t.Fatal("failed exit should be delivered")
	}
	got := recv(t, cons)
	if got.Message.ChildText(nsJob, "ExitCode") != "2" {
		t.Fatalf("payload = %s", got.Message)
	}
}

func TestProducerPropertiesFilter(t *testing.T) {
	load := "90"
	props := func() *xmlutil.Element {
		return xmlutil.New(nsJob, "Props").Add(xmlutil.NewText(nsJob, "Load", load))
	}
	p, client, producerEPR := startProducer(t, props)
	cons := newConsumer(t)
	_, err := Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{
		Topic:              Concrete("jobs/exited"),
		ProducerProperties: "/Props[Load>50]",
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Notify("jobs/exited", jobExited(0)); n != 1 {
		t.Fatal("high-load notification filtered out")
	}
	recv(t, cons)
	load = "10"
	if n, _ := p.Notify("jobs/exited", jobExited(0)); n != 0 {
		t.Fatal("low-load notification delivered")
	}
}

func TestRawDelivery(t *testing.T) {
	p, client, producerEPR := startProducer(t, nil)
	cons := newConsumer(t)
	if _, err := Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{
		Topic: Concrete("jobs/exited"), UseRaw: true,
	}); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Notify("jobs/exited", jobExited(3)); n != 1 {
		t.Fatal("raw delivery failed")
	}
	// A raw delivery is the bare payload, with no topic.
	got := recv(t, cons)
	if got.Topic != "" {
		t.Fatalf("notification = %+v", got)
	}
	if got.Message.Name.Local != "JobExited" || got.Message.ChildText(nsJob, "ExitCode") != "3" {
		t.Fatalf("payload = %s", got.Message)
	}
}

// TestConsumerAcceptsMultiMessageNotify posts a Notify carrying two
// NotificationMessages, which the spec lets a foreign producer send:
// the consumer surfaces both, in order.
func TestConsumerAcceptsMultiMessageNotify(t *testing.T) {
	cons := newConsumer(t)
	body := xmlutil.New(NSNT, "Notify")
	for i, topic := range []string{"job/exited", "job/started"} {
		body.Add(buildNotify(topic, jobExited(i)).Children...)
	}
	client := container.NewClient(container.ClientConfig{})
	if err := client.Deliver(context.Background(), cons.EPR(), ActionNotify, nil, body); err != nil {
		t.Fatal(err)
	}
	for i, topic := range []string{"job/exited", "job/started"} {
		got := recv(t, cons)
		if got.Topic != topic || got.Message.ChildText(nsJob, "ExitCode") != itoa(i) {
			t.Fatalf("notification %d = %+v, want topic %q code %d", i, got, topic, i)
		}
	}
	expectNone(t, cons)
}

func TestPauseResume(t *testing.T) {
	p, client, producerEPR := startProducer(t, nil)
	cons := newConsumer(t)
	subEPR, err := Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{Topic: Concrete("t")})
	if err != nil {
		t.Fatal(err)
	}
	if err := Pause(client, subEPR); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Notify("t", jobExited(0)); n != 0 {
		t.Fatal("paused subscription received a message")
	}
	if err := Resume(client, subEPR); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Notify("t", jobExited(0)); n != 1 {
		t.Fatal("resumed subscription missed a message")
	}
	recv(t, cons)
}

func TestUnsubscribe(t *testing.T) {
	p, client, producerEPR := startProducer(t, nil)
	cons := newConsumer(t)
	subEPR, err := Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{Topic: Concrete("t")})
	if err != nil {
		t.Fatal(err)
	}
	if err := Unsubscribe(client, subEPR); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Notify("t", jobExited(0)); n != 0 {
		t.Fatal("unsubscribed consumer still receives")
	}
	subs, _ := p.Subscriptions()
	if len(subs) != 0 {
		t.Fatalf("subscriptions remain: %d", len(subs))
	}
}

func TestInitialTerminationTimeExpiry(t *testing.T) {
	p, client, producerEPR := startProducer(t, nil)
	cons := newConsumer(t)
	_, err := Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{
		Topic:              Concrete("t"),
		InitialTermination: time.Now().Add(-time.Second), // already expired
	})
	if err != nil {
		t.Fatal(err)
	}
	sweeper := rl.NewSweeper(time.Hour)
	sweeper.Watch(p.Subs)
	if n := sweeper.SweepOnce(); n != 1 {
		t.Fatalf("swept %d expired subscriptions, want 1", n)
	}
	if n, _ := p.Notify("t", jobExited(0)); n != 0 {
		t.Fatal("expired subscription received a message")
	}
}

// TestExpiredSubscriptionSkippedWithoutSweeper: no deployment runs a
// lifetime sweeper over a producer's subscriptions, so Notify itself
// honors termination times. A subscription whose termination has passed
// receives nothing and is no demand; one cut short by SetTerminationTime
// after Notify has cached the subscription set stops receiving too.
func TestExpiredSubscriptionSkippedWithoutSweeper(t *testing.T) {
	p, client, producerEPR := startProducer(t, nil)
	cons := newConsumer(t)
	if _, err := Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{
		Topic:              Concrete("t"),
		InitialTermination: time.Now().Add(-time.Second),
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := p.Notify("t", jobExited(0)); n != 0 || err != nil {
		t.Fatalf("Notify = %d, %v; an expired subscription must receive nothing", n, err)
	}
	if p.HasActiveSubscriber("t") {
		t.Fatal("an expired subscription counts as demand")
	}
	expectNone(t, cons)

	subEPR, err := Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{Topic: Concrete("t")})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Notify("t", jobExited(1)); n != 1 {
		t.Fatal("live subscription missed the message")
	}
	recv(t, cons)
	rlc := rl.Client{C: client}
	if err := rlc.SetTerminationTime(subEPR, time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Notify("t", jobExited(2)); n != 0 {
		t.Fatal("a subscription terminated by SetTerminationTime still received")
	}
	expectNone(t, cons)
}

func TestSubscribeBadFilterFaults(t *testing.T) {
	_, client, producerEPR := startProducer(t, nil)
	cons := newConsumer(t)
	_, err := Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{
		Topic:          Concrete("t"),
		MessageContent: "///broken",
	})
	if err == nil {
		t.Fatal("bad filter accepted")
	}
	_, err = Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{
		Topic: TopicExpression{Dialect: DialectSimple, Expr: "a/b"},
	})
	if err == nil {
		t.Fatal("invalid simple topic accepted")
	}
}

func TestMultipleSubscribersFanOut(t *testing.T) {
	p, client, producerEPR := startProducer(t, nil)
	consumers := make([]*Consumer, 3)
	for i := range consumers {
		consumers[i] = newConsumer(t)
		if _, err := Subscribe(client, producerEPR, consumers[i].EPR(), SubscribeOptions{Topic: Concrete("t")}); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := p.Notify("t", jobExited(0)); n != 3 {
		t.Fatalf("fan-out delivered %d, want 3", n)
	}
	for _, cons := range consumers {
		recv(t, cons)
	}
	if p.MessagesSent() != 3 {
		t.Fatalf("MessagesSent = %d", p.MessagesSent())
	}
}

func TestGetCurrentMessage(t *testing.T) {
	p, client, producerEPR := startProducer(t, nil)
	// No message on the topic yet: fault.
	if _, err := GetCurrentMessage(client, producerEPR, "jobs/exited"); err == nil {
		t.Fatal("empty topic served a current message")
	}
	if _, err := p.Notify("jobs/exited", jobExited(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Notify("jobs/exited", jobExited(2)); err != nil {
		t.Fatal(err)
	}
	msg, err := GetCurrentMessage(client, producerEPR, "jobs/exited")
	if err != nil {
		t.Fatal(err)
	}
	// Latest message wins.
	if msg.ChildText(nsJob, "ExitCode") != "2" {
		t.Fatalf("current message = %s", msg)
	}
	// Other topics remain empty.
	if _, err := GetCurrentMessage(client, producerEPR, "jobs/started"); err == nil {
		t.Fatal("wrong topic served a message")
	}
}

func TestSubscriptionLifetimeManagedViaManager(t *testing.T) {
	// §2.1: "clients can request an initial lifetime for subscriptions,
	// and the Subscription Manager Service is used to control
	// subscription lifetime thereafter" — the manager imports the
	// WS-ResourceLifetime port type, so SetTerminationTime extends a
	// subscription that would otherwise lapse.
	p, client, producerEPR := startProducer(t, nil)
	cons := newConsumer(t)
	subEPR, err := Subscribe(client, producerEPR, cons.EPR(), SubscribeOptions{
		Topic:              Concrete("t"),
		InitialTermination: time.Now().Add(30 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Extend before it lapses.
	rlc := rl.Client{C: client}
	if err := rlc.SetTerminationTime(subEPR, time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // past the initial lifetime
	sweeper := rl.NewSweeper(time.Hour)
	sweeper.Watch(p.Subs)
	if n := sweeper.SweepOnce(); n != 0 {
		t.Fatalf("renewed subscription swept (%d)", n)
	}
	if n, _ := p.Notify("t", jobExited(0)); n != 1 {
		t.Fatal("renewed subscription missed the message")
	}
	recv(t, cons)
}

func TestSubscribeToUnknownConsumerStillRegisters(t *testing.T) {
	// Registration does not probe the consumer: a dead consumer is only
	// discovered at delivery time (best-effort push).
	p, client, producerEPR := startProducer(t, nil)
	dead := wsa.NewEPR("http://127.0.0.1:1/consumer")
	if _, err := Subscribe(client, producerEPR, dead, SubscribeOptions{Topic: Concrete("t")}); err != nil {
		t.Fatal(err)
	}
	n, err := p.Notify("t", jobExited(0))
	if n != 0 || err == nil {
		t.Fatalf("delivery to dead consumer: n=%d err=%v", n, err)
	}
	// The subscription survives (WSN has no delivery-failure teardown
	// in BaseNotification; lifetime is the manager's job).
	subs, _ := p.Subscriptions()
	if len(subs) != 1 {
		t.Fatalf("subscriptions = %d", len(subs))
	}
}
