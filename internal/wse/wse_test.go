package wse

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/netlat"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

const nsE = "urn:events"

func startSource(t *testing.T, storePath string) (*Source, *container.Client, wsa.EPR) {
	t.Helper()
	c := container.New(container.SecurityNone)
	store, err := NewStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	client := container.NewClient(container.ClientConfig{})
	src := NewSource(store, func() string { return c.BaseURL() + "/manager" }, client)
	c.Register(src.SourceService("/source"))
	c.Register(src.ManagerService("/manager"))
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); src.TCP.Close() })
	return src, client, c.EPR("/source")
}

func httpSink(t *testing.T) *HTTPSink {
	t.Helper()
	s, err := NewHTTPSink(16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func recvEvent(t *testing.T, ch <-chan core.Event) core.Event {
	t.Helper()
	select {
	case e := <-ch:
		return e
	case <-time.After(2 * time.Second):
		t.Fatal("no event arrived")
		return core.Event{}
	}
}

func jobDone(code string) *xmlutil.Element {
	return xmlutil.New(nsE, "JobDone").Add(xmlutil.NewText(nsE, "Code", code))
}

func TestSubscribePublishHTTP(t *testing.T) {
	src, client, source := startSource(t, "")
	sink := httpSink(t)
	res, err := Subscribe(client, source, SubscribeOptions{
		NotifyTo: sink.EPR(),
		Filter:   TopicFilter("jobs/**"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Manager.Address == "" || res.Expires.IsZero() {
		t.Fatalf("result = %+v", res)
	}
	n, err := src.Publish("jobs/42/done", jobDone("0"))
	if err != nil || n != 1 {
		t.Fatalf("publish: n=%d err=%v", n, err)
	}
	ev := recvEvent(t, sink.Ch)
	if ev.Topic != "jobs/42/done" || ev.Message.ChildText(nsE, "Code") != "0" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestSubscribePublishTCP(t *testing.T) {
	// The Plumbwork SoapReceiver path: persistent raw-TCP delivery.
	src, client, source := startSource(t, "")
	sink, err := NewTCPSink(16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sink.Close)
	_, err = Subscribe(client, source, SubscribeOptions{
		NotifyTo: wsa.NewEPR(sink.Addr()),
		Mode:     DeliveryModeTCP,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if n, err := src.Publish("t", jobDone("1")); err != nil || n != 1 {
			t.Fatalf("publish %d: n=%d err=%v", i, n, err)
		}
	}
	for i := 0; i < 3; i++ {
		ev := recvEvent(t, sink.Ch)
		if ev.Topic != "t" {
			t.Fatalf("event = %+v", ev)
		}
	}
	if src.MessagesSent() != 3 {
		t.Fatalf("sent = %d", src.MessagesSent())
	}
}

func TestTopicFilterPerResource(t *testing.T) {
	// "A filter can be used for registering a subscription per
	// resource" (§3.2): subscribe to one job's events only.
	src, client, source := startSource(t, "")
	sink := httpSink(t)
	if _, err := Subscribe(client, source, SubscribeOptions{
		NotifyTo: sink.EPR(),
		Filter:   TopicFilter("jobs/42/**"),
	}); err != nil {
		t.Fatal(err)
	}
	if n, _ := src.Publish("jobs/41/done", jobDone("0")); n != 0 {
		t.Fatal("other job's event delivered")
	}
	if n, _ := src.Publish("jobs/42/done", jobDone("0")); n != 1 {
		t.Fatal("own job's event not delivered")
	}
	recvEvent(t, sink.Ch)
}

func TestTopicMatcherTable(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"a/b", "a/b", true},
		{"a/b", "a/b/c", false},
		{"a/*", "a/b", true},
		{"a/*", "a", false},
		{"a/*/c", "a/b/c", true},
		{"a/**", "a", false},
		{"a/**", "a/b/c/d", true},
		{"**", "anything/at/all", true},
		{"*", "one", true},
		{"*", "one/two", false},
	}
	for _, c := range cases {
		if got := matchTopic(c.pattern, c.topic); got != c.want {
			t.Errorf("matchTopic(%q, %q) = %v, want %v", c.pattern, c.topic, got, c.want)
		}
	}
}

func TestXPathFilter(t *testing.T) {
	src, client, source := startSource(t, "")
	sink := httpSink(t)
	if _, err := Subscribe(client, source, SubscribeOptions{
		NotifyTo: sink.EPR(),
		Filter:   XPathFilter("/JobDone[Code!=0]"),
	}); err != nil {
		t.Fatal(err)
	}
	if n, _ := src.Publish("t", jobDone("0")); n != 0 {
		t.Fatal("filtered event delivered")
	}
	if n, _ := src.Publish("t", jobDone("3")); n != 1 {
		t.Fatal("matching event missed")
	}
	ev := recvEvent(t, sink.Ch)
	if ev.Message.ChildText(nsE, "Code") != "3" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestRenewGetStatusUnsubscribe(t *testing.T) {
	src, client, source := startSource(t, "")
	sink := httpSink(t)
	res, err := Subscribe(client, source, SubscribeOptions{NotifyTo: sink.EPR()})
	if err != nil {
		t.Fatal(err)
	}
	status, err := GetStatus(client, res.Manager)
	if err != nil {
		t.Fatal(err)
	}
	if status.Sub(res.Expires).Abs() > time.Second {
		t.Fatalf("GetStatus = %v, want %v", status, res.Expires)
	}
	later := time.Now().Add(48 * time.Hour).UTC().Truncate(time.Second)
	renewed, err := Renew(client, res.Manager, later)
	if err != nil {
		t.Fatal(err)
	}
	if !renewed.Equal(later) {
		t.Fatalf("Renew = %v, want %v", renewed, later)
	}
	if err := Unsubscribe(client, res.Manager); err != nil {
		t.Fatal(err)
	}
	if n, _ := src.Publish("t", jobDone("0")); n != 0 {
		t.Fatal("unsubscribed sink still receives")
	}
	// Manager operations on a removed subscription fault.
	if _, err := GetStatus(client, res.Manager); err == nil {
		t.Fatal("GetStatus on dead subscription succeeded")
	}
}

func TestExpiredSubscriptionSkipped(t *testing.T) {
	src, client, source := startSource(t, "")
	sink := httpSink(t)
	if _, err := Subscribe(client, source, SubscribeOptions{
		NotifyTo: sink.EPR(),
		Expires:  time.Now().Add(-time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	if n, _ := src.Publish("t", jobDone("0")); n != 0 {
		t.Fatal("expired subscription received")
	}
	if n := src.SweepExpired(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if len(src.Store.All()) != 0 {
		t.Fatal("expired subscription survived sweep")
	}
}

func TestDeliveryFailureSendsSubscriptionEnd(t *testing.T) {
	src, client, source := startSource(t, "")
	src.EvictAfter = 1
	endSink := httpSink(t)
	// NotifyTo points at a dead endpoint; EndTo at a live sink.
	dead := wsa.NewEPR("http://127.0.0.1:1/never")
	if _, err := Subscribe(client, source, SubscribeOptions{
		NotifyTo: dead,
		EndTo:    endSink.EPR(),
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := src.Publish("t", jobDone("0")); n != 0 || err == nil {
		t.Fatalf("publish to dead sink: n=%d err=%v", n, err)
	}
	select {
	case status := <-endSink.Ends:
		if status != StatusDeliveryFailure {
			t.Fatalf("status = %q", status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no SubscriptionEnd arrived")
	}
	if len(src.Store.All()) != 0 {
		t.Fatal("failed subscription not cancelled")
	}
}

// TestShutdownSendsSourceShuttingDown: each EndTo receives one
// SubscriptionEnd, and a delivered notice is not counted lost, also
// from a source that signs, as a producer under X.509 does: the sink's
// acknowledgement is unsigned, and end notices, like events, do not
// verify it.
func TestShutdownSendsSourceShuttingDown(t *testing.T) {
	fix, err := core.NewFixture(container.SecuritySign, netlat.CoLocated)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		deliver *container.Client // nil keeps startSource's unsigned client
	}{
		{"unsigned", nil},
		{"signed", fix.NewNotifyClient()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, client, source := startSource(t, "")
			if tc.deliver != nil {
				src.HTTP = tc.deliver
			}
			sink := httpSink(t)
			if _, err := Subscribe(client, source, SubscribeOptions{
				NotifyTo: sink.EPR(),
				EndTo:    sink.EPR(),
			}); err != nil {
				t.Fatal(err)
			}
			src.Shutdown()
			select {
			case status := <-sink.Ends:
				if status != StatusSourceShuttingDown {
					t.Fatalf("status = %q", status)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("no SubscriptionEnd on shutdown")
			}
			if n := src.DeliveryStats().EndNoticeErrors; n != 0 {
				t.Fatalf("EndNoticeErrors = %d for a delivered notice, want 0", n)
			}
		})
	}
}

func TestSubscribeRejectsBadInputs(t *testing.T) {
	_, client, source := startSource(t, "")
	sink := httpSink(t)
	// Unknown delivery mode.
	_, err := Subscribe(client, source, SubscribeOptions{NotifyTo: sink.EPR(), Mode: "urn:smoke-signals"})
	if err == nil || !strings.Contains(err.Error(), "unavailable") {
		t.Fatalf("bad mode: %v", err)
	}
	// Unknown filter dialect.
	_, err = Subscribe(client, source, SubscribeOptions{
		NotifyTo: sink.EPR(),
		Filter:   Filter{Dialect: "urn:regex", Expr: ".*"},
	})
	if err == nil {
		t.Fatal("bad dialect accepted")
	}
	// Broken XPath.
	_, err = Subscribe(client, source, SubscribeOptions{
		NotifyTo: sink.EPR(),
		Filter:   XPathFilter("///x"),
	})
	if err == nil {
		t.Fatal("broken xpath accepted")
	}
	// No delivery block at all.
	if _, err := client.Call(source, ActionSubscribe, xmlutil.New(NS, "Subscribe")); err == nil {
		t.Fatal("subscribe without delivery accepted")
	}
}

func TestFlatFileStorePersistence(t *testing.T) {
	// Paper §3.2: "it maintains the subscription lists in a flat XML
	// file". Restarting the source must recover subscriptions.
	path := filepath.Join(t.TempDir(), "subs.xml")
	_, client, source := startSource(t, path)
	sink := httpSink(t)
	if _, err := Subscribe(client, source, SubscribeOptions{
		NotifyTo: sink.EPR(),
		Filter:   TopicFilter("jobs/**"),
		Expires:  time.Now().Add(time.Hour),
	}); err != nil {
		t.Fatal(err)
	}
	// Reopen the store as a fresh source ("restart").
	store2, err := NewStore(path)
	if err != nil {
		t.Fatal(err)
	}
	subs := store2.All()
	if len(subs) != 1 {
		t.Fatalf("recovered %d subscriptions", len(subs))
	}
	if subs[0].Filter.Expr != "jobs/**" || subs[0].NotifyTo.Address != sink.EPR().Address {
		t.Fatalf("recovered sub = %+v", subs[0])
	}
	src2 := NewSource(store2, func() string { return "http://x/manager" }, container.NewClient(container.ClientConfig{}))
	if n, err := src2.Publish("jobs/7/done", jobDone("0")); err != nil || n != 1 {
		t.Fatalf("publish after restart: n=%d err=%v", n, err)
	}
	recvEvent(t, sink.Ch)
}

func TestNotificationManagerTrigger(t *testing.T) {
	src, client, source := startSource(t, "")
	sink := httpSink(t)
	if _, err := Subscribe(client, source, SubscribeOptions{NotifyTo: sink.EPR()}); err != nil {
		t.Fatal(err)
	}
	nm := &NotificationManager{Source: src}
	if n, err := nm.Trigger("t", jobDone("0")); err != nil || n != 1 {
		t.Fatalf("trigger: n=%d err=%v", n, err)
	}
	recvEvent(t, sink.Ch)
}

func TestTCPReconnectAfterSinkRestart(t *testing.T) {
	src, client, source := startSource(t, "")
	src.EvictAfter = 1
	sink, err := NewTCPSink(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Subscribe(client, source, SubscribeOptions{
		NotifyTo: wsa.NewEPR(sink.Addr()),
		Mode:     DeliveryModeTCP,
	}); err != nil {
		t.Fatal(err)
	}
	if n, _ := src.Publish("t", jobDone("0")); n != 1 {
		t.Fatal("initial delivery failed")
	}
	recvEvent(t, sink.Ch)
	// Kill the sink. One-way TCP cannot detect peer death until the
	// kernel surfaces the reset, so the first writes may still report
	// success; within a few publishes the failure must surface and the
	// subscription must be cancelled.
	sink.Close()
	failed := false
	for i := 0; i < 20 && !failed; i++ {
		if _, err := src.Publish("t", jobDone("0")); err != nil {
			failed = true
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !failed {
		t.Fatal("delivery to a dead TCP sink never failed")
	}
	if len(src.Store.All()) != 0 {
		t.Fatal("failed TCP subscription not cancelled")
	}
}
