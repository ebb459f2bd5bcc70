// Eventing: a tour of the two notification systems the paper compares
// (§2.1/§2.2) — WS-Notification's topic trees, brokered notification,
// and demand-based publishing versus WS-Eventing's filtered
// subscriptions with renewable leases and raw-TCP delivery.
//
// Part 1 (WS-Notification): a producer publishes job telemetry on a
// hierarchical topic tree; consumers subscribe with full-dialect
// wildcards and content filters; a broker with a demand-based
// publisher shows the pause/resume choreography the paper calls out as
// WS-Notification's complexity cost.
//
// Part 2 (WS-Eventing): the same telemetry over the alternative stack:
// per-resource topic filters, GetStatus/Renew lease management, and
// the Plumbwork-style persistent TCP channel.
//
// Run: go run ./examples/eventing
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/wsa"
	"altstacks/internal/wse"
	"altstacks/internal/wsn"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

const ns = "urn:example:telemetry"

func main() {
	wsNotificationTour()
	wsEventingTour()
}

func wsNotificationTour() {
	fmt.Println("== WS-Notification ==")
	c := container.New(container.SecurityNone)
	client := container.NewClient(container.ClientConfig{})
	db := xmldb.NewMemory(xmldb.CostModel{})

	// Publisher: a producer service with its subscription manager.
	producer := wsn.NewProducer(db, "subs", func() string { return c.BaseURL() + "/telemetry-mgr" }, client)
	svc := &container.Service{Path: "/telemetry", Actions: map[string]container.ActionFunc{}}
	for a, fn := range producer.ProducerPortType().Actions() {
		svc.Actions[a] = fn
	}
	c.Register(svc)
	c.Register(producer.ManagerService("/telemetry-mgr"))

	// Broker with the demand-based choreography.
	broker := wsn.NewBroker(c, db, client, "/broker")

	if _, err := c.Start(); err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// A consumer subscribed to the whole jobs subtree via a
	// full-dialect wildcard, plus a content filter for failures only.
	all, err := wsn.NewConsumer(16)
	if err != nil {
		log.Fatal(err)
	}
	defer all.Close()
	if _, err := wsn.Subscribe(client, c.EPR("/telemetry"), all.EPR(), wsn.SubscribeOptions{
		Topic: wsn.Full("jobs//."),
	}); err != nil {
		log.Fatal(err)
	}
	failures, err := wsn.NewConsumer(16)
	if err != nil {
		log.Fatal(err)
	}
	defer failures.Close()
	if _, err := wsn.Subscribe(client, c.EPR("/telemetry"), failures.EPR(), wsn.SubscribeOptions{
		Topic:          wsn.Full("jobs/*/exited"),
		MessageContent: "/JobExited[Code!=0]",
	}); err != nil {
		log.Fatal(err)
	}

	publish := func(topic string, code int) {
		msg := xmlutil.New(ns, "JobExited").Add(xmlutil.NewText(ns, "Code", fmt.Sprint(code)))
		n, err := producer.Notify(topic, msg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("published %-18s code=%d → %d deliveries\n", topic, code, n)
	}
	publish("jobs/42/exited", 0) // subtree consumer only
	publish("jobs/43/exited", 2) // both consumers
	drain("subtree consumer", all.Ch, 2)
	drain("failure consumer", failures.Ch, 1)

	// Demand-based publishing: register the producer with the broker;
	// the broker subscribes back and pauses until someone cares.
	if _, err := wsn.RegisterPublisher(client, c.EPR("/broker"), c.EPR("/telemetry"), "metrics", true); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("demand registration: broker's upstream subscription paused=%v (no subscribers yet)\n",
		upstreamPaused(producer))

	metricsCons, err := wsn.NewConsumer(16)
	if err != nil {
		log.Fatal(err)
	}
	defer metricsCons.Close()
	subEPR, err := wsn.Subscribe(client, c.EPR("/broker"), metricsCons.EPR(), wsn.SubscribeOptions{
		Topic: wsn.Concrete("metrics"),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consumer subscribed at broker: upstream paused=%v (demand resumed)\n",
		upstreamPaused(producer))

	if _, err := producer.Notify("metrics", xmlutil.NewText(ns, "CPU", "71")); err != nil {
		log.Fatal(err)
	}
	ev := <-metricsCons.Ch
	fmt.Printf("relayed through broker: CPU=%s\n", ev.Message.TrimText())
	fmt.Printf("broker control traffic so far: %d messages (the §3.1 amplification)\n", broker.ControlCalls())
	if err := wsn.Unsubscribe(client, subEPR); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("last consumer left: upstream paused=%v again\n", upstreamPaused(producer))
}

// upstreamPaused finds the broker's back-subscription at the producer
// (its consumer endpoint is the broker's /broker-consumer service) and
// reports its pause state.
func upstreamPaused(p *wsn.Producer) bool {
	subs, err := p.Subscriptions()
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range subs {
		if strings.Contains(s.Consumer.Address, "/broker-consumer") {
			return s.Paused
		}
	}
	log.Fatal("no upstream subscription found")
	return false
}

func wsEventingTour() {
	fmt.Println("\n== WS-Eventing ==")
	c := container.New(container.SecurityNone)
	client := container.NewClient(container.ClientConfig{})
	store, err := wse.NewStore("")
	if err != nil {
		log.Fatal(err)
	}
	source := wse.NewSource(store, func() string { return c.BaseURL() + "/events-mgr" }, client)
	c.Register(source.SourceService("/events"))
	c.Register(source.ManagerService("/events-mgr"))
	if _, err := c.Start(); err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	defer source.TCP.Close()

	// Per-resource subscription via topic filter, delivered over the
	// persistent raw-TCP channel (the Plumbwork SoapReceiver).
	sink, err := wse.NewTCPSink(16)
	if err != nil {
		log.Fatal(err)
	}
	defer sink.Close()
	res, err := wse.Subscribe(client, c.EPR("/events"), wse.SubscribeOptions{
		NotifyTo: wsa.NewEPR(sink.Addr()),
		Mode:     wse.DeliveryModeTCP,
		Filter:   wse.TopicFilter("jobs/42/**"),
		Expires:  time.Now().Add(30 * time.Second),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subscribed (TCP sink %s), lease expires %s\n", sink.Addr(), res.Expires.Format(time.RFC3339))

	nm := &wse.NotificationManager{Source: source}
	if _, err := nm.Trigger("jobs/41/exited", xmlutil.NewText(ns, "Code", "0")); err != nil {
		log.Fatal(err)
	}
	if _, err := nm.Trigger("jobs/42/exited", xmlutil.NewText(ns, "Code", "3")); err != nil {
		log.Fatal(err)
	}
	ev := <-sink.Ch
	fmt.Printf("received only our job's event: topic=%s code=%s\n", ev.Topic, ev.Message.TrimText())

	// Lease management: GetStatus and Renew.
	status, err := wse.GetStatus(client, res.Manager)
	if err != nil {
		log.Fatal(err)
	}
	renewed, err := wse.Renew(client, res.Manager, time.Now().Add(time.Hour))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lease: was %s, renewed to %s\n", status.Format(time.RFC3339), renewed.Format(time.RFC3339))
	if err := wse.Unsubscribe(client, res.Manager); err != nil {
		log.Fatal(err)
	}
	fmt.Println("unsubscribed")
}

func drain(label string, ch <-chan core.Event, n int) {
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	for i := 0; i < n; i++ {
		timeout.Reset(5 * time.Second)
		select {
		case ev := <-ch:
			fmt.Printf("  %s got topic=%s code=%s\n", label, ev.Topic, ev.Message.ChildText(ns, "Code"))
		case <-timeout.C:
			log.Fatalf("%s: expected %d events, got %d", label, n, i)
		}
	}
}
