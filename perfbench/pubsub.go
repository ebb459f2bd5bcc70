package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/wsa"
	"altstacks/internal/wse"
	"altstacks/internal/wsn"
	"altstacks/internal/wsrf"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// pubsub-fanout: a bare wsn.Producer or wse.Source with 1000
// subscriptions spread over 32 sink endpoints, as loadgen's pubsub1k
// deploys it, with pooled delivery and every other knob at its default.
// One publisher publishes back to back; Notify and Publish return once
// the fan-out is done. Each sink timestamps every receipt, and each
// subscription carries its index as a reference parameter, so a
// publish is checked subscription by subscription: every one must see
// its sequence number exactly once.

const (
	pubSubs  = 1000
	pubSinks = 32
	pubTopic = "load/tick"
	// pbNS namespaces the benchmark's own payload and headers.
	pbNS = "urn:altstacks:perfbench"
)

func deployPubSub(e *env, stack string, traced bool) (*deployment, error) {
	c := container.New(container.SecurityNone)
	deliver := container.NewClient(container.ClientConfig{})
	d := &deployment{warmup: 3, deliveriesMetered: true}
	if traced {
		d.wire = append(d.wire, meterClient(deliver))
	}
	sinks := &sinkSet{counts: make([]atomic.Int32, pubSubs)}
	var closers []func()
	d.close = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	closers = append(closers, c.Close)
	setup := container.NewClient(container.ClientConfig{})

	var subscribe func(sink wsa.EPR) error
	var publish func(*xmlutil.Element) (int, error)
	var action string
	switch stack {
	case "wsrf":
		var backend xmldb.Backend = xmldb.NewMemoryBackend()
		if traced {
			d.backend = &backendMeter{Backend: backend}
			backend = d.backend
		}
		d.db = xmldb.New(backend, xmldb.CostModel{})
		p := wsn.NewProducer(d.db, "subs", func() string { return c.BaseURL() + "/manager" }, deliver)
		svc := &container.Service{Path: "/producer", Actions: map[string]container.ActionFunc{}}
		wsrf.Aggregate(svc, p.ProducerPortType())
		c.Register(svc)
		c.Register(p.ManagerService("/manager"))
		d.delivery = func() deliveryCounts { return wsnCounts(p) }
		action = wsn.ActionNotify
		subscribe = func(sink wsa.EPR) error {
			_, err := wsn.Subscribe(setup, c.EPR("/producer"), sink, wsn.SubscribeOptions{Topic: wsn.Concrete(pubTopic)})
			return err
		}
		publish = func(msg *xmlutil.Element) (int, error) { return p.Notify(pubTopic, msg) }
	case "wst":
		store, err := wse.NewStore("")
		if err != nil {
			return nil, err
		}
		src := wse.NewSource(store, func() string { return c.BaseURL() + "/manager" }, deliver)
		closers = append(closers, src.TCP.Close)
		c.Register(src.SourceService("/source"))
		c.Register(src.ManagerService("/manager"))
		d.delivery = func() deliveryCounts { return wseCounts(src) }
		action = wse.ActionEvent
		subscribe = func(sink wsa.EPR) error {
			_, err := wse.Subscribe(setup, c.EPR("/source"), wse.SubscribeOptions{NotifyTo: sink, Filter: wse.TopicFilter("load/*")})
			return err
		}
		publish = func(msg *xmlutil.Element) (int, error) { return src.Publish(pubTopic, msg) }
	}
	if _, err := c.Start(); err != nil {
		d.close()
		return nil, err
	}
	var eprs []wsa.EPR
	for i := 0; i < pubSinks; i++ {
		sc, err := sinks.start(action)
		if err != nil {
			d.close()
			return nil, err
		}
		closers = append(closers, sc.Close)
		eprs = append(eprs, sc.EPR("/sink"))
	}
	for k := 0; k < pubSubs; k++ {
		if err := subscribe(eprs[k%pubSinks].WithParameter(pbNS, "Sub", strconv.Itoa(k))); err != nil {
			d.close()
			return nil, fmt.Errorf("subscribe %d: %w", k, err)
		}
	}
	d.duplicates = sinks.dups.Load
	rng := e.rng(0)
	data := make([]byte, 64)
	for i := range data {
		data[i] = 'a' + byte(rng.IntN(26))
	}
	d.callers = []caller{&publisher{sinks: sinks, publish: publish, data: string(data)}}
	return d, nil
}

// sinkSet is the subscriber side shared by every sink endpoint: it
// records each receipt against the publish in flight.
type sinkSet struct {
	mu  sync.Mutex
	seq int
	t0  time.Time
	smp *samples

	counts []atomic.Int32 // receipts per subscription for seq
	strays atomic.Int64   // receipts of another publish, or unreadable
	dups   atomic.Int64
}

// start runs one sink endpoint accepting deliveries on action.
func (s *sinkSet) start(action string) (*container.Container, error) {
	c := container.New(container.SecurityNone)
	c.Register(&container.Service{Path: "/sink", Actions: map[string]container.ActionFunc{
		action: s.receive,
	}})
	if _, err := c.Start(); err != nil {
		return nil, err
	}
	return c, nil
}

func (s *sinkSet) receive(ctx *container.Ctx) (*xmlutil.Element, error) {
	at := time.Now()
	body := ctx.Envelope.Body
	// A WS-Notification delivery wraps the payload in Notify;
	// WS-Eventing sends it as the body.
	if nm := body.Child(wsn.NSNT, "NotificationMessage"); nm != nil {
		if m := nm.Child(wsn.NSNT, "Message"); m != nil && len(m.Children) > 0 {
			body = m.Children[0]
		}
	}
	seq, err := strconv.Atoi(body.ChildText(pbNS, "Seq"))
	sub := -1
	if h := ctx.Envelope.Header(pbNS, "Sub"); h != nil && err == nil {
		sub, err = strconv.Atoi(h.TrimText())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || seq != s.seq || sub < 0 || sub >= len(s.counts) {
		s.strays.Add(1)
	} else {
		s.counts[sub].Add(1)
		s.smp.delivered(at.Sub(s.t0))
	}
	return xmlutil.New(pbNS, "Ack"), nil
}

type publisher struct {
	sinks   *sinkSet
	publish func(*xmlutil.Element) (int, error)
	data    string
	seq     int
}

func (p *publisher) step(t0 time.Time, smp *samples) error {
	p.seq++
	s := p.sinks
	s.mu.Lock()
	s.seq, s.t0, s.smp = p.seq, t0, smp
	s.mu.Unlock()
	msg := xmlutil.New(pbNS, "Tick").Add(
		xmlutil.NewText(pbNS, "Seq", strconv.Itoa(p.seq)),
		xmlutil.NewText(pbNS, "Data", p.data))
	n, err := p.publish(msg)
	missing, extra := 0, 0
	for i := range s.counts {
		switch c := int(s.counts[i].Swap(0)); {
		case c == 0:
			missing++
		case c > 1:
			extra += c - 1
		}
	}
	s.dups.Add(int64(extra))
	if err != nil {
		return err
	}
	if strays := s.strays.Swap(0); n != pubSubs || missing > 0 || extra > 0 || strays > 0 {
		return fmt.Errorf("publish %d: delivered %d of %d, %d missing, %d duplicate, %d stray",
			p.seq, n, pubSubs, missing, extra, strays)
	}
	return nil
}
