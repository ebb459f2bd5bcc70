package experiments

import (
	"fmt"
	"sync"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/wsa"
	"altstacks/internal/wse"
	"altstacks/internal/wsn"
	"altstacks/internal/wsrf"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// Fanout is the notification fan-out shape: a bare WS-BaseNotification
// producer (WSRF stack) or WS-Eventing source (WST stack) on a
// plain-HTTP container, with subscriptions spread over drained sink
// endpoints. loadgen's pubsub mixes and churn soak, the fan-out
// benchmarks and the SLO breach test deploy it here, and each tunes
// the delivery knobs on Producer or Source itself.
type Fanout struct {
	// Producer is the WSRF stack's producer and Source the WST stack's
	// source; the other is nil.
	Producer *wsn.Producer
	Source   *wse.Source
	// Sinks are the sink endpoints, in creation order.
	Sinks []wsa.EPR

	c         *container.Container
	topic     string
	subscribe func(sink wsa.EPR) error
	drains    sync.WaitGroup
}

// sinkBuffer is each sink's channel capacity: room for the deliveries
// that land between two wakeups of its drain, so a delivery does not
// take the sink's overflow-drop path.
const sinkBuffer = 64

// NewFanout deploys the fan-out on the given stack, delivering through
// a client configured by deliver. Events publish on topic+"/tick",
// which a WSN subscription names concretely and a WSE subscription
// matches as topic+"/*". subs subscriptions are spread over sinks
// endpoints in contiguous blocks, the first subs%sinks endpoints taking
// one more; sinks is clamped to [1, subs].
func NewFanout(stack core.Stack, topic string, subs, sinks int, deliver container.ClientConfig) (*Fanout, error) {
	c := container.New(container.SecurityNone)
	setup := container.NewClient(container.ClientConfig{})
	client := container.NewClient(deliver)
	manager := func() string { return c.BaseURL() + "/manager" }
	f := &Fanout{c: c, topic: topic + "/tick"}
	switch stack {
	case core.StackWSRF:
		p := wsn.NewProducer(xmldb.NewMemory(xmldb.CostModel{}), "subs", manager, client)
		svc := &container.Service{Path: "/producer"}
		wsrf.Aggregate(svc, p.ProducerPortType())
		c.Register(svc)
		c.Register(p.ManagerService("/manager"))
		f.Producer = p
		f.subscribe = func(sink wsa.EPR) error {
			_, err := wsn.Subscribe(setup, c.EPR("/producer"), sink,
				wsn.SubscribeOptions{Topic: wsn.Concrete(f.topic)})
			return err
		}
	case core.StackWST:
		store, err := wse.NewStore("")
		if err != nil {
			return nil, err
		}
		src := wse.NewSource(store, manager, client)
		c.OnClose(src.TCP.Close)
		c.Register(src.SourceService("/source"))
		c.Register(src.ManagerService("/manager"))
		f.Source = src
		f.subscribe = func(sink wsa.EPR) error {
			_, err := wse.Subscribe(setup, c.EPR("/source"), wse.SubscribeOptions{
				NotifyTo: sink, Filter: wse.TopicFilter(topic + "/*")})
			return err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown stack %q", stack)
	}
	if _, err := c.Start(); err != nil {
		return nil, err
	}

	sinks = min(max(sinks, 1), max(subs, 1))
	// Sink channels are never closed, so closing quit on teardown is
	// what stops the drains.
	quit := make(chan struct{})
	c.OnClose(func() { close(quit) })
	for i := 0; i < sinks; i++ {
		epr, err := f.startSink(quit)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Sinks = append(f.Sinks, epr)
		per := subs / sinks
		if i < subs%sinks {
			per++
		}
		for j := 0; j < per; j++ {
			if err := f.Subscribe(i); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return f, nil
}

// startSink starts one sink endpoint for the deployment's stack, with a
// drain, and hooks its close onto the container's.
func (f *Fanout) startSink(quit <-chan struct{}) (wsa.EPR, error) {
	if f.Producer != nil {
		cons, err := wsn.NewConsumer(sinkBuffer)
		if err != nil {
			return wsa.EPR{}, err
		}
		f.c.OnClose(cons.Close)
		f.drains.Add(1)
		go drain(&f.drains, cons.Ch, quit)
		return cons.EPR(), nil
	}
	sink, err := wse.NewHTTPSink(sinkBuffer)
	if err != nil {
		return wsa.EPR{}, err
	}
	f.c.OnClose(sink.Close)
	f.drains.Add(1)
	go drain(&f.drains, sink.Ch, quit)
	return sink.EPR(), nil
}

// drain empties a sink's channel until quit closes.
func drain(wg *sync.WaitGroup, ch <-chan core.Event, quit <-chan struct{}) {
	defer wg.Done()
	for {
		select {
		case <-ch:
		case <-quit:
			return
		}
	}
}

// Subscribe adds one subscription for sink i.
func (f *Fanout) Subscribe(i int) error { return f.subscribe(f.Sinks[i]) }

// Publish sends msg to every matching subscription and reports how
// many deliveries succeeded.
func (f *Fanout) Publish(msg *xmlutil.Element) (int, error) {
	if f.Producer != nil {
		return f.Producer.Notify(f.topic, msg)
	}
	return f.Source.Publish(f.topic, msg)
}

// Consumers returns the sink address of every live subscription.
func (f *Fanout) Consumers() ([]string, error) {
	var out []string
	if f.Producer != nil {
		subs, err := f.Producer.Subscriptions()
		if err != nil {
			return nil, err
		}
		for _, s := range subs {
			out = append(out, s.Consumer.Address)
		}
		return out, nil
	}
	for _, s := range f.Source.Store.All() {
		out = append(out, s.NotifyTo.Address)
	}
	return out, nil
}

// Close tears the deployment down: the sinks and their drains, the
// source's TCP channels, and the container. It returns once the drains
// have exited; calling it again does nothing more.
func (f *Fanout) Close() {
	f.c.Close()
	f.drains.Wait()
}
