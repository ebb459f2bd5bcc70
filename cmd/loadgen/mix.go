package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/counter"
	"altstacks/internal/experiments"
	"altstacks/internal/netlat"
	"altstacks/internal/wsa"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// A mix is a named operation blend over a deployment. The fig mixes
// blend the five hello-counter operations of §4.1.3 under a figure's
// security mode (Fig 2 = none, Fig 3 = HTTPS, Fig 4 = X.509 signing,
// all co-located, matching cmd/figures); the pubsub mixes are
// publish-dominated fan-outs over large subscriber populations, the
// regime the fan-out benchmarks measure one batch of and a sustained
// rate stresses end to end.
type mixSpec struct {
	name string
	kind string // "hello" | "pubsub"
	sec  container.SecurityMode
	subs int
	// defaultRate is the arrival rate used when -rate is 0, picked so
	// the default run is busy but below saturation on a laptop-class
	// host.
	defaultRate float64
}

var mixSpecs = []mixSpec{
	{name: "fig2", kind: "hello", sec: container.SecurityNone, defaultRate: 200},
	{name: "fig3", kind: "hello", sec: container.SecurityTLS, defaultRate: 150},
	{name: "fig4", kind: "hello", sec: container.SecuritySign, defaultRate: 100},
	{name: "pubsub1k", kind: "pubsub", sec: container.SecurityNone, subs: 1000, defaultRate: 10},
	{name: "pubsub10k", kind: "pubsub", sec: container.SecurityNone, subs: 10000, defaultRate: 2},
}

func mixByName(name string) (mixSpec, bool) {
	for _, m := range mixSpecs {
		if m.name == name {
			return m, true
		}
	}
	return mixSpec{}, false
}

// workload is a running deployment plus its operation table.
type workload struct {
	mix   mixSpec
	ops   []*loadOp
	close func()
}

// pubWorkers is the fan-out pool width for pubsub deployments: wider
// than the benchmark's 16 because a 1k–10k batch must finish inside
// the arrival interval or the open-loop queue grows without bound.
const pubWorkers = 32

func buildWorkload(stack core.Stack, mix mixSpec, cost xmldb.CostModel, sinks int, subsOverride int) (*workload, error) {
	switch mix.kind {
	case "hello":
		return newHelloWorkload(stack, mix, cost)
	case "pubsub":
		subs := mix.subs
		if subsOverride > 0 {
			subs = subsOverride
		}
		return newPubSubWorkload(stack, mix, subs, sinks)
	}
	return nil, fmt.Errorf("loadgen: unknown mix kind %q", mix.kind)
}

// helloWeights is the operation blend for the fig mixes: read-heavy
// with a steady churn of resource lifecycle and a notification tail,
// the request shape a standing grid service sees (§4.1.3 measures the
// same five operations in isolation).
var helloWeights = map[string]int{
	"Get": 35, "Set": 25, "Create": 15, "Destroy": 15, "Notify": 10,
}

// newHelloWorkload deploys the counter service as the figures do
// (experiments.DeployHello), with concurrency-safe operations: the
// figure ops mutate shared closure state and assume one caller at a
// time, while an open-loop run has many in flight.
func newHelloWorkload(stack core.Stack, mix mixSpec, cost xmldb.CostModel) (*workload, error) {
	sc := core.Scenario{Index: 1, Sec: mix.sec, Link: netlat.CoLocated}
	cl, closeDeployment, err := experiments.DeployHello(sc, stack, cost)
	if err != nil {
		return nil, err
	}

	fixed, err := cl.Create(counter.Representation(0))
	if err != nil {
		closeDeployment()
		return nil, err
	}
	notifyCtr, err := cl.Create(counter.Representation(0))
	if err != nil {
		closeDeployment()
		return nil, err
	}
	// One standing subscription shared by every Notify op. Events and
	// waiters are 1:1 (each op sets once and consumes one event), so
	// any event unblocks any waiter with the same latency distribution.
	stream, err := cl.SubscribeValueChanged(notifyCtr)
	if err != nil {
		closeDeployment()
		return nil, err
	}

	var setVal, notifyVal atomic.Int64
	notifyVal.Store(1 << 20) // distinct range, same convention as the figures
	// Created-but-undestroyed counters queue here for the Destroy op;
	// bounded so a Create-heavy tail can't grow the database without
	// limit — an overflowing Create destroys its own counter inline.
	pool := make(chan wsa.EPR, 1024)
	for i := 0; i < 64; i++ {
		epr, err := cl.Create(counter.Representation(0))
		if err != nil {
			closeDeployment()
			return nil, err
		}
		pool <- epr
	}

	w := &workload{mix: mix, close: func() {
		stream.Cancel() //nolint:errcheck
		closeDeployment()
	}}
	op := func(name string, run func() error) *loadOp { return newOp(name, helloWeights[name], run) }
	w.ops = []*loadOp{
		op("Get", func() error {
			_, err := cl.Get(fixed)
			return err
		}),
		op("Set", func() error {
			return cl.Set(fixed, counter.Representation(int(setVal.Add(1))))
		}),
		op("Create", func() error {
			epr, err := cl.Create(counter.Representation(0))
			if err != nil {
				return err
			}
			select {
			case pool <- epr:
				return nil
			default:
				return cl.Destroy(epr)
			}
		}),
		op("Destroy", func() error {
			select {
			case epr := <-pool:
				return cl.Destroy(epr)
			default:
				// Pool drained (a Destroy-heavy draw sequence): make and
				// destroy. Rare enough — Create and Destroy draw at the
				// same weight over a 64-deep head start — to sit in the
				// distribution's tail without defining it.
				epr, err := cl.Create(counter.Representation(0))
				if err != nil {
					return err
				}
				return cl.Destroy(epr)
			}
		}),
		op("Notify", func() error {
			if err := cl.Set(notifyCtr, counter.Representation(int(notifyVal.Add(1)))); err != nil {
				return err
			}
			select {
			case <-stream.Events():
				return nil
			case <-time.After(5 * time.Second):
				return fmt.Errorf("loadgen: notification never arrived")
			}
		}),
	}
	return w, nil
}

func pubPayload() *xmlutil.Element {
	return xmlutil.New("urn:load", "Ev").Add(xmlutil.NewText("urn:load", "V", "1"))
}

// newPubSubWorkload deploys the fan-out (experiments.NewFanout) with
// `subs` subscriptions spread over `sinks` distinct consumer endpoints,
// and a single Publish op whose latency is the full fan-out batch.
// Sharing endpoints keeps a 10k-subscriber run from needing 10k
// loopback listeners while still exercising the delivery path per
// subscription (same trick as the alloc-flatness benchmark).
func newPubSubWorkload(stack core.Stack, mix mixSpec, subs, sinks int) (*workload, error) {
	f, err := experiments.NewFanout(stack, "load", subs, sinks, container.ClientConfig{PoolSize: pubWorkers})
	if err != nil {
		return nil, err
	}
	if f.Producer != nil {
		f.Producer.Workers = pubWorkers
	} else {
		f.Source.Workers = pubWorkers
	}
	msg := pubPayload()
	publish := func() error {
		n, err := f.Publish(msg)
		if err != nil {
			return err
		}
		if n != subs {
			return fmt.Errorf("loadgen: delivered %d of %d", n, subs)
		}
		return nil
	}
	return &workload{mix: mix, ops: []*loadOp{newOp("Publish", 1, publish)}, close: f.Close}, nil
}
