package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/faultinject"
	"altstacks/internal/obs"
	"altstacks/internal/obs/slo"
	"altstacks/internal/retry"
	"altstacks/internal/wse"
	"altstacks/internal/wsn"
	"altstacks/internal/xmldb"
)

// The soak run layers a scripted faultinject churn (flaky subscribers,
// slow consumers, kills with later resurrection) under sustained
// open-loop publishing, then asserts the exit invariants that
// distinguish "survived the weather" from "leaked quietly":
//
//  1. quiesced health: after the churn heals, one publish reaches
//     every live subscription with no error;
//  2. exactly-once eviction: finalSubs == initialSubs − evictions +
//     resubscriptions — a double-counted or phantom eviction breaks
//     the ledger;
//  3. evictions only from kills: flaky (one failure, retried) and slow
//     (delay under the delivery timeout) endpoints must never strike
//     out, so evictions ≤ killed;
//  4. bounded cache: the xmldb document cache's resident population
//     (misses − evictions, from ogsa_xmldb_cache_events_total) stays
//     within its configured cap;
//  5. no goroutine leak: after teardown the process settles back to
//     its pre-deployment goroutine count (plus slack for the runtime's
//     own pools);
//  6. working alerting: a delivery-availability SLO evaluated with
//     tight burn windows must fire while the churn is killing
//     endpoints (an alert that cannot detect scripted carnage is
//     decoration) and must clear once Stop() heals the population and
//     the windows slide past the churn tail.
//
// Failing any invariant returns an error; main exits nonzero.

const (
	soakDeliveryTimeout = 75 * time.Millisecond
	soakEvictAfter      = 3
	soakWorkers         = 16
	// soakGoroutineSlack absorbs runtime-owned goroutines (GC workers,
	// netpoller) that come and go independent of the deployment.
	soakGoroutineSlack = 8
)

var soakRetryPolicy = retry.Policy{
	MaxAttempts: 2,
	BaseBackoff: time.Millisecond,
	MaxBackoff:  4 * time.Millisecond,
}

// soakChurnProfile is the default weather: every 400ms, 2 endpoints
// turn flaky (one failure each, inside the retry budget), 2 turn slow
// (20ms, inside the delivery timeout), and 1 is killed outright for 3
// steps (~1.2s dead — long enough at 15 publishes/s to strike out and
// be evicted before resurrection).
func soakChurnProfile(seed uint64) faultinject.ChurnProfile {
	return faultinject.ChurnProfile{
		Interval:      400 * time.Millisecond,
		Seed:          seed,
		Flaky:         2,
		FlakyFailures: 1,
		Slow:          2,
		SlowDelay:     20 * time.Millisecond,
		Kill:          1,
		DeadSteps:     3,
	}
}

// soakDeployment abstracts the stack-specific pieces the soak loop
// needs: the endpoint population, (re)subscription, publishing, and
// the subscription ledger.
type soakDeployment struct {
	endpoints []string // faultinject keys, index-aligned with sinks
	subscribe func(i int) error
	publish   func() (int, error)
	subCount  func() (int, error)
	hasSub    func(epKey string) (bool, error)
	evictions func() int64
	// sloSource feeds the soak's delivery-availability objective:
	// cumulative (good, total) deliveries.
	sloSource slo.Source
	teardown  func()
}

func runSoak(stack core.Stack, dur time.Duration, rate float64, nsinks int, seed uint64, out io.Writer) error {
	if nsinks < 4 {
		nsinks = 4
	}
	baseline := runtime.NumGoroutine()
	in := faultinject.New()
	dep, err := buildSoakDeployment(stack, in, nsinks)
	if err != nil {
		return err
	}
	defer func() {
		if dep.teardown != nil {
			dep.teardown()
		}
	}()

	vals0 := obs.Values()
	var resub atomic.Int64
	churn := faultinject.NewChurn(in, dep.endpoints, soakChurnProfile(seed))
	churn.OnResurrect = func(ep string) {
		// A dead endpoint long enough to strike out lost its
		// subscription; re-establish it so the population recovers —
		// and count it, because the eviction ledger below balances
		// only if evictions and resubscriptions both count exactly
		// once.
		ok, err := dep.hasSub(ep)
		if err != nil || ok {
			return
		}
		for i, key := range dep.endpoints {
			if key == ep {
				if dep.subscribe(i) == nil {
					resub.Add(1)
				}
				return
			}
		}
	}

	// The delivery-availability SLO, scaled to soak time: windows of
	// 1s/4s instead of 5m/1h, threshold 5 instead of 14.4. During the
	// churn the kill-induced failure fraction (~1.5% at the default 32
	// sinks) burns a 99.9% budget at ~15× — comfortably past the
	// threshold — while a stray single failure after the heal burns at
	// ~2 and stays quiet.
	var sloFired atomic.Int64
	engine := slo.New(slo.Config{
		Objectives: []slo.Objective{
			slo.SourceObjective("delivery-availability", "availability", 0.999, dep.sloSource),
		},
		ShortWindow: time.Second,
		LongWindow:  4 * time.Second,
		Interval:    150 * time.Millisecond,
		Burn:        5,
		DumpTo:      os.Stderr,
		OnFire:      func(slo.State) { sloFired.Add(1) },
	})
	engine.Start()

	fmt.Fprintf(os.Stderr, "loadgen: soak %s: %d endpoints, %v at %g publishes/s, seed %d\n",
		stackShort(string(stack)), nsinks, dur, rate, seed)
	churn.Start()
	pubOp := &loadOp{name: "Publish", weight: 1, run: func() error {
		_, err := dep.publish()
		return err
	}}
	res := runOpenLoop([]*loadOp{pubOp}, rate, dur, 8, seed)
	stats := churn.Stop()

	// All publishes have drained and Stop healed the population (its
	// resurrect hooks re-subscribed any still-evicted endpoint), so
	// the ledger is now stable enough to audit.
	var violations []string
	delivered, err := dep.publish()
	if err != nil {
		violations = append(violations, fmt.Sprintf("post-heal publish failed: %v", err))
	}
	finalSubs, err := dep.subCount()
	if err != nil {
		return fmt.Errorf("reading final subscriptions: %w", err)
	}
	if delivered != finalSubs {
		violations = append(violations, fmt.Sprintf(
			"post-heal publish reached %d of %d live subscriptions", delivered, finalSubs))
	}
	ev := dep.evictions()
	if want := int64(nsinks) - ev + resub.Load(); int64(finalSubs) != want {
		violations = append(violations, fmt.Sprintf(
			"eviction ledger broken: %d final subs, want %d (= %d initial - %d evictions + %d resubscribed)",
			finalSubs, want, nsinks, ev, resub.Load()))
	}
	if int64(stats.Killed) < ev {
		violations = append(violations, fmt.Sprintf(
			"%d evictions but only %d kills: a flaky or slow endpoint struck out", ev, stats.Killed))
	}
	vals1 := obs.Values()
	miss := counterDelta(vals1, vals0, "miss")
	evict := counterDelta(vals1, vals0, "evict")
	if resident := miss - evict; resident > xmldb.DocCacheCap {
		violations = append(violations, fmt.Sprintf(
			"doc cache grew unbounded: %d resident (misses %d - evictions %d) over cap %d",
			resident, miss, evict, xmldb.DocCacheCap))
	}

	// Sixth invariant, firing half: the scripted kills must have tripped
	// the alert. Gated on a long enough run with actual kills — a
	// 2-second smoke with no carnage has nothing to detect.
	if dur >= 5*time.Second && stats.Killed > 0 && sloFired.Load() == 0 {
		violations = append(violations, fmt.Sprintf(
			"SLO alert never fired: %d kills during churn left the burn rate under threshold", stats.Killed))
	}
	// Clearing half: once healed, the burn windows slide past the churn
	// tail and the alert must resolve.
	if sloFired.Load() > 0 {
		cleared := false
		for deadline := time.Now().Add(10 * time.Second); ; {
			if !engine.Firing() {
				cleared = true
				break
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if !cleared {
			violations = append(violations, "SLO alert still firing 10s after the churn healed")
		}
	}
	engine.Stop()

	// Teardown before the leak check; disarm the deferred cleanup.
	dep.teardown()
	dep.teardown = nil
	if leaked := settleGoroutines(baseline+soakGoroutineSlack, 10*time.Second); leaked > 0 {
		violations = append(violations, fmt.Sprintf(
			"goroutine leak: %d over the pre-deployment baseline of %d after teardown",
			leaked, baseline))
	}

	fmt.Fprintf(out,
		"BenchmarkSoak/%s/publish/rate=%g %d %d p50-ns/op %d p99-ns/op %d p999-ns/op %d errors %d evictions %d resubscribed %d killed\n",
		stackShort(string(stack)), rate, pubOp.rec.count.Load(),
		pubOp.rec.quantile(0.50), pubOp.rec.quantile(0.99), pubOp.rec.quantile(0.999),
		pubOp.rec.errs.Load(), ev, resub.Load(), stats.Killed)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "loadgen: soak %s: invariant violated: %s\n", stackShort(string(stack)), v)
		}
		return fmt.Errorf("%d invariant(s) violated", len(violations))
	}
	fmt.Fprintf(os.Stderr,
		"loadgen: soak %s: invariants green (%d publishes, %d errored during churn; %d killed, %d evicted, %d resubscribed, %d flaked, %d slowed)\n",
		stackShort(string(stack)), res.Completed, pubOp.rec.errs.Load(),
		stats.Killed, ev, resub.Load(), stats.Flaked, stats.Slowed)
	return nil
}

// counterDelta reads the run's delta of one xmldb document-cache event
// counter.
func counterDelta(after, before map[string]int64, event string) int64 {
	key := fmt.Sprintf(`ogsa_xmldb_cache_events_total{cache="doc",event=%q}`, event)
	return after[key] - before[key]
}

// settleGoroutines polls until the goroutine count drops to the limit
// or the deadline passes; returns how many remained over the limit.
func settleGoroutines(limit int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	for {
		n := runtime.NumGoroutine()
		if n <= limit {
			return 0
		}
		if time.Now().After(deadline) {
			return n - limit
		}
		runtime.GC() // flush finalizer-held conns
		time.Sleep(100 * time.Millisecond)
	}
}

func buildSoakDeployment(stack core.Stack, in *faultinject.Injector, nsinks int) (*soakDeployment, error) {
	c := container.New(container.SecurityNone)
	setupClient := container.NewClient(container.ClientConfig{})
	deliverClient := container.NewClient(container.ClientConfig{PoolSize: soakWorkers})
	quit := make(chan struct{})
	var closers []func()
	closers = append(closers, c.Close, func() { close(quit) })
	teardown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}

	dep := &soakDeployment{teardown: teardown}
	switch stack {
	case core.StackWSRF:
		p := wsn.NewProducer(xmldb.NewMemory(xmldb.CostModel{}), "subs",
			func() string { return c.BaseURL() + "/manager" }, deliverClient)
		p.Deliver = in.WrapClient(p.Deliver)
		p.Workers = soakWorkers
		p.DeliveryTimeout = soakDeliveryTimeout
		p.Retry = soakRetryPolicy
		p.EvictAfter = soakEvictAfter
		svc := &container.Service{Path: "/producer", Actions: map[string]container.ActionFunc{}}
		for a, fn := range p.ProducerPortType().Actions() {
			svc.Actions[a] = fn
		}
		c.Register(svc)
		c.Register(p.ManagerService("/manager"))
		if _, err := c.Start(); err != nil {
			teardown()
			return nil, err
		}
		var consumers []*wsn.Consumer
		for i := 0; i < nsinks; i++ {
			cons, err := wsn.NewConsumer(64)
			if err != nil {
				teardown()
				return nil, err
			}
			consumers = append(consumers, cons)
			closers = append(closers, cons.Close)
			go func() {
				// Consumer channels are never closed; the quit signal
				// releases the drain so the leak invariant can hold.
				for {
					select {
					case <-cons.Ch:
					case <-quit:
						return
					}
				}
			}()
			dep.endpoints = append(dep.endpoints, faultinject.Key(cons.EPR().Address))
		}
		dep.subscribe = func(i int) error {
			_, err := wsn.Subscribe(setupClient, c.EPR("/producer"), consumers[i].EPR(),
				wsn.SubscribeOptions{Topic: wsn.Concrete("soak/tick")})
			return err
		}
		msg := pubPayload()
		dep.publish = func() (int, error) { return p.Notify("soak/tick", msg) }
		dep.subCount = func() (int, error) {
			subs, err := p.Subscriptions()
			return len(subs), err
		}
		dep.hasSub = func(epKey string) (bool, error) {
			subs, err := p.Subscriptions()
			if err != nil {
				return false, err
			}
			for _, s := range subs {
				if faultinject.Key(s.Consumer.Address) == epKey {
					return true, nil
				}
			}
			return false, nil
		}
		dep.evictions = func() int64 { return p.DeliveryStats().Evictions }
		dep.sloSource = func() (int64, int64) {
			st := p.DeliveryStats()
			return st.Deliveries, st.Deliveries + st.Failures
		}
	case core.StackWST:
		store, err := wse.NewStore("")
		if err != nil {
			teardown()
			return nil, err
		}
		src := wse.NewSource(store, func() string { return c.BaseURL() + "/manager" }, deliverClient)
		src.HTTP = in.WrapClient(src.HTTP)
		src.Workers = soakWorkers
		src.DeliveryTimeout = soakDeliveryTimeout
		src.Retry = soakRetryPolicy
		src.EvictAfter = soakEvictAfter
		closers = append(closers, func() { src.TCP.Close() })
		c.Register(src.SourceService("/source"))
		c.Register(src.ManagerService("/manager"))
		if _, err := c.Start(); err != nil {
			teardown()
			return nil, err
		}
		var sinks []*wse.HTTPSink
		for i := 0; i < nsinks; i++ {
			sink, err := wse.NewHTTPSink(64)
			if err != nil {
				teardown()
				return nil, err
			}
			sinks = append(sinks, sink)
			closers = append(closers, sink.Close)
			go func() {
				for {
					select {
					case <-sink.Ch:
					case <-quit:
						return
					}
				}
			}()
			dep.endpoints = append(dep.endpoints, faultinject.Key(sink.EPR().Address))
		}
		dep.subscribe = func(i int) error {
			_, err := wse.Subscribe(setupClient, c.EPR("/source"), wse.SubscribeOptions{
				NotifyTo: sinks[i].EPR(), Filter: wse.TopicFilter("soak/*")})
			return err
		}
		msg := pubPayload()
		dep.publish = func() (int, error) { return src.Publish("soak/tick", msg) }
		dep.subCount = func() (int, error) { return len(src.Store.All()), nil }
		dep.hasSub = func(epKey string) (bool, error) {
			for _, s := range src.Store.All() {
				if faultinject.Key(s.NotifyTo.Address) == epKey {
					return true, nil
				}
			}
			return false, nil
		}
		dep.evictions = func() int64 { return src.DeliveryStats().Evictions }
		dep.sloSource = func() (int64, int64) {
			st := src.DeliveryStats()
			return st.Deliveries, st.Deliveries + st.Failures
		}
	default:
		teardown()
		return nil, fmt.Errorf("loadgen: unknown stack %q", stack)
	}
	// Initial population: one subscription per endpoint.
	for i := range dep.endpoints {
		if err := dep.subscribe(i); err != nil {
			teardown()
			return nil, err
		}
	}
	return dep, nil
}
