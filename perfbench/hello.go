package main

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/counter"
	"altstacks/internal/netlat"
	"altstacks/internal/wsa"
	"altstacks/internal/wse"
	"altstacks/internal/wsn"
	"altstacks/internal/xmldb"
)

// hello-mix: the counter service with no security, co-located, over
// in-memory xmldb under the zero cost model, deployed as
// experiments.NewHello deploys it (the WSRF producer delivers one
// connection per message). Two callers each draw Get 35 / Set 25 /
// Create 15 / Destroy 15 / Notify 10 over counters of their own.

const (
	helloCallers = 2
	// helloPool is how many counters each caller creates up front for
	// its Destroy draws.
	helloPool = 32
	// helloChecked is how many of its most recently destroyed counters
	// each caller reads back after measuring, to check they are gone.
	helloChecked = 32
	// notifyWait bounds the wait for a notification before the Notify
	// operation fails.
	notifyWait = 5 * time.Second
)

func deployHello(e *env, stack string, traced bool) (*deployment, error) {
	fix := *e.fix
	fix.Sec = container.SecurityNone
	c := fix.NewContainer()
	var backend xmldb.Backend = xmldb.NewMemoryBackend()
	d := &deployment{warmup: 200, publishCell: "notify"}
	if traced {
		d.backend = &backendMeter{Backend: backend}
		backend = d.backend
	}
	d.db = xmldb.New(backend, xmldb.CostModel{})
	notify := fix.NewNotifyClient()
	switch stack {
	case "wsrf":
		svc := counter.InstallWSRF(c, d.db, notify)
		svc.Producer.Mode = container.DeliveryPerMessage
		d.delivery = func() deliveryCounts { return wsnCounts(svc.Producer) }
	case "wst":
		store, err := wse.NewStore("")
		if err != nil {
			return nil, err
		}
		svc := counter.InstallWST(c, d.db, store, notify)
		svc.Source.TCP.WrapConn = netlat.CoLocated.Conn
		d.delivery = func() deliveryCounts { return wseCounts(svc.Source) }
	}
	base, err := c.Start()
	if err != nil {
		return nil, err
	}
	var callers []*helloCaller
	d.close = func() {
		for _, s := range callers {
			s.stop()
		}
		c.Close()
	}
	var dups atomic.Int64
	d.duplicates = dups.Load
	for i := 0; i < helloCallers; i++ {
		client := fix.NewClient()
		if traced {
			d.wire = append(d.wire, meterClient(client))
		}
		var cl counter.Client = &counter.WSRFClient{C: client, Service: wsa.NewEPR(base + "/counter")}
		if stack == "wst" {
			cl = counter.NewWSTClient(client, base)
		}
		s, err := newHelloCaller(cl, e.rng(uint64(i)), &dups)
		if err != nil {
			d.close()
			return nil, err
		}
		callers = append(callers, s)
		d.callers = append(d.callers, s)
	}
	d.check = func() int {
		bad := 0
		for _, s := range callers {
			bad += s.checkDestroyed()
		}
		return bad
	}
	return d, nil
}

func wsnCounts(p *wsn.Producer) deliveryCounts {
	s := p.DeliveryStats()
	return deliveryCounts{s.Attempts, s.Retries, s.Deliveries, s.Evictions}
}

func wseCounts(src *wse.Source) deliveryCounts {
	s := src.DeliveryStats()
	return deliveryCounts{s.Attempts, s.Retries, s.Deliveries, s.Evictions}
}

// receipt is one notification as the caller's subscriber saw it.
type receipt struct {
	value int
	at    time.Time
}

type helloCaller struct {
	cl  counter.Client
	rng *rand.Rand

	fixed wsa.EPR
	last  int // the value Get must return

	notifyCtr wsa.EPR
	notifyVal int
	stream    core.EventStream
	receipts  chan receipt
	done      chan struct{}
	drained   chan struct{}

	pool []wsa.EPR
	// destroyed holds the last helloChecked counters destroyed.
	destroyed []wsa.EPR
}

func newHelloCaller(cl counter.Client, rng *rand.Rand, dups *atomic.Int64) (*helloCaller, error) {
	s := &helloCaller{cl: cl, rng: rng, done: make(chan struct{}), drained: make(chan struct{})}
	var err error
	s.last = rng.IntN(1000)
	if s.fixed, err = cl.Create(counter.Representation(s.last)); err != nil {
		return nil, err
	}
	if s.notifyCtr, err = cl.Create(counter.Representation(0)); err != nil {
		return nil, err
	}
	for i := 0; i < helloPool; i++ {
		epr, err := cl.Create(counter.Representation(rng.IntN(1000)))
		if err != nil {
			return nil, err
		}
		s.pool = append(s.pool, epr)
	}
	if s.stream, err = cl.SubscribeValueChanged(s.notifyCtr); err != nil {
		return nil, err
	}
	// The subscriber side: timestamp each notification as it arrives.
	// Notify waits for one receipt at a time, so one slot suffices; a
	// duplicate that finds it full is counted and dropped.
	s.receipts = make(chan receipt, 1)
	go func() {
		defer close(s.drained)
		seen := 0
		for {
			select {
			case ev := <-s.stream.Events():
				at := time.Now()
				v, err := counter.Value(ev.Message)
				if err != nil || v <= seen {
					dups.Add(1)
					continue
				}
				seen = v
				select {
				case s.receipts <- receipt{v, at}:
				default:
					dups.Add(1)
				}
			case <-s.done:
				return
			}
		}
	}()
	return s, nil
}

func (s *helloCaller) stop() {
	close(s.done)
	<-s.drained
	// The counter's container closes right after; an unsubscribe that
	// fails then changes nothing the benchmark reports.
	_ = s.stream.Cancel()
}

func (s *helloCaller) step(t0 time.Time, smp *samples) error {
	var name string
	var err error
	switch r := s.rng.IntN(100); {
	case r < 35:
		name, err = "get", s.get()
	case r < 60:
		name, err = "set", s.set()
	case r < 75:
		name, err = "create", s.create()
	case r < 90:
		name, err = "destroy", s.destroy()
	default:
		name, err = "notify", s.notify(t0, smp)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	smp.cell(name, time.Since(t0))
	return nil
}

func (s *helloCaller) get() error {
	rep, err := s.cl.Get(s.fixed)
	if err != nil {
		return err
	}
	v, err := counter.Value(rep)
	if err != nil {
		return err
	}
	if v != s.last {
		return fmt.Errorf("read %d, last set %d", v, s.last)
	}
	return nil
}

func (s *helloCaller) set() error {
	v := s.rng.IntN(1 << 30)
	if err := s.cl.Set(s.fixed, counter.Representation(v)); err != nil {
		return err
	}
	s.last = v
	return nil
}

func (s *helloCaller) create() error {
	epr, err := s.cl.Create(counter.Representation(s.rng.IntN(1000)))
	if err != nil {
		return err
	}
	s.pool = append(s.pool, epr)
	return nil
}

func (s *helloCaller) destroy() error {
	if len(s.pool) == 0 {
		// More Destroy than Create draws so far: destroy a fresh one.
		if err := s.create(); err != nil {
			return err
		}
	}
	epr := s.pool[len(s.pool)-1]
	if err := s.cl.Destroy(epr); err != nil {
		return err
	}
	s.pool = s.pool[:len(s.pool)-1]
	if len(s.destroyed) == helloChecked {
		s.destroyed = s.destroyed[1:]
	}
	s.destroyed = append(s.destroyed, epr)
	return nil
}

// notify is §4.1.3's Notify: set the value, then wait for the
// notification that it changed. Delivery latency runs from the start
// of the operation to the subscriber's receipt.
func (s *helloCaller) notify(t0 time.Time, smp *samples) error {
	s.notifyVal++
	if err := s.cl.Set(s.notifyCtr, counter.Representation(s.notifyVal)); err != nil {
		return err
	}
	timeout := time.NewTimer(notifyWait)
	defer timeout.Stop()
	select {
	case r := <-s.receipts:
		if r.value != s.notifyVal {
			return fmt.Errorf("notified of %d, set %d", r.value, s.notifyVal)
		}
		smp.delivered(r.at.Sub(t0))
		return nil
	case <-timeout.C:
		return fmt.Errorf("notification of %d never arrived", s.notifyVal)
	}
}

// checkDestroyed confirms that the counters destroyed last are gone
// and returns how many are still readable.
func (s *helloCaller) checkDestroyed() int {
	bad := 0
	for _, epr := range s.destroyed {
		if _, err := s.cl.Get(epr); err == nil {
			bad++
		}
	}
	s.destroyed = nil
	return bad
}
