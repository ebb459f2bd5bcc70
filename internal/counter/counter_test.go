package counter

import (
	"testing"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/wsa"
	"altstacks/internal/wse"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// startWSRF brings up the WSRF counter world.
func startWSRF(t *testing.T) (Client, *WSRFService) {
	t.Helper()
	c := container.New(container.SecurityNone)
	client := container.NewClient(container.ClientConfig{})
	svc := InstallWSRF(c, xmldb.NewMemory(xmldb.CostModel{}), client)
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return &WSRFClient{C: client, Service: c.EPR("/counter")}, svc
}

// startWST brings up the WS-Transfer counter world.
func startWST(t *testing.T) (Client, *WSTService) {
	t.Helper()
	c := container.New(container.SecurityNone)
	client := container.NewClient(container.ClientConfig{})
	store, err := wse.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	svc := InstallWST(c, xmldb.NewMemory(xmldb.CostModel{}), store, client)
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return NewWSTClient(client, c.BaseURL()), svc
}

// stacks runs a subtest against both implementations — the
// apples-to-apples structure of §4.1.
func stacks(t *testing.T, fn func(t *testing.T, cl Client)) {
	t.Run("wsrf", func(t *testing.T) {
		cl, _ := startWSRF(t)
		fn(t, cl)
	})
	t.Run("wst", func(t *testing.T) {
		cl, _ := startWST(t)
		fn(t, cl)
	})
}

func TestCreateGetSetDestroy(t *testing.T) {
	stacks(t, func(t *testing.T, cl Client) {
		epr, err := cl.Create(Representation(0))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cl.Get(epr)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := Value(rep); v != 0 {
			t.Fatalf("initial value = %d", v)
		}
		if err := cl.Set(epr, Representation(41)); err != nil {
			t.Fatal(err)
		}
		rep, err = cl.Get(epr)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := Value(rep); v != 41 {
			t.Fatalf("after set: %d", v)
		}
		if err := cl.Destroy(epr); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Get(epr); err == nil {
			t.Fatal("get after destroy succeeded")
		}
	})
}

func TestValueChangedNotification(t *testing.T) {
	// The paper's Notify measurement: "a client first subscribes to the
	// CounterValueChanged event for a particular counter. Then, we
	// measure the duration to first set the value of the counter and
	// then receive a message indicating that the counter value has
	// changed" (§4.1.3).
	stacks(t, func(t *testing.T, cl Client) {
		epr, err := cl.Create(Representation(0))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := cl.SubscribeValueChanged(epr)
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Cancel() //nolint:errcheck
		if err := cl.Set(epr, Representation(7)); err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-stream.Events():
			if ev.Message.ChildText(NS, "Value") != "7" {
				t.Fatalf("event = %+v (%s)", ev, ev.Message)
			}
		case <-time.After(3 * time.Second):
			t.Fatal("no CounterValueChanged event")
		}
	})
}

func TestNotificationScopedToOneCounter(t *testing.T) {
	// Subscribing to one counter must not surface other counters'
	// changes — WSRF pins the id via a message-content filter, WS-
	// Eventing via a per-resource topic filter.
	stacks(t, func(t *testing.T, cl Client) {
		mine, err := cl.Create(Representation(0))
		if err != nil {
			t.Fatal(err)
		}
		other, err := cl.Create(Representation(0))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := cl.SubscribeValueChanged(mine)
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Cancel() //nolint:errcheck
		if err := cl.Set(other, Representation(99)); err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-stream.Events():
			t.Fatalf("received another counter's event: %s", ev.Message)
		case <-time.After(150 * time.Millisecond):
		}
		if err := cl.Set(mine, Representation(1)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-stream.Events():
		case <-time.After(3 * time.Second):
			t.Fatal("own event never arrived")
		}
	})
}

func TestCancelStopsEvents(t *testing.T) {
	stacks(t, func(t *testing.T, cl Client) {
		epr, err := cl.Create(Representation(0))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := cl.SubscribeValueChanged(epr)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Cancel(); err != nil {
			t.Fatalf("cancel: %v", err)
		}
		if err := cl.Set(epr, Representation(5)); err != nil {
			t.Fatal(err)
		}
		select {
		case ev, ok := <-stream.Events():
			if ok {
				t.Fatalf("event after cancel: %+v", ev)
			}
		case <-time.After(150 * time.Millisecond):
		}
	})
}

func TestWSRFSetSkipsDBRead(t *testing.T) {
	// §4.1.3: the WSRF.NET resource cache avoids the read-before-write;
	// the WS-Transfer implementation pays it. Measure actual database
	// access patterns through both full protocol paths.
	wsrfDB := xmldb.NewMemory(xmldb.CostModel{})
	c1 := container.New(container.SecurityNone)
	client1 := container.NewClient(container.ClientConfig{})
	InstallWSRF(c1, wsrfDB, client1)
	if _, err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	wsrfCl := &WSRFClient{C: client1, Service: c1.EPR("/counter")}

	wstDB := xmldb.NewMemory(xmldb.CostModel{})
	c2 := container.New(container.SecurityNone)
	client2 := container.NewClient(container.ClientConfig{})
	store, _ := wse.NewStore("")
	InstallWST(c2, wstDB, store, client2)
	if _, err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	wstCl := NewWSTClient(client2, c2.BaseURL())

	// Count reads against the counter documents only: the notification
	// layer's subscription scans share the database but are not the
	// effect under test.
	run := func(cl Client, db *xmldb.DB) int64 {
		epr, err := cl.Create(Representation(0))
		if err != nil {
			t.Fatal(err)
		}
		before := db.CollectionStats("counters").Reads
		for i := 0; i < 5; i++ {
			if err := cl.Set(epr, Representation(i)); err != nil {
				t.Fatal(err)
			}
		}
		return db.CollectionStats("counters").Reads - before
	}
	wsrfReads := run(wsrfCl, wsrfDB)
	wstReads := run(wstCl, wstDB)
	if wsrfReads != 0 {
		t.Fatalf("WSRF sets performed %d db reads, want 0 (write-through cache)", wsrfReads)
	}
	if wstReads < 5 {
		t.Fatalf("WS-Transfer sets performed %d db reads, want ≥5 (read-before-write)", wstReads)
	}
}

func TestRepresentationHelpers(t *testing.T) {
	rep := Representation(42)
	v, err := Value(rep)
	if err != nil || v != 42 {
		t.Fatalf("Value = %d, %v", v, err)
	}
	if _, err := Value(nil); err == nil {
		t.Fatal("nil representation accepted")
	}
	if _, err := Value(xmlutil.New(NS, "Counter")); err == nil {
		t.Fatal("valueless representation accepted")
	}
}

func TestWSRFCreateWithInitialValue(t *testing.T) {
	cl, _ := startWSRF(t)
	epr, err := cl.Create(Representation(10))
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := cl.Get(epr)
	if v, _ := Value(rep); v != 10 {
		t.Fatalf("initial = %d", v)
	}
}

func TestWSRFSetRejectsNonInteger(t *testing.T) {
	cl, _ := startWSRF(t)
	epr, err := cl.Create(Representation(0))
	if err != nil {
		t.Fatal(err)
	}
	bad := xmlutil.New(NS, "Counter").Add(xmlutil.NewText(NS, "Value", "many"))
	if err := cl.Set(epr, bad); err == nil {
		t.Fatal("non-integer set accepted")
	}
}

func TestStackNeutralInterfaceSatisfied(t *testing.T) {
	// §5's switching question: both clients behind one interface.
	var _ core.ResourceClient = (*WSRFClient)(nil)
	var _ core.ResourceClient = (*WSTClient)(nil)
	var eprs []wsa.EPR
	stacksList := []func(t *testing.T) Client{
		func(t *testing.T) Client { cl, _ := startWSRF(t); return cl },
		func(t *testing.T) Client { cl, _ := startWST(t); return cl },
	}
	for _, start := range stacksList {
		cl := start(t)
		epr, err := cl.Create(Representation(1))
		if err != nil {
			t.Fatal(err)
		}
		eprs = append(eprs, epr)
	}
	if len(eprs) != 2 {
		t.Fatal("both stacks should mint EPRs")
	}
	// An EPR from one stack aimed at the other must fail: "an existing
	// WSRF-speaking client cannot simply be aimed at the corresponding
	// WS-Transfer-based services" (§5).
	wsrfCl, _ := startWSRF(t)
	if _, err := wsrfCl.Get(eprs[1]); err == nil {
		t.Fatal("WSRF client consumed a WS-Transfer EPR")
	}
}
