// SLO burn-rate alerting end to end, in process: a delivery-
// availability objective over the WSN producer's real delivery stats
// fires while fault injection keeps a subscriber dead, the firing
// transition dumps the fault flight recorder (which names the striking
// endpoint), and the alert resolves once the endpoint heals and the
// burn windows slide past the breach. The clock is injected, so the
// window arithmetic is deterministic under -race.
package altstacks_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/experiments"
	"altstacks/internal/faultinject"
	"altstacks/internal/obs"
	"altstacks/internal/obs/slo"
	"altstacks/internal/retry"
	"altstacks/internal/xmlutil"
)

func TestSLOBreachAndHeal(t *testing.T) {
	obs.Enable()
	obs.ResetTraces()
	obs.ResetEvents()
	defer func() {
		obs.Disable()
		obs.ResetTraces()
		obs.ResetEvents()
	}()

	// Two subscribers: the first stays healthy, the second is doomed.
	in := faultinject.New()
	f, err := experiments.NewFanout(core.StackWSRF, "slo", 2, 2, container.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := f.Producer
	p.Deliver = in.WrapClient(p.Deliver)
	p.DeliveryTimeout = 200 * time.Millisecond
	p.Retry = retry.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	p.EvictAfter = 0 // keep the dead subscriber failing: a sustained burn, not a strike-out
	doomedKey := faultinject.Key(f.Sinks[1].Address)

	// The engine is driven synchronously with a hand-cranked clock; the
	// objective reads the producer's real cumulative delivery totals.
	now := time.Unix(1_000_000, 0)
	var dump bytes.Buffer
	var fired, resolved []slo.State
	engine := slo.New(slo.Config{
		Objectives: []slo.Objective{slo.SourceObjective("delivery-availability", "availability", 0.999,
			func() (int64, int64) {
				st := p.DeliveryStats()
				return st.Deliveries, st.Deliveries + st.Failures
			})},
		ShortWindow: 30 * time.Second,
		LongWindow:  100 * time.Second,
		Burn:        10,
		Now:         func() time.Time { return now },
		DumpTo:      &dump,
		OnFire:      func(s slo.State) { fired = append(fired, s) },
		OnResolve:   func(s slo.State) { resolved = append(resolved, s) },
	})
	defer engine.Stop()

	// publish drives n fan-outs; delivery errors are expected while the
	// doomed subscriber is dead (the stats assertions see them), so
	// Notify's aggregate error is deliberately ignored.
	publish := func(n int) {
		msg := xmlutil.New("urn:slo", "Ev").Add(xmlutil.NewText("urn:slo", "V", "1"))
		for i := 0; i < n; i++ {
			_, _ = p.Notify("slo/tick", msg)
		}
	}
	step := func() []slo.State {
		now = now.Add(10 * time.Second)
		return engine.Evaluate()
	}

	// Healthy phase: both subscribers deliver, nothing fires.
	engine.Evaluate() // baseline sample at t0
	publish(3)
	if st := p.DeliveryStats(); st.Failures != 0 || st.Deliveries < 6 {
		t.Fatalf("healthy phase broken before the breach: %+v", st)
	}
	if sts := step(); sts[0].Firing {
		t.Fatalf("healthy deliveries fired the alert: %+v", sts[0])
	}

	// Breach: kill one of the two subscribers — every publish now burns
	// half its deliveries against a 0.1%% budget.
	in.Set(doomedKey, faultinject.Plan{FailAll: true})
	publish(5)
	if st := p.DeliveryStats(); st.Failures < 5 {
		t.Fatalf("fault injection did not bite: %+v", st)
	}
	sts := step()
	if !sts[0].Firing {
		t.Fatalf("sustained delivery failures did not fire: %+v", sts[0])
	}
	if len(fired) != 1 {
		t.Fatalf("fire transitions = %d, want 1", len(fired))
	}

	// Firing must have dumped the flight recorder, and the recorder must
	// name the delivery faults that burned the budget.
	if !strings.Contains(dump.String(), "flight recorder:") ||
		!strings.Contains(dump.String(), "wsn.delivery_fault") {
		t.Fatalf("firing dump does not explain the breach:\n%s", dump.String())
	}
	kinds := map[string]bool{}
	for _, e := range obs.Events() {
		kinds[e.Kind] = true
	}
	if !kinds["wsn.delivery_fault"] || !kinds["slo.fire"] {
		t.Fatalf("flight recorder missing breach events; have %v", kinds)
	}

	// Heal: resurrect the endpoint, push good traffic, slide the short
	// window past the breach. The alert must resolve even though the
	// long window still remembers it.
	in.Clear(doomedKey)
	publish(6)
	cleared := false
	for i := 0; i < 6 && !cleared; i++ {
		publish(1)
		cleared = !step()[0].Firing
	}
	if !cleared {
		t.Fatalf("alert never resolved after heal: %+v", engine.States())
	}
	if len(resolved) != 1 {
		t.Fatalf("resolve transitions = %d, want 1", len(resolved))
	}
	for _, e := range obs.Events() {
		kinds[e.Kind] = true
	}
	if !kinds["slo.resolve"] {
		t.Fatal("resolve transition not recorded in the flight recorder")
	}
}
