package experiments

import (
	"runtime"
	"testing"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/fanout"
	"altstacks/internal/netlat"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// smoke runs every op of a deployment once (prep + run).
func smoke(t *testing.T, ops []Op) {
	t.Helper()
	for _, op := range ops {
		if op.Prep != nil {
			if err := op.Prep(); err != nil {
				t.Fatalf("%s prep: %v", op.Name, err)
			}
		}
		if err := op.Run(); err != nil {
			t.Fatalf("%s run: %v", op.Name, err)
		}
		// Second iteration exercises the prep/run cycle reuse.
		if op.Prep != nil {
			if err := op.Prep(); err != nil {
				t.Fatalf("%s re-prep: %v", op.Name, err)
			}
		}
		if err := op.Run(); err != nil {
			t.Fatalf("%s re-run: %v", op.Name, err)
		}
	}
}

func scenario() core.Scenario {
	return core.Scenario{Index: 1, Sec: container.SecurityNone, Link: netlat.CoLocated}
}

func TestHelloOpsBothStacks(t *testing.T) {
	for _, stack := range []core.Stack{core.StackWSRF, core.StackWST} {
		t.Run(string(stack), func(t *testing.T) {
			h, err := NewHello(scenario(), stack, xmldb.CostModel{})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if len(h.Ops) != 5 {
				t.Fatalf("ops = %d, want 5 (Get/Set/Create/Destroy/Notify)", len(h.Ops))
			}
			smoke(t, h.Ops)
		})
	}
}

func TestGridOpsBothStacks(t *testing.T) {
	for _, stack := range []core.Stack{core.StackWSRF, core.StackWST} {
		t.Run(string(stack), func(t *testing.T) {
			g, err := NewGrid(scenario(), stack, xmldb.CostModel{}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if len(g.Ops) != 6 {
				t.Fatalf("ops = %d, want 6 (the Figure 6 rows)", len(g.Ops))
			}
			smoke(t, g.Ops)
			if (stack == core.StackWSRF) != g.UnreserveAutomatic {
				t.Fatalf("UnreserveAutomatic = %v for %s", g.UnreserveAutomatic, stack)
			}
		})
	}
}

// TestSignedScenario runs Get and Set under X.509 signing, then Notify
// past the producer's eviction threshold: were signed delivery to fail
// (the producer verifying the consumer's unsigned acknowledgement),
// the subscription would be evicted after fanout.DefaultEvictAfter
// publishes and a later Notify would time out. Each failed publish can
// queue up to fanout.DefaultMaxAttempts retried copies before that, so
// the loop runs long enough to outlast them all.
func TestSignedScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA-heavy")
	}
	sc := core.Scenario{Index: 2, Sec: container.SecuritySign, Link: netlat.CoLocated}
	for _, stack := range []core.Stack{core.StackWSRF, core.StackWST} {
		t.Run(string(stack), func(t *testing.T) {
			h, err := NewHello(sc, stack, xmldb.CostModel{})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			smoke(t, h.Ops[:2])
			notify := h.Ops[4]
			if err := notify.Prep(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= fanout.DefaultMaxAttempts*fanout.DefaultEvictAfter; i++ {
				if err := notify.Run(); err != nil {
					t.Fatalf("Notify %d: %v", i+1, err)
				}
			}
		})
	}
}

// TestFanoutBothStacks deploys 10 subscriptions over 3 sinks on each
// stack: one publish must reach all 10, the live subscriptions must
// name the sinks in contiguous blocks of 4, 3 and 3, and Close must
// release every goroutine the deployment started, drains included.
func TestFanoutBothStacks(t *testing.T) {
	for _, stack := range []core.Stack{core.StackWSRF, core.StackWST} {
		t.Run(string(stack), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			f, err := NewFanout(stack, "test", 10, 3, container.ClientConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if len(f.Sinks) != 3 {
				t.Fatalf("sinks = %d, want 3", len(f.Sinks))
			}
			msg := xmlutil.New("urn:test", "Ev").Add(xmlutil.NewText("urn:test", "V", "1"))
			if n, err := f.Publish(msg); n != 10 || err != nil {
				t.Fatalf("Publish = %d, %v; want 10, nil", n, err)
			}
			consumers, err := f.Consumers()
			if err != nil {
				t.Fatal(err)
			}
			per := map[string]int{}
			for _, addr := range consumers {
				per[addr]++
			}
			for i, want := range []int{4, 3, 3} {
				if got := per[f.Sinks[i].Address]; got != want {
					t.Fatalf("sink %d has %d subscriptions, want %d (all: %v)", i, got, want, per)
				}
			}
			if len(consumers) != 10 {
				t.Fatalf("%d live subscriptions, want 10", len(consumers))
			}
			f.Close()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

func TestScenarioListMatchesPaper(t *testing.T) {
	scs := core.Scenarios()
	if len(scs) != 6 {
		t.Fatalf("scenarios = %d, want the paper's 6", len(scs))
	}
	co, dist := 0, 0
	for _, sc := range scs {
		if sc.Link.Distributed() {
			dist++
		} else {
			co++
		}
	}
	if co != 3 || dist != 3 {
		t.Fatalf("co-located = %d, distributed = %d", co, dist)
	}
}
