package fanout

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"altstacks/internal/retry"
)

var testCounters = NewCounters("fanouttest")

// fakeSub is a subscription whose deliveries fail while failLeft is
// nonzero (negative: forever), after an optional delay.
type fakeSub struct {
	id       string
	accept   func(string) bool // nil accepts every message
	failLeft atomic.Int32
	delay    time.Duration
}

// fakeStack is a minimal stack over the engine: an in-memory
// subscription set with an exactly-once removal gate and a map for
// persisted health.
type fakeStack struct {
	knobs Knobs
	eng   *Engine[*fakeSub, string]

	mu      sync.Mutex
	subs    []*fakeSub
	stored  map[string]Health
	writes  int
	removed map[string]bool
	ended   atomic.Int32
}

func newFakeStack(subs ...*fakeSub) *fakeStack {
	f := &fakeStack{subs: subs, stored: map[string]Health{}, removed: map[string]bool{}}
	f.eng = NewEngine(&f.knobs, Stack[*fakeSub, string]{
		Name:     "fanouttest",
		Counters: testCounters,
		ID:       func(s *fakeSub) string { return s.id },
		Match: func(s *fakeSub, m string) (bool, error) {
			if m == "bad" {
				return false, errors.New("filter broke")
			}
			return s.accept == nil || s.accept(m), nil
		},
		Evict: func(s *fakeSub, _ error) bool {
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.removed[s.id] {
				return false
			}
			f.removed[s.id] = true
			f.ended.Add(1)
			return true
		},
		LoadHealth: func(id string) Health {
			f.mu.Lock()
			defer f.mu.Unlock()
			return f.stored[id]
		},
		StoreHealth: func(id string, h Health) error {
			f.mu.Lock()
			defer f.mu.Unlock()
			f.stored[id] = h
			f.writes++
			return nil
		},
		Publish: f.publish,
		Now:     time.Now,
	})
	return f
}

func (f *fakeStack) publish(ctx context.Context, msgs []string) (int, error) {
	f.mu.Lock()
	var live []*fakeSub
	for _, s := range f.subs {
		if !f.removed[s.id] {
			live = append(live, s)
		}
	}
	f.mu.Unlock()
	return f.eng.Deliver(ctx, f.eng.Match(live, msgs), func(ctx context.Context, pl Plan[*fakeSub, string]) error {
		time.Sleep(pl.Sub.delay)
		if pl.Sub.failLeft.Load() != 0 {
			pl.Sub.failLeft.Add(-1)
			return fmt.Errorf("deliver to %s failed", pl.Sub.id)
		}
		return nil
	})
}

func failing(id string, n int32) *fakeSub {
	s := &fakeSub{id: id}
	s.failLeft.Store(n)
	return s
}

// TestEngineSuccessResetsLedger pins the ledger's transitions: a
// failed publish counts and persists, the next success resets the count
// and persists the recovery, and steady-state successes write nothing.
func TestEngineSuccessResetsLedger(t *testing.T) {
	f := newFakeStack(failing("a", 1))
	f.knobs.EvictAfter = 3

	if n, err := f.publish(context.Background(), []string{"m"}); n != 0 || err == nil {
		t.Fatalf("first publish = %d, %v; want 0 and an error", n, err)
	}
	if h := f.eng.Health("a"); h.ConsecutiveFailures != 1 || h.LastError == "" || h.LastFailure.IsZero() {
		t.Fatalf("health after failure = %+v", h)
	}
	if f.stored["a"].ConsecutiveFailures != 1 || f.writes != 1 {
		t.Fatalf("persisted %+v after %d writes; want the failure, written once", f.stored["a"], f.writes)
	}

	if n, err := f.publish(context.Background(), []string{"m"}); n != 1 || err != nil {
		t.Fatalf("recovery publish = %d, %v", n, err)
	}
	h := f.eng.Health("a")
	if h.ConsecutiveFailures != 0 || h.LastError != "" || h.LastSuccess.IsZero() {
		t.Fatalf("health after recovery = %+v; want reset with a success time", h)
	}
	if f.stored["a"].ConsecutiveFailures != 0 || f.writes != 2 {
		t.Fatalf("recovery not written through: %+v after %d writes", f.stored["a"], f.writes)
	}

	for i := 0; i < 3; i++ {
		if _, err := f.publish(context.Background(), []string{"m"}); err != nil {
			t.Fatal(err)
		}
	}
	if f.writes != 2 {
		t.Fatalf("healthy publishes wrote the ledger %d more times", f.writes-2)
	}
	if st := f.eng.Stats(); st.Evictions != 0 || st.Deliveries != 4 || st.Failures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEngineEvictsExactlyOnceAtEvictAfter pins the eviction threshold
// and the exactly-once count: below EvictAfter nothing happens, at it
// the stack's Evict runs, and racing publishes against a dead
// subscriber count one eviction and one removal between them.
func TestEngineEvictsExactlyOnceAtEvictAfter(t *testing.T) {
	f := newFakeStack(failing("dead", -1), failing("ok", 0))
	f.knobs.EvictAfter = 2

	if n, _ := f.publish(context.Background(), []string{"m"}); n != 1 {
		t.Fatalf("first publish delivered %d, want 1", n)
	}
	if ev := f.eng.Stats().Evictions; ev != 0 || f.removed["dead"] {
		t.Fatalf("evicted below EvictAfter (evictions %d)", ev)
	}
	if n, _ := f.publish(context.Background(), []string{"m"}); n != 1 {
		t.Fatalf("second publish delivered %d, want 1", n)
	}
	if ev := f.eng.Stats().Evictions; ev != 1 || !f.removed["dead"] || f.ended.Load() != 1 {
		t.Fatalf("evictions %d, removed %v, ended %d; want 1, true, 1", ev, f.removed["dead"], f.ended.Load())
	}

	// Racing publishes: each that matched the dead subscriber before
	// its removal reaches the threshold; the gate counts one.
	g := newFakeStack(&fakeSub{id: "racer", delay: 5 * time.Millisecond})
	g.subs[0].failLeft.Store(-1)
	g.knobs.EvictAfter = 1
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = g.publish(context.Background(), []string{"m"})
		}()
	}
	wg.Wait()
	if ev := g.eng.Stats().Evictions; ev != 1 || g.ended.Load() != 1 {
		t.Fatalf("concurrent evictions = %d, Evict removed it %d times; want exactly 1 each", ev, g.ended.Load())
	}
}

// TestEngineAccounting pins the counters around retry.Do: attempts
// include retries, a multi-message exchange counts as one coalesced
// delivery, MessagesSent counts messages per subscriber, a partial
// match delivers only its subset, and a filter error is a fault.
func TestEngineAccounting(t *testing.T) {
	all := failing("all", 2)
	odd := &fakeSub{id: "odd", accept: func(m string) bool { return m == "1" || m == "3" }}
	f := newFakeStack(all, odd)
	f.knobs.Retry = retry.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}

	msgs := []string{"1", "2", "3"}
	plans := f.eng.Match(f.subs, msgs)
	if len(plans) != 2 || len(plans[0].Subset) != 3 || &plans[0].Subset[0] != &msgs[0] ||
		strings.Join(plans[1].Subset, ",") != "1,3" {
		t.Fatalf("plans = %+v; want the whole batch shared, then subset 1,3", plans)
	}
	if n, err := f.publish(context.Background(), msgs); n != 2 || err != nil {
		t.Fatalf("publish = %d, %v; want 2, nil", n, err)
	}
	st := f.eng.Stats()
	want := Stats{Attempts: 4, Retries: 2, Deliveries: 2, CoalescedBatches: 2}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if sent := f.eng.MessagesSent(); sent != 5 {
		t.Fatalf("MessagesSent = %d, want 5 (3 + 2)", sent)
	}

	if n, err := f.publish(context.Background(), []string{"bad"}); n != 0 || err != nil {
		t.Fatalf("filter-error publish = %d, %v; want 0, nil", n, err)
	}
	if st := f.eng.Stats(); st.FilterErrors != 2 || st.Failures != 0 {
		t.Fatalf("stats = %+v; want 2 filter errors, no delivery failures", st)
	}
	if h := f.eng.Health("odd"); h.ConsecutiveFailures != 1 || !strings.Contains(h.LastError, "filter evaluation for subscription odd") {
		t.Fatalf("filter error not recorded as a fault: %+v", h)
	}
}

// TestEngineFirstErrorInSubscriptionOrder pins the result loop: with
// deliveries running in parallel, the error returned is the earliest
// failing subscription's, even when a later one fails first.
func TestEngineFirstErrorInSubscriptionOrder(t *testing.T) {
	slow := failing("b", -1)
	slow.delay = 30 * time.Millisecond
	f := newFakeStack(failing("a", 0), slow, failing("c", 0), failing("d", -1), failing("e", 0))
	f.knobs.Workers = 8

	n, err := f.publish(context.Background(), []string{"m"})
	if n != 3 || err == nil || !strings.Contains(err.Error(), "deliver to b") {
		t.Fatalf("publish = %d, %v; want 3 delivered and b's error", n, err)
	}
}

// TestEngineEnqueueCoalesces pins the enqueue path: messages queued
// while the batch forms flush through the stack's Publish together.
func TestEngineEnqueueCoalesces(t *testing.T) {
	f := newFakeStack(failing("a", 0))
	f.knobs.MaxBatch = 8
	f.knobs.MaxBatchDelay = time.Hour // only Flush releases the batch
	for _, m := range []string{"1", "2", "3"} {
		f.eng.Enqueue(m)
	}
	f.eng.Flush()
	if st := f.eng.Stats(); st.Deliveries != 1 || st.CoalescedBatches != 1 || f.eng.MessagesSent() != 3 {
		t.Fatalf("stats = %+v, sent %d; want one coalesced delivery of 3", st, f.eng.MessagesSent())
	}
}
