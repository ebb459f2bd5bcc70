package fanout

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"altstacks/internal/obs"
	"altstacks/internal/retry"
)

var testCounters = NewCounters("fanouttest")

// fakeSub is a subscription whose deliveries fail while failLeft is
// nonzero (negative: forever), after an optional delay.
type fakeSub struct {
	id       string
	key      string            // its consumer address: "" chunks it alone
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
		Key:      func(s *fakeSub) string { return s.key },
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
		Now: time.Now,
	})
	return f
}

func (f *fakeStack) publish(ctx context.Context, m string) (int, error) {
	return f.publishWith(ctx, m, func(ctx context.Context, chunk []Delivery[*fakeSub]) {
		for i := range chunk {
			s := chunk[i].Sub
			time.Sleep(s.delay)
			var err error
			if s.failLeft.Load() != 0 {
				s.failLeft.Add(-1)
				err = fmt.Errorf("deliver to %s failed", s.id)
			}
			chunk[i].Finish(err)
		}
	})
}

// publishWith publishes m to the live subscriptions through send.
func (f *fakeStack) publishWith(ctx context.Context, m string, send func(context.Context, []Delivery[*fakeSub])) (int, error) {
	f.mu.Lock()
	var live []*fakeSub
	for _, s := range f.subs {
		if !f.removed[s.id] {
			live = append(live, s)
		}
	}
	f.mu.Unlock()
	return f.eng.Deliver(ctx, f.eng.Match(live, m), send)
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

	if n, err := f.publish(context.Background(), "m"); n != 0 || err == nil {
		t.Fatalf("first publish = %d, %v; want 0 and an error", n, err)
	}
	if h := f.eng.Health("a"); h.ConsecutiveFailures != 1 || h.LastError == "" || h.LastFailure.IsZero() {
		t.Fatalf("health after failure = %+v", h)
	}
	if f.stored["a"].ConsecutiveFailures != 1 || f.writes != 1 {
		t.Fatalf("persisted %+v after %d writes; want the failure, written once", f.stored["a"], f.writes)
	}

	if n, err := f.publish(context.Background(), "m"); n != 1 || err != nil {
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
		if _, err := f.publish(context.Background(), "m"); err != nil {
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

	if n, _ := f.publish(context.Background(), "m"); n != 1 {
		t.Fatalf("first publish delivered %d, want 1", n)
	}
	if ev := f.eng.Stats().Evictions; ev != 0 || f.removed["dead"] {
		t.Fatalf("evicted below EvictAfter (evictions %d)", ev)
	}
	if n, _ := f.publish(context.Background(), "m"); n != 1 {
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
			_, _ = g.publish(context.Background(), "m")
		}()
	}
	wg.Wait()
	if ev := g.eng.Stats().Evictions; ev != 1 || g.ended.Load() != 1 {
		t.Fatalf("concurrent evictions = %d, Evict removed it %d times; want exactly 1 each", ev, g.ended.Load())
	}
}

// TestEngineAccounting pins the counters around retry.Do: attempts
// include retries, MessagesSent counts once per matched subscription,
// a subscription whose filter rejects the message receives nothing,
// and a filter error is a fault.
func TestEngineAccounting(t *testing.T) {
	all := failing("all", 2)
	odd := &fakeSub{id: "odd", accept: func(m string) bool { return m == "1" || m == "3" }}
	f := newFakeStack(all, odd)
	f.knobs.Retry = retry.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}

	if matched := f.eng.Match(f.subs, "2"); len(matched) != 1 || matched[0] != all {
		t.Fatalf("matched = %v; want only the unfiltered subscription", matched)
	}
	if n, err := f.publish(context.Background(), "1"); n != 2 || err != nil {
		t.Fatalf("publish = %d, %v; want 2, nil", n, err)
	}
	st := f.eng.Stats()
	want := Stats{Attempts: 4, Retries: 2, Deliveries: 2}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if sent := f.eng.MessagesSent(); sent != 2 {
		t.Fatalf("MessagesSent = %d, want 2 (one per matched subscription)", sent)
	}
	if n, err := f.publish(context.Background(), "2"); n != 1 || err != nil {
		t.Fatalf("non-matching publish = %d, %v; want 1, nil", n, err)
	}
	if st, sent := f.eng.Stats(), f.eng.MessagesSent(); st.Attempts != 5 || st.Deliveries != 3 || sent != 3 {
		t.Fatalf("stats = %+v, sent %d; want the filtered subscription skipped", st, sent)
	}

	if n, err := f.publish(context.Background(), "bad"); n != 0 || err != nil {
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

	n, err := f.publish(context.Background(), "m")
	if n != 3 || err == nil || !strings.Contains(err.Error(), "deliver to b") {
		t.Fatalf("publish = %d, %v; want 3 delivered and b's error", n, err)
	}
}

// scriptSender is a chunk sender that records the chunks it is handed
// and fails each subscription's attempts as script says: its nth
// attempt fails when script[id][n-1] is true, and attempts past the
// script succeed. slow delays the chunks that hold that subscription.
type scriptSender struct {
	script map[string][]bool
	slow   string

	mu     sync.Mutex
	tried  map[string]int
	chunks [][]string
}

func (s *scriptSender) send(_ context.Context, chunk []Delivery[*fakeSub]) {
	ids := make([]string, len(chunk))
	for i := range chunk {
		ids[i] = chunk[i].Sub.id
		if ids[i] == s.slow {
			time.Sleep(30 * time.Millisecond)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tried == nil {
		s.tried = map[string]int{}
	}
	for i, id := range ids {
		n := s.tried[id]
		s.tried[id]++
		var err error
		if n < len(s.script[id]) && s.script[id][n] {
			err = fmt.Errorf("deliver to %s failed (attempt %d)", id, n+1)
		}
		chunk[i].Finish(err)
	}
	s.chunks = append(s.chunks, ids)
}

// keyed returns n subscriptions s000, s001, … with the consumer
// addresses key(i).
func keyed(n int, key func(i int) string) []*fakeSub {
	subs := make([]*fakeSub, n)
	for i := range subs {
		subs[i] = &fakeSub{id: fmt.Sprintf("s%03d", i), key: key(i)}
	}
	return subs
}

// TestEngineChunksByKeyOrderAndBound: a chunk holds deliveries to one
// consumer address, in subscription order, maxChunk at most; a
// subscription without a key gets a chunk of its own; chunks go out in
// the order of their first subscription, and every subscription is in
// exactly one.
func TestEngineChunksByKeyOrderAndBound(t *testing.T) {
	keys := []string{"A", "A", "B", ""}
	subs := keyed(100, func(i int) string { return keys[i%4] })
	f := newFakeStack(subs...)
	f.knobs.Workers = 1
	var s scriptSender
	if n, err := f.publishWith(context.Background(), "m", s.send); n != len(subs) || err != nil {
		t.Fatalf("publish = %d, %v", n, err)
	}
	key := map[string]string{}
	for _, sub := range subs {
		key[sub.id] = sub.key
	}
	var sizes []int
	seen := map[string]bool{}
	last := ""
	for _, ids := range s.chunks {
		k := key[ids[0]]
		if len(ids) > maxChunk || k == "" && len(ids) != 1 {
			t.Fatalf("chunk %v: %d deliveries for key %q", ids, len(ids), k)
		}
		if ids[0] <= last {
			t.Fatalf("chunk %v went out after a chunk starting at %s", ids, last)
		}
		last = ids[0]
		for j, id := range ids {
			if key[id] != k || j > 0 && id <= ids[j-1] || seen[id] {
				t.Fatalf("chunk %v: %s has key %q or is out of order or repeated", ids, id, key[id])
			}
			seen[id] = true
		}
		if k == "A" {
			sizes = append(sizes, len(ids))
		}
	}
	if len(seen) != len(subs) {
		t.Fatalf("%d of %d subscriptions delivered", len(seen), len(subs))
	}
	if len(s.chunks) != 2+1+25 || len(sizes) != 2 || sizes[0] != maxChunk || sizes[1] != 50-maxChunk {
		t.Fatalf("%d chunks, key A's of %v; want 28, of [%d %d]", len(s.chunks), sizes, maxChunk, 50-maxChunk)
	}
}

// TestEngineChunkRetryMatchesPerMessage: over four publishes of a
// scripted run of failures, retrying chunks leaves the counters, the
// health ledger and the evictions just as retrying each delivery on its
// own does. The reference is that per-message engine, played in
// subscription order.
func TestEngineChunkRetryMatchesPerMessage(t *testing.T) {
	const publishes, maxAttempts, evictAfter = 4, 3, 2
	subs := keyed(60, func(i int) string { return fmt.Sprintf("sink-%d", i%5) })
	rng := rand.New(rand.NewPCG(1, 2))
	// Subscription i fails each attempt with odds (i%4)/4.
	script := map[string][]bool{}
	for i, sub := range subs {
		for a := 0; a < publishes*maxAttempts; a++ {
			script[sub.id] = append(script[sub.id], rng.IntN(4) < i%4)
		}
	}

	// The per-message engine, played from the same script.
	var want Stats
	consecutive, evicted, tried := map[string]int{}, map[string]bool{}, map[string]int{}
	for p := 0; p < publishes; p++ {
		for _, sub := range subs {
			if evicted[sub.id] {
				continue
			}
			attempts, ok := 0, false
			for attempts < maxAttempts && !ok {
				ok = !script[sub.id][tried[sub.id]]
				tried[sub.id]++
				attempts++
			}
			want.Attempts += int64(attempts)
			want.Retries += int64(attempts - 1)
			if ok {
				want.Deliveries++
				consecutive[sub.id] = 0
				continue
			}
			want.Failures++
			if consecutive[sub.id]++; consecutive[sub.id] >= evictAfter {
				evicted[sub.id] = true
				want.Evictions++
			}
		}
	}

	if want.Retries == 0 || want.Failures == 0 || want.Evictions == 0 {
		t.Fatalf("the script exercises too little: %+v", want)
	}

	f := newFakeStack(subs...)
	f.knobs.Workers = 3
	f.knobs.EvictAfter = evictAfter
	f.knobs.Retry = retry.Policy{MaxAttempts: maxAttempts, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	s := scriptSender{script: script}
	for p := 0; p < publishes; p++ {
		_, _ = f.publishWith(context.Background(), "m", s.send)
	}
	if got := f.eng.Stats(); got != want {
		t.Fatalf("chunked stats = %+v\nper-message     %+v", got, want)
	}
	for _, sub := range subs {
		if h := f.eng.Health(sub.id); h.ConsecutiveFailures != consecutive[sub.id] || (h.LastError != "") != (consecutive[sub.id] > 0) {
			t.Errorf("%s: health %+v, want %d consecutive failures", sub.id, h, consecutive[sub.id])
		}
		if f.removed[sub.id] != evicted[sub.id] {
			t.Errorf("%s: evicted %v, want %v", sub.id, f.removed[sub.id], evicted[sub.id])
		}
	}
}

// TestEngineChunkFirstErrorInSubscriptionOrder: the error returned is
// the earliest failing subscription's, even when it shares no chunk
// with a later failure that is reported first.
func TestEngineChunkFirstErrorInSubscriptionOrder(t *testing.T) {
	subs := keyed(3, func(i int) string { return []string{"X", "Y", "X"}[i] })
	f := newFakeStack(subs...)
	f.knobs.Workers = 2
	s := scriptSender{script: map[string][]bool{"s001": {true}, "s002": {true}}, slow: "s001"}
	n, err := f.publishWith(context.Background(), "m", s.send)
	if n != 1 || err == nil || !strings.Contains(err.Error(), "deliver to s001") {
		t.Fatalf("publish = %d, %v; want 1 delivered and s001's error", n, err)
	}
}

// TestEngineDeadChunkCostsMaxAttemptsSends: a chunk whose consumer
// always fails goes out exactly Retry.MaxAttempts times, whole, and
// each of its deliveries counts every attempt.
func TestEngineDeadChunkCostsMaxAttemptsSends(t *testing.T) {
	subs := keyed(10, func(int) string { return "dead" })
	script := map[string][]bool{}
	for _, sub := range subs {
		script[sub.id] = []bool{true, true, true, true}
	}
	f := newFakeStack(subs...)
	f.knobs.Retry = retry.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	s := scriptSender{script: script}
	if n, err := f.publishWith(context.Background(), "m", s.send); n != 0 || err == nil {
		t.Fatalf("publish = %d, %v; want 0 and an error", n, err)
	}
	if len(s.chunks) != 3 {
		t.Fatalf("dead chunk sent %d times, want 3", len(s.chunks))
	}
	for _, ids := range s.chunks {
		if len(ids) != len(subs) {
			t.Fatalf("a retry sent %d of the chunk's %d deliveries", len(ids), len(subs))
		}
	}
	if st := f.eng.Stats(); st != (Stats{Attempts: 30, Retries: 20, Failures: 10}) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEngineTimesEachDelivery: a delivery's span and its deliver stage
// end when its outcome arrives (Finish), not when its chunk's round is
// accounted. A chunk whose deliveries complete a few ms apart records
// durations that rise in delivery order, and none of them holds the
// time the round went on after its last outcome.
func TestEngineTimesEachDelivery(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
	const n, gap, tail = 4, 5 * time.Millisecond, 30 * time.Millisecond
	f := newFakeStack(keyed(n, func(int) string { return "one consumer" })...)
	stage := obs.StageDeliver.Snapshot()
	ctx, root := obs.StartSpan(context.Background(), "publish")
	if _, err := f.publishWith(ctx, "m", func(_ context.Context, chunk []Delivery[*fakeSub]) {
		for i := range chunk {
			time.Sleep(gap)
			chunk[i].Finish(nil)
		}
		time.Sleep(tail)
	}); err != nil {
		t.Fatal(err)
	}
	root.End()
	var spans []obs.SpanData
	for _, tr := range obs.Traces() {
		if tr.ID == root.TraceID() {
			for _, s := range tr.Spans {
				if s.Name == "fanouttest.deliver" {
					spans = append(spans, s)
				}
			}
		}
	}
	if len(spans) != n {
		t.Fatalf("%d deliver spans, want %d", len(spans), n)
	}
	// Spans are recorded as they end, in delivery order.
	var sum time.Duration
	for i, s := range spans {
		d := time.Duration(s.DurationNs)
		if want := fmt.Sprintf("s%03d", i); s.Attrs[0].V != want {
			t.Fatalf("span %d is %s's, want %s's", i, s.Attrs[0].V, want)
		}
		if i > 0 && d <= time.Duration(spans[i-1].DurationNs) {
			t.Errorf("delivery %d took %v, not more than delivery %d's %v", i, d, i-1, time.Duration(spans[i-1].DurationNs))
		}
		sum += d
	}
	if last := time.Duration(spans[n-1].DurationNs); last >= n*gap+tail {
		t.Errorf("the last delivery took %v, the whole round's %v or more", last, n*gap+tail)
	}
	d := obs.StageDeliver.Snapshot().Delta(stage)
	if got := time.Duration(d.Sum * float64(time.Second)); d.Count != n || got < sum-time.Millisecond || got > sum+time.Millisecond {
		t.Errorf("deliver stage: %d observations summing %v; want %d summing the spans' %v", d.Count, got, n, sum)
	}
}
