package fanout

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"altstacks/internal/obs"
	"altstacks/internal/retry"
	"altstacks/internal/xmlutil"
)

// Knobs are the delivery-robustness settings both notification stacks
// expose. wsn.Producer and wse.Source embed them, so they are set as
// p.Workers, src.EvictAfter, and so on.
type Knobs struct {
	// Workers bounds the delivery worker pool; 0 selects GOMAXPROCS.
	// A worker takes one chunk at a time: up to 32 deliveries to one
	// consumer address, which a pooled HTTP client pipelines on one
	// connection. So ogsa_fanout_tasks_total counts chunks, which are
	// subscriptions only where no two share a consumer. Width 1 forces
	// the pre-overhaul sequential dispatch.
	Workers int
	// DeliveryTimeout caps each wait of an outbound delivery attempt so
	// one slow subscriber cannot stall a fan-out batch: the dial and each
	// reply of a pipelined chunk, or an HTTP exchange or a TCP frame
	// write of its own. A hung consumer so costs one timeout per attempt
	// of its chunk, not one per delivery. 0 means no cap.
	DeliveryTimeout time.Duration
	// Retry governs per-subscriber delivery attempts within one publish:
	// exponential backoff with jitter between attempts, after each of
	// which a chunk's failed deliveries go out again together. The zero
	// policy performs a single attempt.
	Retry retry.Policy
	// EvictAfter ends a subscription after this many consecutive failed
	// publishes, each already retried per Retry; 0 disables eviction.
	// wsn destroys the subscription resource (WS-BaseNotification's
	// lifetime path); wse cancels it with one SubscriptionEnd
	// (StatusDeliveryFailure) to its EndTo.
	EvictAfter int
}

// The delivery-robustness defaults both stacks start from.
const (
	DefaultMaxAttempts = 3
	DefaultBaseBackoff = 25 * time.Millisecond
	DefaultMaxBackoff  = 500 * time.Millisecond
	DefaultEvictAfter  = 3
)

// DefaultKnobs returns the knobs wsn.NewProducer and wse.NewSource
// start from: DefaultMaxAttempts attempts per delivery with backoff
// between DefaultBaseBackoff and DefaultMaxBackoff, eviction after
// DefaultEvictAfter consecutive failed publishes, GOMAXPROCS workers
// and no per-attempt timeout.
func DefaultKnobs() Knobs {
	return Knobs{
		Retry: retry.Policy{
			MaxAttempts: DefaultMaxAttempts,
			BaseBackoff: DefaultBaseBackoff,
			MaxBackoff:  DefaultMaxBackoff,
		},
		EvictAfter: DefaultEvictAfter,
	}
}

// Health is the per-subscription delivery ledger: consecutive failed
// publishes (retries exhausted), the last error, and the last
// success/failure instants. Any successful delivery resets the failure
// count, so a flaky-but-recovering subscriber is never evicted. Stacks
// persist it on transitions (not on every success), so a restarted
// producer resumes counting toward eviction instead of granting a dead
// subscriber a fresh allowance.
type Health struct {
	ConsecutiveFailures int
	LastError           string
	LastSuccess         time.Time
	LastFailure         time.Time
}

// IsZero reports a never-touched health record.
func (h Health) IsZero() bool {
	return h.ConsecutiveFailures == 0 && h.LastError == "" &&
		h.LastSuccess.IsZero() && h.LastFailure.IsZero()
}

// EncodeHealth is the persisted form of a health record both stacks
// write: a space:local element with one child per set field.
func EncodeHealth(h Health, space, local string) *xmlutil.Element {
	el := xmlutil.New(space, local).Add(
		xmlutil.NewText(space, "ConsecutiveFailures", strconv.Itoa(h.ConsecutiveFailures)))
	if h.LastError != "" {
		el.Add(xmlutil.NewText(space, "LastError", h.LastError))
	}
	if !h.LastSuccess.IsZero() {
		el.Add(xmlutil.NewText(space, "LastSuccess", h.LastSuccess.UTC().Format(time.RFC3339Nano)))
	}
	if !h.LastFailure.IsZero() {
		el.Add(xmlutil.NewText(space, "LastFailure", h.LastFailure.UTC().Format(time.RFC3339Nano)))
	}
	return el
}

// DecodeHealth reads a record EncodeHealth wrote; malformed fields
// read as zero.
func DecodeHealth(el *xmlutil.Element, space string) Health {
	var h Health
	h.ConsecutiveFailures, _ = strconv.Atoi(el.ChildText(space, "ConsecutiveFailures"))
	h.LastError = el.ChildText(space, "LastError")
	h.LastSuccess, _ = time.Parse(time.RFC3339Nano, el.ChildText(space, "LastSuccess"))
	h.LastFailure, _ = time.Parse(time.RFC3339Nano, el.ChildText(space, "LastFailure"))
	return h
}

// Stats is a snapshot of an engine's delivery counters.
type Stats struct {
	// Attempts counts individual delivery attempts, retries included.
	Attempts int64
	// Retries counts attempts beyond the first per delivery.
	Retries int64
	// Deliveries counts deliveries that reached a subscriber.
	Deliveries int64
	// Failures counts deliveries whose attempts were exhausted.
	Failures int64
	// FilterErrors counts subscriptions skipped by a failing filter
	// evaluation — a counted delivery fault, not a silent non-match.
	FilterErrors int64
	// Evictions counts subscriptions ended for delivery failure.
	Evictions int64
	// StateWriteErrors counts failed writes of delivery state (health
	// records, subscription removals, wsn's current messages). The
	// in-memory state stays authoritative, so the publish goes on.
	StateWriteErrors int64
}

// The delivery events an engine counts.
const (
	cAttempts = iota
	cRetries
	cDeliveries
	cFailures
	cFilterErrors
	cEvictions
	cStateWriteErrors
	cMessagesSent
	numCounters
)

// counterTable names each delivery event's registry family (after the
// ogsa_<stack>_ prefix) and help text (after the stack name).
var counterTable = [numCounters]struct{ family, help string }{
	cAttempts:         {"delivery_attempts_total", "delivery attempts, retries included"},
	cRetries:          {"retries_total", "delivery attempts beyond the first per delivery"},
	cDeliveries:       {"deliveries_total", "deliveries that reached a subscriber"},
	cFailures:         {"delivery_failures_total", "deliveries whose attempts were exhausted"},
	cFilterErrors:     {"filter_errors_total", "subscriptions skipped by a failing filter evaluation"},
	cEvictions:        {"evictions_total", "subscriptions ended for delivery failure"},
	cStateWriteErrors: {"state_write_errors_total", "delivery-state writes that failed"},
	cMessagesSent:     {"messages_sent_total", "messages sent to subscribers"},
}

// Counters are one stack's registry families for the delivery events,
// aggregated across every engine of that stack.
type Counters [numCounters]*obs.Counter

// NewCounters registers the ogsa_<stack>_* delivery families. Each
// stack calls it once from a package var, so a binary exposes only the
// stacks it links.
func NewCounters(stack string) *Counters {
	var c Counters
	for i, row := range counterTable {
		c[i] = obs.NewCounter("ogsa_"+stack+"_"+row.family, "", stack+" "+row.help)
	}
	return &c
}

// Stack is what a notification stack plugs into an Engine: the parts
// its spec makes different. Every hook but Annotate is required.
type Stack[S, M any] struct {
	// Name prefixes the deliver span (<name>.deliver), the flight-recorder
	// event kinds (<name>.retry, .delivery_fault, .evict), and
	// filter-error messages.
	Name string
	// Counters are the stack's registry families (see NewCounters).
	Counters *Counters
	// ID names a subscription in the ledger, spans, and events.
	ID func(S) string
	// Key names the connection a subscription's deliveries ride: its
	// consumer address. Deliveries with the same key share chunks; ""
	// gives each delivery a chunk of its own.
	Key func(S) string
	// Match applies a subscription's filters to one message.
	Match func(S, M) (bool, error)
	// Annotate adds stack attributes to a deliver span; it runs only
	// while tracing is on.
	Annotate func(S, *obs.Span)
	// Evict ends a subscription for delivery failure (wsn destroys it,
	// wse also sends its SubscriptionEnd) and reports whether this call
	// removed it: the exactly-once gate that lets racing evictors count
	// one eviction between them.
	Evict func(sub S, cause error) bool
	// LoadHealth reads a persisted health record (zero when none);
	// StoreHealth writes one through.
	LoadHealth  func(id string) Health
	StoreHealth func(id string, h Health) error
	// Now is the ledger's clock.
	Now func() time.Time
}

// Engine is the delivery machinery both notification stacks share:
// per-subscriber matching of one message, fan-out over the worker
// pool, retry with backoff, the health ledger, eviction, and the
// delivery counters. A delivery is one subscription receiving one
// message, and the ledger, counters and spans count deliveries; the
// unit of work and of retry is a chunk of deliveries to one consumer.
// The stacks keep subscription storage, filter semantics, wire formats,
// and where health persists.
type Engine[S, M any] struct {
	knobs *Knobs
	stack Stack[S, M]
	// Span and event names, built once so the hot path never concatenates.
	deliverSpan, retryEvent, faultEvent, evictEvent string

	// counts are the per-instance counters. They are always on, unlike
	// the registry families, which count only while obs is enabled, so
	// the two cannot share one atomic; add moves both.
	counts [numCounters]atomic.Int64

	mu     sync.Mutex
	health map[string]*Health
}

// NewEngine builds an engine reading its knobs (at use time) from
// knobs, which the owning stack embeds.
func NewEngine[S, M any](knobs *Knobs, stack Stack[S, M]) *Engine[S, M] {
	return &Engine[S, M]{
		knobs:       knobs,
		stack:       stack,
		deliverSpan: stack.Name + ".deliver",
		retryEvent:  stack.Name + ".retry",
		faultEvent:  stack.Name + ".delivery_fault",
		evictEvent:  stack.Name + ".evict",
		health:      map[string]*Health{},
	}
}

// add counts n events of kind c, once per instance and once in the
// stack's registry family.
func (e *Engine[S, M]) add(c int, n int64) {
	e.counts[c].Add(n)
	e.stack.Counters[c].Add(n)
}

// Stats snapshots the delivery counters.
func (e *Engine[S, M]) Stats() Stats {
	return Stats{
		Attempts:         e.counts[cAttempts].Load(),
		Retries:          e.counts[cRetries].Load(),
		Deliveries:       e.counts[cDeliveries].Load(),
		Failures:         e.counts[cFailures].Load(),
		FilterErrors:     e.counts[cFilterErrors].Load(),
		Evictions:        e.counts[cEvictions].Load(),
		StateWriteErrors: e.counts[cStateWriteErrors].Load(),
	}
}

// MessagesSent reports messages pushed: once per matched subscription
// per publish, not per attempt, so it measures fan-out amplification
// rather than retry noise.
func (e *Engine[S, M]) MessagesSent() int64 { return e.counts[cMessagesSent].Load() }

// NoteStateWriteError counts one failed write of stack-held delivery
// state; the caller's operation proceeds on the in-memory state.
// Callers hand over the (non-nil) error so the ledger visibly receives
// it; only the count is kept.
func (e *Engine[S, M]) NoteStateWriteError(error) { e.add(cStateWriteErrors, 1) }

// Match returns the subscriptions whose filters accept m. A filter
// whose evaluation errors does not silently drop its subscriber: it
// counts as a delivery fault (FilterErrors) against that subscription,
// feeding the same ledger and eviction threshold as failed deliveries.
func (e *Engine[S, M]) Match(subs []S, m M) []S {
	var matched []S
	for _, sub := range subs {
		ok, err := e.stack.Match(sub, m)
		if err != nil {
			e.add(cFilterErrors, 1)
			id := e.stack.ID(sub)
			e.fault(sub, id, fmt.Errorf("%s: filter evaluation for subscription %s: %w", e.stack.Name, id, err))
			continue
		}
		if ok {
			matched = append(matched, sub)
		}
	}
	return matched
}

// maxChunk bounds the deliveries of a chunk: as many as the container's
// client pipelines in one run.
const maxChunk = 32

// Delivery is one subscription's delivery within a chunk. The stack's
// send hook delivers Sub under Ctx, which carries the delivery's span,
// and sets Err to the outcome.
type Delivery[S any] struct {
	Ctx context.Context
	Sub S
	Err error

	i    int // its index among the matched subscriptions
	id   string
	span *obs.Span
}

// Deliver fans one message out to the matched subscriptions over the
// worker pool. It splits them into chunks, in subscription order: the
// deliveries that share a Key, maxChunk at most. send delivers one
// chunk, which the workers take one at a time. A chunk runs under the
// Retry policy: after each backoff its failed deliveries go out again
// as one chunk, so each delivery gets at most Retry.MaxAttempts
// attempts. A success resets the subscription's ledger; an exhausted
// delivery counts toward EvictAfter. It returns how many subscriptions
// were delivered to and the first error in subscription order — the
// semantics of the sequential dispatch the pool replaced.
func (e *Engine[S, M]) Deliver(ctx context.Context, matched []S, send func(context.Context, []Delivery[S])) (int, error) {
	obs.SpanFromContext(ctx).SetAttr("matched", strconv.Itoa(len(matched)))
	ds, chunks := e.chunk(matched)
	errs := make([]error, len(matched))
	Do(len(chunks)-1, e.knobs.Workers, func(c int) {
		e.deliver(ctx, ds[chunks[c]:chunks[c+1]], errs, send)
	})
	delivered := 0
	var firstErr error
	for _, err := range errs {
		if err == nil {
			delivered++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return delivered, firstErr
}

// chunk lays the matched subscriptions out chunk after chunk, in the
// order each chunk's first subscription was matched, and returns them
// with the chunk boundaries: chunk c is ds[chunks[c]:chunks[c+1]].
func (e *Engine[S, M]) chunk(matched []S) (ds []Delivery[S], chunks []int) {
	// of[i] is subscription i's chunk; size[c] is chunk c's length.
	of := make([]int, len(matched))
	var size []int
	open := map[string]int{}
	for i, sub := range matched {
		k := e.stack.Key(sub)
		c, ok := open[k]
		if !ok || k == "" || size[c] == maxChunk {
			c = len(size)
			size = append(size, 0)
			open[k] = c
		}
		size[c]++
		of[i] = c
	}
	chunks = make([]int, len(size)+1)
	for c, n := range size {
		chunks[c+1] = chunks[c] + n
		size[c] = chunks[c] // now chunk c's next free slot
	}
	ds = make([]Delivery[S], len(matched))
	for i, sub := range matched {
		ds[size[of[i]]] = Delivery[S]{Sub: sub, i: i}
		size[of[i]]++
	}
	return ds, chunks
}

// deliver runs one chunk under the retry policy, each delivery inside
// its deliver span, and accounts each delivery once its outcome is
// final: a success after the round that made it, a failure after the
// last round. A failed delivery's error goes to errs.
func (e *Engine[S, M]) deliver(ctx context.Context, chunk []Delivery[S], errs []error, send func(context.Context, []Delivery[S])) {
	e.add(cMessagesSent, int64(len(chunk)))
	t0 := obs.Start()
	for j := range chunk {
		d := &chunk[j]
		d.id = e.stack.ID(d.Sub)
		d.Ctx, d.span = obs.StartSpan(ctx, e.deliverSpan)
		d.span.SetAttr("subscription", d.id)
		if e.stack.Annotate != nil && d.span != nil {
			e.stack.Annotate(d.Sub, d.span)
		}
	}
	pending, round := chunk, 0
	//lint:ignore ogsalint/soapfault each failed delivery's error is accounted below; Do's is the first of them again
	retry.Do(ctx, e.knobs.Retry, func(ctx context.Context) error { //nolint:errcheck // see above
		for j := range pending {
			if d := &pending[j]; d.Err != nil {
				if obs.Enabled() {
					d.span.Annotate(fmt.Sprintf("attempt %d failed: %v", round, d.Err))
				}
				d.Err = nil
			}
		}
		round++
		send(ctx, pending)
		var failed []Delivery[S] // a copy: pending may be the chunk itself
		for j := range pending {
			if d := &pending[j]; d.Err != nil {
				failed = append(failed, *d)
			} else {
				e.account(t0, d, round, errs)
			}
		}
		if pending = failed; len(pending) > 0 {
			return pending[0].Err
		}
		return nil
	})
	for j := range pending {
		e.account(t0, &pending[j], round, errs)
	}
}

// account records a delivery's final outcome after its attempts: the
// counters, its deliver span, and the subscription's ledger.
func (e *Engine[S, M]) account(t0 time.Time, d *Delivery[S], attempts int, errs []error) {
	obs.StageDeliver.ObserveSinceSpan(t0, d.span)
	e.add(cAttempts, int64(attempts))
	if attempts > 1 {
		e.add(cRetries, int64(attempts-1))
		d.span.Annotate(fmt.Sprintf("retried: %d attempts", attempts))
		obs.RecordEventCtx(d.Ctx, e.retryEvent,
			obs.Attr{K: "subscription", V: d.id},
			obs.Attr{K: "attempts", V: strconv.Itoa(attempts)})
	}
	d.span.Fail(d.Err)
	d.span.End()
	if d.Err != nil {
		errs[d.i] = d.Err
		e.add(cFailures, 1)
		e.fault(d.Sub, d.id, d.Err)
		return
	}
	e.add(cDeliveries, 1)
	e.succeed(d.id)
}

// Health returns the delivery-health record for a subscription (zero
// for unknown or never-delivered ids).
func (e *Engine[S, M]) Health(id string) Health {
	e.mu.Lock()
	if h, ok := e.health[id]; ok {
		defer e.mu.Unlock()
		return *h
	}
	e.mu.Unlock()
	return e.stack.LoadHealth(id)
}

// DropHealth forgets a subscription's in-memory ledger entry; the
// stack deletes any persisted record along with the subscription.
func (e *Engine[S, M]) DropHealth(id string) {
	e.mu.Lock()
	delete(e.health, id)
	e.mu.Unlock()
}

// lockEntry locks e.mu and returns the mutable record for id, seeded
// from the persisted one on first touch. The load runs unlocked: it is
// the stack's code, and may do storage I/O.
func (e *Engine[S, M]) lockEntry(id string) *Health {
	e.mu.Lock()
	h, ok := e.health[id]
	if !ok {
		e.mu.Unlock()
		seed := e.stack.LoadHealth(id)
		e.mu.Lock()
		if h, ok = e.health[id]; !ok {
			h = &seed
			e.health[id] = h
		}
	}
	return h
}

func (e *Engine[S, M]) store(id string, h Health) {
	if err := e.stack.StoreHealth(id, h); err != nil {
		e.NoteStateWriteError(err)
	}
}

// succeed resets the failure count. The record is written through only
// on a recovery transition, so healthy steady-state publishing performs
// no health writes.
func (e *Engine[S, M]) succeed(id string) {
	now := e.stack.Now()
	h := e.lockEntry(id)
	recovered := h.ConsecutiveFailures != 0 || h.LastError != ""
	h.ConsecutiveFailures = 0
	h.LastError = ""
	h.LastSuccess = now
	snap := *h
	e.mu.Unlock()
	if recovered {
		e.store(id, snap)
	}
}

// fault counts one failed publish (exhausted delivery or filter error)
// against sub and evicts it once the consecutive-failure count reaches
// EvictAfter.
func (e *Engine[S, M]) fault(sub S, id string, cause error) {
	now := e.stack.Now()
	h := e.lockEntry(id)
	h.ConsecutiveFailures++
	h.LastError = cause.Error()
	h.LastFailure = now
	evict := e.knobs.EvictAfter > 0 && h.ConsecutiveFailures >= e.knobs.EvictAfter
	snap := *h
	e.mu.Unlock()
	obs.RecordEvent(e.faultEvent,
		obs.Attr{K: "subscription", V: id},
		obs.Attr{K: "consecutive", V: strconv.Itoa(snap.ConsecutiveFailures)},
		obs.Attr{K: "err", V: cause.Error()})
	e.store(id, snap)
	if evict && e.stack.Evict(sub, cause) {
		e.add(cEvictions, 1)
		obs.RecordEvent(e.evictEvent,
			obs.Attr{K: "subscription", V: id},
			obs.Attr{K: "cause", V: cause.Error()})
	}
}
