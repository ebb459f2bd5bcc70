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
	// Width 1 forces the pre-overhaul sequential dispatch.
	Workers int
	// DeliveryTimeout caps each outbound delivery attempt (an HTTP
	// exchange or a TCP frame write) so one slow subscriber cannot stall
	// a fan-out batch; 0 means no per-attempt cap.
	DeliveryTimeout time.Duration
	// Retry governs per-subscriber delivery attempts within one publish:
	// exponential backoff with jitter between attempts. The zero policy
	// performs a single attempt.
	Retry retry.Policy
	// EvictAfter ends a subscription after this many consecutive failed
	// publishes, each already retried per Retry; 0 disables eviction.
	// wsn destroys the subscription resource (WS-BaseNotification's
	// lifetime path); wse cancels it with one SubscriptionEnd
	// (StatusDeliveryFailure) to its EndTo.
	EvictAfter int
	// MaxBatch and MaxBatchDelay tune coalescing on the asynchronous
	// enqueue path: up to MaxBatch pending messages flush to each
	// subscriber as one exchange (one signature), the first waiting at
	// most MaxBatchDelay for the batch to fill. MaxBatch below 2
	// disables coalescing. Set both before the first enqueue; the
	// synchronous publish path ignores them.
	MaxBatch      int
	MaxBatchDelay time.Duration
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
	// CoalescedBatches counts deliveries that carried more than one
	// message in a single exchange (the enqueue path's batching at
	// work). Deliveries still counts exchanges, MessagesSent messages.
	CoalescedBatches int64
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
	cCoalesced
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
	cCoalesced:        {"coalesced_batches_total", "deliveries that carried more than one coalesced message"},
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

// Plan is one subscriber's share of a publish batch. When every
// message matched, Subset is the batch slice itself; otherwise it is
// shorter.
type Plan[S, M any] struct {
	Sub    S
	Subset []M
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
	// Publish delivers one coalesced batch on the enqueue path.
	Publish func(context.Context, []M) (int, error)
	// Now is the ledger's clock.
	Now func() time.Time
}

// Engine is the delivery machinery both notification stacks share:
// per-subscriber matching over a batch, fan-out over the worker pool,
// retry with backoff, the health ledger, eviction, coalescing, and the
// delivery counters. The stacks keep subscription storage, filter
// semantics, wire formats, and where health persists.
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

	coalesceOnce sync.Once
	coalescer    *Coalescer[M]
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
		CoalescedBatches: e.counts[cCoalesced].Load(),
	}
}

// MessagesSent reports messages pushed: once per message per
// subscriber, not per attempt or per exchange, so it measures fan-out
// amplification across coalesced batches rather than retry noise.
func (e *Engine[S, M]) MessagesSent() int64 { return e.counts[cMessagesSent].Load() }

// NoteStateWriteError counts one failed write of stack-held delivery
// state; the caller's operation proceeds on the in-memory state.
// Callers hand over the (non-nil) error so the ledger visibly receives
// it; only the count is kept.
func (e *Engine[S, M]) NoteStateWriteError(error) { e.add(cStateWriteErrors, 1) }

// Match pairs each subscription with the messages its filters accept,
// dropping subscriptions that accept none. A filter whose evaluation
// errors does not silently drop its subscriber: it counts as a
// delivery fault (FilterErrors) against that subscription, feeding the
// same ledger and eviction threshold as failed deliveries.
func (e *Engine[S, M]) Match(subs []S, msgs []M) []Plan[S, M] {
	var matched []Plan[S, M]
	for _, sub := range subs {
		subset, err := e.subset(sub, msgs)
		if err != nil {
			e.add(cFilterErrors, 1)
			id := e.stack.ID(sub)
			e.fault(sub, id, fmt.Errorf("%s: filter evaluation for subscription %s: %w", e.stack.Name, id, err))
			continue
		}
		if len(subset) > 0 {
			matched = append(matched, Plan[S, M]{Sub: sub, Subset: subset})
		}
	}
	return matched
}

// subset returns the messages sub accepts. The everything-matched case
// (by far the common one) returns msgs itself, so steady-state fan-out
// allocates no per-subscriber slices.
func (e *Engine[S, M]) subset(sub S, msgs []M) ([]M, error) {
	var subset []M
	whole := true
	for i, m := range msgs {
		ok, err := e.stack.Match(sub, m)
		if err != nil {
			return nil, err
		}
		if ok {
			if !whole {
				subset = append(subset, m)
			}
		} else if whole {
			whole = false
			subset = append(subset, msgs[:i]...)
		}
	}
	if whole {
		return msgs, nil
	}
	return subset, nil
}

// Deliver fans the matched plans out over the worker pool. Each plan
// is delivered under the Retry policy, attempt making one try. A
// success resets the subscription's ledger; an exhausted delivery
// counts toward EvictAfter. It returns how many plans were delivered
// and the first error in plan (subscription) order — the semantics of
// the sequential dispatch the pool replaced.
func (e *Engine[S, M]) Deliver(ctx context.Context, matched []Plan[S, M], attempt func(context.Context, Plan[S, M]) error) (int, error) {
	obs.SpanFromContext(ctx).SetAttr("matched", strconv.Itoa(len(matched)))
	errs := make([]error, len(matched))
	Do(len(matched), e.knobs.Workers, func(i int) {
		pl := matched[i]
		id := e.stack.ID(pl.Sub)
		if err := e.deliver(ctx, pl, id, attempt); err != nil {
			errs[i] = err
			e.add(cFailures, 1)
			e.fault(pl.Sub, id, err)
			return
		}
		e.add(cDeliveries, 1)
		e.succeed(id)
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

// deliver runs one plan under the retry policy inside a deliver span,
// accounting messages, attempts, retries, and coalesced exchanges.
func (e *Engine[S, M]) deliver(ctx context.Context, pl Plan[S, M], id string, attempt func(context.Context, Plan[S, M]) error) error {
	n := int64(len(pl.Subset))
	e.add(cMessagesSent, n)
	obs.DeliveryBatchSize.ObserveValue(float64(n))
	if n > 1 {
		e.add(cCoalesced, 1)
	}
	t0 := obs.Start()
	dctx, dspan := obs.StartSpan(ctx, e.deliverSpan)
	dspan.SetAttr("subscription", id)
	if e.stack.Annotate != nil && dspan != nil {
		e.stack.Annotate(pl.Sub, dspan)
	}
	if n > 1 {
		dspan.SetAttr("batch", fmt.Sprint(n))
	}
	attempts, err := retry.Do(dctx, e.knobs.Retry, func(actx context.Context) error {
		return attempt(actx, pl)
	})
	obs.StageDeliver.ObserveSinceSpan(t0, dspan)
	e.add(cAttempts, int64(attempts))
	if attempts > 1 {
		e.add(cRetries, int64(attempts-1))
		dspan.Annotate(fmt.Sprintf("retried: %d attempts", attempts))
		obs.RecordEventCtx(dctx, e.retryEvent,
			obs.Attr{K: "subscription", V: id},
			obs.Attr{K: "attempts", V: strconv.Itoa(attempts)})
	}
	dspan.Fail(err)
	dspan.End()
	return err
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

// Enqueue queues a message for coalesced asynchronous delivery and
// returns immediately; batches flush through the stack's Publish per
// the MaxBatch/MaxBatchDelay knobs.
func (e *Engine[S, M]) Enqueue(m M) { e.coalesce().Add(m) }

// Flush blocks until every message enqueued before the call has been
// delivered (or exhausted its retries).
func (e *Engine[S, M]) Flush() { e.coalesce().Drain() }

func (e *Engine[S, M]) coalesce() *Coalescer[M] {
	e.coalesceOnce.Do(func() {
		e.coalescer = &Coalescer[M]{
			MaxBatch:      e.knobs.MaxBatch,
			MaxBatchDelay: e.knobs.MaxBatchDelay,
			Flush: func(batch []M) {
				// Enqueued delivery is detached from any request by design —
				// the enqueueing request completes before delivery runs.
				//lint:ignore ogsalint/soapfault no caller remains for an async flush; per-subscriber outcomes land in DeliveryStats and the health ledger
				e.stack.Publish(context.Background(), batch)
			},
		}
	})
	return e.coalescer
}
