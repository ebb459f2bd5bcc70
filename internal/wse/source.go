package wse

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/fanout"
	"altstacks/internal/obs"
	"altstacks/internal/soap"
	"altstacks/internal/uuid"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
	"altstacks/internal/xpathlite"
)

// DefaultExpiry is the lifetime granted when a Subscribe names none.
const DefaultExpiry = time.Hour

// Registry counters, aggregated across every Source instance;
// DeliveryStats stays the per-instance view. wseDelivery holds the
// ogsa_wse_* delivery families both stacks share.
var (
	wseDelivery             = fanout.NewCounters("wse")
	wseEndNoticeErrorsTotal = obs.NewCounter("ogsa_wse_end_notice_errors_total", "",
		"SubscriptionEnd notices that could not be delivered")
	wseSinkDroppedTotal = obs.NewCounter("ogsa_wse_sink_dropped_total", "",
		"events dropped by saturated HTTP/TCP sinks")
)

// Source is an Event Source Service plus its Subscription Manager.
//
// The delivery knobs — Workers, DeliveryTimeout, Retry, EvictAfter —
// are fanout.Knobs fields, promoted from the embedded knobs.
// EvictAfter cancels the subscription with one SubscriptionEnd
// (StatusDeliveryFailure) to its EndTo.
type Source struct {
	// Store holds the subscription list (Plumbwork's flat XML file).
	Store *Store
	// ManagerEndpoint supplies the subscription manager's address; per
	// the spec it "may be the same web service as the event source, or
	// a separate service" (§2.2).
	ManagerEndpoint func() string
	// HTTP performs push-mode deliveries.
	HTTP *container.Client
	// TCP performs Plumbwork-style raw-TCP deliveries.
	TCP *TCPDeliverer
	// Now is the clock, overridable in tests.
	Now func() time.Time
	knobs

	// eng runs delivery: retry, the health ledger (written through to
	// the store on transitions, so a restart resumes the count),
	// eviction, and the shared counters.
	eng             *fanout.Engine[*Subscription, core.Event]
	endNoticeErrors atomic.Int64
}

type knobs = fanout.Knobs

// DeliveryStats is a snapshot of a source's delivery counters: the
// shared fanout.Stats plus EndNoticeErrors.
type DeliveryStats struct {
	stats
	// EndNoticeErrors counts SubscriptionEnd notices that could not be
	// delivered. The subscription is already gone either way; the count
	// records how many EndTo endpoints never learned it.
	EndNoticeErrors int64
}

type stats = fanout.Stats

// NewSource builds an event source with the default retry and
// eviction policy (fanout.DefaultKnobs: 3 attempts per delivery,
// eviction after 3 consecutive failed publishes).
func NewSource(store *Store, managerEndpoint func() string, httpClient *container.Client) *Source {
	s := &Source{
		Store:           store,
		ManagerEndpoint: managerEndpoint,
		HTTP:            httpClient,
		TCP:             NewTCPDeliverer(),
		knobs:           fanout.DefaultKnobs(),
	}
	s.eng = fanout.NewEngine(&s.knobs, fanout.Stack[*Subscription, core.Event]{
		Name:     "wse",
		Counters: wseDelivery,
		ID:       func(sub *Subscription) string { return sub.ID },
		Key:      deliveryKey,
		Match:    matches,
		Annotate: func(sub *Subscription, sp *obs.Span) { sp.SetAttr("mode", sub.Mode) },
		Evict: func(sub *Subscription, cause error) bool {
			return s.cancel(s.deliveryClient(), sub, StatusDeliveryFailure, cause.Error())
		},
		LoadHealth: func(id string) SubscriptionHealth {
			h, _ := s.Store.GetHealth(id)
			return h
		},
		StoreHealth: s.Store.SetHealth,
		Now:         s.now,
	})
	return s
}

// MessagesSent reports events pushed, for the benchmark harness.
func (s *Source) MessagesSent() int64 { return s.eng.MessagesSent() }

// DeliveryStats snapshots the source's delivery counters.
func (s *Source) DeliveryStats() DeliveryStats {
	return DeliveryStats{stats: s.eng.Stats(), EndNoticeErrors: s.endNoticeErrors.Load()}
}

// Health returns the current delivery-health record for a
// subscription (zero record for unknown or never-delivered ids).
func (s *Source) Health(id string) SubscriptionHealth { return s.eng.Health(id) }

// remove deletes a subscription from the store and releases its ledger
// entry and TCP channel. It reports whether this call removed it: the
// store delete is the exactly-once gate, so racing evictions, cancels,
// and sweeps act once between them. A failed flat-file write has still
// removed the subscription from memory, so the cleanup runs anyway and
// the write error is counted (and returned).
func (s *Source) remove(sub *Subscription) (bool, error) {
	ok, err := s.Store.Delete(sub.ID)
	if err != nil {
		s.eng.NoteStateWriteError(err)
	}
	if ok {
		s.eng.DropHealth(sub.ID)
		s.dropChannel(sub)
	}
	return ok, err
}

// dropChannel releases a TCP subscription's cached delivery channel
// when the subscription ends, so the deliverer's connection map tracks
// live subscriptions instead of growing with sink churn. Sinks shared
// by several subscriptions just redial on their next delivery — the
// channel is a cache, not subscription state.
func (s *Source) dropChannel(sub *Subscription) {
	if sub.Mode == DeliveryModeTCP {
		s.TCP.Evict(sub.NotifyTo.Address)
	}
}

func (s *Source) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// SourceService exposes Subscribe at the given path.
func (s *Source) SourceService(path string) *container.Service {
	return &container.Service{
		Path:    path,
		Actions: map[string]container.ActionFunc{ActionSubscribe: s.subscribe},
	}
}

// ManagerService exposes Renew, GetStatus, and Unsubscribe.
func (s *Source) ManagerService(path string) *container.Service {
	return &container.Service{
		Path: path,
		Actions: map[string]container.ActionFunc{
			ActionRenew:       s.renew,
			ActionGetStatus:   s.getStatus,
			ActionUnsubscribe: s.unsubscribe,
		},
	}
}

func (s *Source) subscribe(ctx *container.Ctx) (*xmlutil.Element, error) {
	body := ctx.Envelope.Body
	delivery := body.Child(NS, "Delivery")
	if delivery == nil {
		return nil, soap.Faultf(soap.FaultClient, "Subscribe carries no Delivery")
	}
	mode := delivery.AttrValue("", "Mode")
	if mode == "" {
		mode = DeliveryModePush
	}
	if mode != DeliveryModePush && mode != DeliveryModeTCP {
		// DeliveryModeRequestedUnavailable in the spec.
		return nil, soap.Faultf(soap.FaultClient, "delivery mode %q unavailable", mode)
	}
	ntEl := delivery.Child(NS, "NotifyTo")
	if ntEl == nil {
		return nil, soap.Faultf(soap.FaultClient, "Delivery carries no NotifyTo")
	}
	notifyTo, err := wsa.ParseEPR(ntEl)
	if err != nil {
		return nil, soap.Faultf(soap.FaultClient, "bad NotifyTo: %v", err)
	}
	sub := &Subscription{
		ID:       uuid.NewString(),
		NotifyTo: notifyTo,
		Mode:     mode,
		Expires:  s.now().Add(DefaultExpiry),
	}
	if et := body.Child(NS, "EndTo"); et != nil {
		if epr, err := wsa.ParseEPR(et); err == nil {
			sub.EndTo = epr
		}
	}
	if f := body.Child(NS, "Filter"); f != nil {
		sub.Filter = Filter{Dialect: f.AttrValue("", "Dialect"), Expr: f.TrimText()}
		if sub.Filter.Dialect == "" {
			sub.Filter.Dialect = DialectXPath
		}
		if sub.Filter.Dialect == DialectXPath {
			if _, err := xpathlite.Compile(sub.Filter.Expr); err != nil {
				return nil, soap.Faultf(soap.FaultClient, "bad filter: %v", err)
			}
		} else if sub.Filter.Dialect != DialectTopic {
			// FilteringRequestedUnavailable in the spec.
			return nil, soap.Faultf(soap.FaultClient, "filter dialect %q unavailable", sub.Filter.Dialect)
		}
	}
	if e := body.ChildText(NS, "Expires"); e != "" {
		when, err := time.Parse(time.RFC3339Nano, e)
		if err != nil {
			return nil, soap.Faultf(soap.FaultClient, "bad Expires %q: %v", e, err)
		}
		sub.Expires = when
	}
	if err := s.Store.Put(sub); err != nil {
		return nil, err
	}
	mgr := wsa.NewEPR(s.ManagerEndpoint()).WithParameter(NS, "Identifier", sub.ID)
	return xmlutil.New(NS, "SubscribeResponse").Add(
		mgr.Element(NS, "SubscriptionManager"),
		xmlutil.NewText(NS, "Expires", sub.Expires.UTC().Format(time.RFC3339Nano)),
	), nil
}

func (s *Source) lookup(ctx *container.Ctx) (*Subscription, error) {
	id, ok := wsa.ResourceID(ctx.Envelope, NS, "Identifier")
	if !ok || id == "" {
		return nil, soap.Faultf(soap.FaultClient, "request carries no subscription Identifier")
	}
	sub := s.Store.Get(id)
	if sub == nil {
		return nil, soap.Faultf(soap.FaultClient, "unknown subscription %q", id)
	}
	return sub, nil
}

func (s *Source) renew(ctx *container.Ctx) (*xmlutil.Element, error) {
	sub, err := s.lookup(ctx)
	if err != nil {
		return nil, err
	}
	e := ctx.Envelope.Body.ChildText(NS, "Expires")
	when := s.now().Add(DefaultExpiry)
	if e != "" {
		when, err = time.Parse(time.RFC3339Nano, e)
		if err != nil {
			return nil, soap.Faultf(soap.FaultClient, "bad Expires %q: %v", e, err)
		}
	}
	sub.Expires = when
	if err := s.Store.Put(sub); err != nil {
		return nil, err
	}
	return xmlutil.New(NS, "RenewResponse").Add(
		xmlutil.NewText(NS, "Expires", when.UTC().Format(time.RFC3339Nano))), nil
}

func (s *Source) getStatus(ctx *container.Ctx) (*xmlutil.Element, error) {
	sub, err := s.lookup(ctx)
	if err != nil {
		return nil, err
	}
	return xmlutil.New(NS, "GetStatusResponse").Add(
		xmlutil.NewText(NS, "Expires", sub.Expires.UTC().Format(time.RFC3339Nano))), nil
}

func (s *Source) unsubscribe(ctx *container.Ctx) (*xmlutil.Element, error) {
	sub, err := s.lookup(ctx)
	if err != nil {
		return nil, err
	}
	if _, err := s.remove(sub); err != nil {
		return nil, err
	}
	return xmlutil.New(NS, "UnsubscribeResponse"), nil
}

// Publish pushes an event to every live subscription whose filter
// matches, returning the delivery count. Each delivery is retried per
// the Retry policy; a subscription whose publishes keep failing
// EvictAfter times in a row is cancelled with exactly one
// SubscriptionEnd (StatusDeliveryFailure) to its EndTo, so one dead
// consumer stops taxing every subsequent fan-out.
//
// Expiry and filter checks run up front; a filter whose evaluation
// errors counts as a delivery fault against its subscription (feeding
// the same eviction ledger) rather than silently not matching. The
// matched deliveries then fan out over a bounded worker pool, push
// deliveries to one sink together, pipelined on one connection; the
// returned error is the first failure in subscription order — the
// same semantics as the sequential dispatch this replaces.
func (s *Source) Publish(topic string, message *xmlutil.Element) (int, error) {
	return s.PublishContext(context.Background(), topic, message)
}

// PublishContext is Publish bounded by ctx: cancellation cuts short
// retry backoff and the HTTP exchanges, so a publish triggered by a
// request dies with that request. Handlers must pass their request
// context (container.Ctx.Context) here.
func (s *Source) PublishContext(ctx context.Context, topic string, message *xmlutil.Element) (int, error) {
	// Same shape as wsn.NotifyContext: the publish span covers matching
	// and the fan-out, deliver spans nest under it.
	ctx, pspan := obs.StartSpan(ctx, "wse.publish")
	pspan.SetAttr("topic", topic)
	defer pspan.End()
	e := core.Event{Topic: topic, Message: message}
	matched := s.eng.Match(s.live(), e)
	if len(matched) == 0 {
		return 0, nil
	}

	// Both channels serialize fresh envelopes per delivery from shared
	// bodies: soap.Envelope shares the body tree at marshal time, so one
	// tree serves every subscriber and the old clone-per-subscriber is
	// avoided. The Topic header block is shared the same way.
	httpClient := s.deliveryClient()
	topicHeader := []*xmlutil.Element{xmlutil.NewText(NS, "Topic", e.Topic)}
	return s.eng.Deliver(ctx, matched, func(ctx context.Context, chunk []fanout.Delivery[*Subscription]) {
		if sub := chunk[0].Sub; sub.Mode == DeliveryModeTCP {
			// deliveryKey gives each TCP delivery a chunk of its own. The
			// frame write is bounded by the channel's write deadline; the
			// attempt context bounds the dial, so a black-holed sink fails
			// the attempt instead of hanging a fan-out worker in connect.
			chunk[0].Err = s.TCP.DeliverContext(chunk[0].Ctx, sub.NotifyTo.Address, eventEnvelope(e), s.DeliveryTimeout)
			return
		}
		// Push over HTTP: one-way SOAP POSTs to the sink, with the topic
		// riding in a header block.
		httpClient.DeliverEach(ctx, len(chunk), func(i int) container.Message {
			return container.Message{Ctx: chunk[i].Ctx, To: chunk[i].Sub.NotifyTo, Action: ActionEvent, Headers: topicHeader, Body: e.Message}
		}, func(i int, err error) { chunk[i].Err = err })
	})
}

// deliveryKey chunks push deliveries by sink address. The raw-TCP
// channel writes one frame per delivery, so a TCP delivery gets a chunk
// of its own.
func deliveryKey(sub *Subscription) string {
	if sub.Mode == DeliveryModeTCP {
		return ""
	}
	return sub.NotifyTo.Address
}

// live returns the unexpired subscriptions, in id order.
func (s *Source) live() []*Subscription {
	now := s.now()
	all := s.Store.All()
	live := all[:0]
	for _, sub := range all {
		if !sub.Expired(now) {
			live = append(live, sub)
		}
	}
	return live
}

// matches applies sub's filter to one event.
func matches(sub *Subscription, e core.Event) (bool, error) {
	f := sub.Filter
	if f.IsZero() {
		return true, nil
	}
	switch f.Dialect {
	case DialectTopic:
		return matchTopic(f.Expr, e.Topic), nil
	case DialectXPath:
		return xpathlite.Matches(e.Message, f.Expr)
	default:
		return false, fmt.Errorf("wse: unknown filter dialect %q", f.Dialect)
	}
}

// eventEnvelope frames one event for the TCP channel: the payload as
// the body, topic and action as header blocks.
func eventEnvelope(e core.Event) *soap.Envelope {
	env := soap.New(e.Message)
	env.AddHeader(
		xmlutil.NewText(NS, "Topic", e.Topic),
		xmlutil.NewText(wsa.NS, "Action", ActionEvent),
	)
	return env
}

// cancel removes a subscription and notifies its EndTo endpoint over
// the given (timeout-bounded) client, reporting whether this call
// removed it. The store delete gates the end notice, so concurrent
// cancels and evictions send at most one.
func (s *Source) cancel(client *container.Client, sub *Subscription, status, reason string) bool {
	ok, _ := s.remove(sub)
	if ok {
		s.sendEnd(client, sub, status, reason)
	}
	return ok
}

func (s *Source) sendEnd(client *container.Client, sub *Subscription, status, reason string) {
	if sub.EndTo.IsZero() {
		return
	}
	end := xmlutil.New(NS, "SubscriptionEnd").Add(
		xmlutil.NewText(NS, "Status", status),
		xmlutil.NewText(NS, "Reason", reason),
	)
	// The subscription is already removed; an undeliverable end notice
	// is counted, not retried — its EndTo is usually as dead as the
	// consumer that got the subscription evicted.
	if err := client.Deliver(context.Background(), sub.EndTo, ActionSubscriptionEnd, nil, end); err != nil {
		s.noteEndNoticeError(err)
	}
}

// noteEndNoticeError accounts a SubscriptionEnd notice that never
// reached its EndTo endpoint; only the count is kept.
func (s *Source) noteEndNoticeError(error) {
	s.endNoticeErrors.Add(1)
	wseEndNoticeErrorsTotal.Inc()
}

// deliveryClient is the client push events and end notices ride. Push
// delivery is always pooled — the persistent connections are the
// stack's paper-era behavior — and rides ForDelivery, so dials versus
// reuses show up in the shared delivery metrics and the unsigned
// acknowledgements are not verified. DeliveryTimeout bounds each
// exchange: an EndTo endpoint is just another consumer and may be as
// dead as the subscription being ended.
func (s *Source) deliveryClient() *container.Client {
	return s.HTTP.ForDelivery(container.DeliveryPooled).WithTimeout(s.DeliveryTimeout)
}

// Shutdown cancels every live subscription with SourceShuttingDown.
// End notices go through the fan-out pool and are each bounded by
// DeliveryTimeout, so one hung EndTo consumer delays shutdown by at
// most one timeout instead of stalling it forever.
func (s *Source) Shutdown() {
	subs := s.Store.All()
	client := s.deliveryClient()
	fanout.Do(len(subs), s.Workers, func(i int) {
		s.cancel(client, subs[i], StatusSourceShuttingDown, "event source shutting down")
	})
	s.TCP.Close()
}

// SweepExpired drops lapsed subscriptions (no SubscriptionEnd: expiry
// is the consumer's own deadline). It returns the number removed.
func (s *Source) SweepExpired() int {
	n := 0
	for _, sub := range s.Store.Expired(s.now()) {
		if ok, _ := s.remove(sub); ok {
			n++
		}
	}
	return n
}

// NotificationManager is the Plumbwork-specific trigger facade: "a
// convenient tool for an event source to trigger notifications by
// using operations implemented in it" (paper §3.2).
type NotificationManager struct {
	Source *Source
}

// Trigger publishes an event through the source.
func (nm *NotificationManager) Trigger(topic string, message *xmlutil.Element) (int, error) {
	return nm.Source.Publish(topic, message)
}

// SubscribeOptions parameterizes a client-side Subscribe.
type SubscribeOptions struct {
	// NotifyTo is where events are delivered (an HTTP EPR for push
	// mode, a tcp:// EPR for TCP mode).
	NotifyTo wsa.EPR
	// EndTo optionally receives SubscriptionEnd messages.
	EndTo  wsa.EPR
	Mode   string
	Filter Filter
	// Expires requests an absolute expiry; zero asks the source to pick.
	Expires time.Time
}

// SubscribeResult is the outcome of a Subscribe call.
type SubscribeResult struct {
	// Manager addresses the subscription at the Subscription Manager
	// Service (carrying the wse:Identifier reference parameter).
	Manager wsa.EPR
	Expires time.Time
}

// Subscribe registers a subscription with the event source.
func Subscribe(c *container.Client, source wsa.EPR, opts SubscribeOptions) (SubscribeResult, error) {
	body := xmlutil.New(NS, "Subscribe")
	if !opts.EndTo.IsZero() {
		body.Add(opts.EndTo.Element(NS, "EndTo"))
	}
	mode := opts.Mode
	if mode == "" {
		mode = DeliveryModePush
	}
	body.Add(xmlutil.New(NS, "Delivery").SetAttr("", "Mode", mode).
		Add(opts.NotifyTo.Element(NS, "NotifyTo")))
	if !opts.Filter.IsZero() {
		body.Add(xmlutil.NewText(NS, "Filter", opts.Filter.Expr).
			SetAttr("", "Dialect", opts.Filter.Dialect))
	}
	if !opts.Expires.IsZero() {
		body.Add(xmlutil.NewText(NS, "Expires", opts.Expires.UTC().Format(time.RFC3339Nano)))
	}
	resp, err := c.Call(source, ActionSubscribe, body)
	if err != nil {
		return SubscribeResult{}, err
	}
	mgrEl := resp.Child(NS, "SubscriptionManager")
	if mgrEl == nil {
		return SubscribeResult{}, fmt.Errorf("wse: SubscribeResponse carries no SubscriptionManager")
	}
	mgr, err := wsa.ParseEPR(mgrEl)
	if err != nil {
		return SubscribeResult{}, err
	}
	res := SubscribeResult{Manager: mgr}
	if e := resp.ChildText(NS, "Expires"); e != "" {
		if t, err := time.Parse(time.RFC3339Nano, e); err == nil {
			res.Expires = t
		}
	}
	return res, nil
}

// Renew extends a subscription via its manager EPR and returns the new
// expiry.
func Renew(c *container.Client, manager wsa.EPR, expires time.Time) (time.Time, error) {
	body := xmlutil.New(NS, "Renew")
	if !expires.IsZero() {
		body.Add(xmlutil.NewText(NS, "Expires", expires.UTC().Format(time.RFC3339Nano)))
	}
	resp, err := c.Call(manager, ActionRenew, body)
	if err != nil {
		return time.Time{}, err
	}
	return time.Parse(time.RFC3339Nano, resp.ChildText(NS, "Expires"))
}

// GetStatus retrieves the subscription's current expiry.
func GetStatus(c *container.Client, manager wsa.EPR) (time.Time, error) {
	resp, err := c.Call(manager, ActionGetStatus, xmlutil.New(NS, "GetStatus"))
	if err != nil {
		return time.Time{}, err
	}
	return time.Parse(time.RFC3339Nano, resp.ChildText(NS, "Expires"))
}

// Unsubscribe removes the subscription.
func Unsubscribe(c *container.Client, manager wsa.EPR) error {
	_, err := c.Call(manager, ActionUnsubscribe, xmlutil.New(NS, "Unsubscribe"))
	return err
}

// HTTPSink is a push-mode consumer endpoint: a minimal container
// service that surfaces delivered events (and SubscriptionEnd
// messages) on a channel.
//
// Overflow behavior is drop-with-count: when Ch is full the event is
// discarded, Dropped is incremented, and the delivery is still ACKed —
// the sink deliberately sheds load rather than backpressuring the
// source's fan-out pool. Consumers that need every event must size the
// buffer (or drain) accordingly and can watch Dropped for loss.
type HTTPSink struct {
	C    *container.Container
	Ch   chan core.Event
	Ends chan string // SubscriptionEnd status URIs
	// Dropped counts events (and end notices) discarded because their
	// channel was full.
	Dropped atomic.Int64
}

// NewHTTPSink starts a push-mode sink on a fresh loopback port.
func NewHTTPSink(buffer int) (*HTTPSink, error) {
	s := &HTTPSink{
		C:    container.New(container.SecurityNone),
		Ch:   make(chan core.Event, buffer),
		Ends: make(chan string, 4),
	}
	s.C.Register(&container.Service{
		Path: "/sink",
		Actions: map[string]container.ActionFunc{
			ActionEvent: func(ctx *container.Ctx) (*xmlutil.Element, error) {
				ev := core.Event{Message: ctx.Envelope.Body}
				if h := ctx.Envelope.Header(NS, "Topic"); h != nil {
					ev.Topic = h.TrimText()
				}
				select {
				case s.Ch <- ev:
				default:
					s.Dropped.Add(1)
					wseSinkDroppedTotal.Inc()
				}
				return xmlutil.New(NS, "EventAck"), nil
			},
			ActionSubscriptionEnd: func(ctx *container.Ctx) (*xmlutil.Element, error) {
				select {
				case s.Ends <- ctx.Envelope.Body.ChildText(NS, "Status"):
				default:
					s.Dropped.Add(1)
					wseSinkDroppedTotal.Inc()
				}
				return xmlutil.New(NS, "SubscriptionEndAck"), nil
			},
		},
	})
	if _, err := s.C.Start(); err != nil {
		return nil, err
	}
	return s, nil
}

// EPR returns the sink's delivery endpoint.
func (s *HTTPSink) EPR() wsa.EPR { return s.C.EPR("/sink") }

// Close stops the sink.
func (s *HTTPSink) Close() { s.C.Close() }
