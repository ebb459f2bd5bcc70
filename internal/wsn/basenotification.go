package wsn

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/fanout"
	"altstacks/internal/obs"
	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/wsrf"
	"altstacks/internal/wsrf/bf"
	"altstacks/internal/wsrf/rl"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
	"altstacks/internal/xpathlite"
)

// Action URIs for WS-BaseNotification.
const (
	ActionSubscribe         = NSNT + "/Subscribe"
	ActionNotify            = NSNT + "/Notify"
	ActionPause             = NSNT + "/PauseSubscription"
	ActionResume            = NSNT + "/ResumeSubscription"
	ActionGetCurrentMessage = NSNT + "/GetCurrentMessage"
)

// Subscription is the decoded state of one subscription resource.
// Each subscription is itself a WS-Resource held by the Subscription
// Manager Service (paper §2.1: "each subscription is managed by a
// Subscription Manager Service (which may be the same as the
// Notification Producer)").
type Subscription struct {
	ID       string
	Consumer wsa.EPR
	Topic    TopicExpression
	// MessageContent, when set, is an XPath predicate evaluated against
	// each notification payload.
	MessageContent string
	// ProducerProperties, when set, is an XPath predicate evaluated
	// against the producer's resource property document.
	ProducerProperties string
	// UseRaw requests unwrapped delivery (the problematic "raw" mode
	// of §3.1).
	UseRaw bool
	Paused bool
	// Termination is the subscription resource's scheduled termination
	// time (InitialTerminationTime, then SetTerminationTime); zero means
	// none. It is resource lifetime, kept by the Home, not encoded state.
	Termination time.Time
}

// Expired reports whether the subscription's termination time has
// passed at now. An expired subscription receives nothing, whether or
// not a lifetime sweeper has destroyed it yet.
func (s *Subscription) Expired(now time.Time) bool {
	return !s.Termination.IsZero() && s.Termination.Before(now)
}

func (s *Subscription) encode() *xmlutil.Element {
	doc := xmlutil.New(NSNT, "Subscription")
	doc.Add(s.Consumer.Element(NSNT, "ConsumerReference"))
	doc.Add(xmlutil.NewText(NSNT, "TopicExpression", s.Topic.Expr).
		SetAttr("", "Dialect", s.Topic.Dialect))
	if s.MessageContent != "" {
		doc.Add(xmlutil.NewText(NSNT, "MessageContentFilter", s.MessageContent))
	}
	if s.ProducerProperties != "" {
		doc.Add(xmlutil.NewText(NSNT, "ProducerPropertiesFilter", s.ProducerProperties))
	}
	doc.Add(xmlutil.NewText(NSNT, "UseRaw", fmt.Sprint(s.UseRaw)))
	doc.Add(xmlutil.NewText(NSNT, "Paused", fmt.Sprint(s.Paused)))
	return doc
}

func decodeSubscription(r *wsrf.Resource) (*Subscription, error) {
	s := &Subscription{ID: r.ID, Termination: r.Termination}
	consEl := r.State.Child(NSNT, "ConsumerReference")
	if consEl == nil {
		return nil, fmt.Errorf("wsn: subscription %s has no consumer reference", r.ID)
	}
	cons, err := wsa.ParseEPR(consEl)
	if err != nil {
		return nil, fmt.Errorf("wsn: subscription %s: %w", r.ID, err)
	}
	s.Consumer = cons
	if te := r.State.Child(NSNT, "TopicExpression"); te != nil {
		s.Topic = TopicExpression{Dialect: te.AttrValue("", "Dialect"), Expr: te.TrimText()}
	}
	s.MessageContent = r.State.ChildText(NSNT, "MessageContentFilter")
	s.ProducerProperties = r.State.ChildText(NSNT, "ProducerPropertiesFilter")
	s.UseRaw = r.State.ChildText(NSNT, "UseRaw") == "true"
	s.Paused = r.State.ChildText(NSNT, "Paused") == "true"
	return s, nil
}

// Producer is a Notification Producer plus its Subscription Manager:
// it serves Subscribe on the producer service, manages subscription
// resources on a manager service, and pushes notifications to
// subscribers over HTTP.
//
// The delivery knobs — Workers, DeliveryTimeout, Retry, EvictAfter —
// are fanout.Knobs fields, promoted from the embedded knobs.
// EvictAfter destroys the subscription resource (the producer-side
// termination WS-BaseNotification expresses through the subscription's
// lifetime path).
type Producer struct {
	// Subs holds the subscription WS-Resources.
	Subs *wsrf.Home
	// Deliver performs outbound notification calls.
	Deliver *container.Client
	// Mode selects delivery connection handling. The default,
	// DeliveryPooled, keeps consumer connections alive between
	// notifications; DeliveryPerMessage restores the paper-faithful
	// one-shot connections (a fresh TCP/TLS handshake per notification,
	// §4.1.3) and is pinned by the experiment harness for the figure
	// reproductions.
	Mode container.DeliveryMode
	// ProducerProperties, when set, supplies the property document
	// ProducerProperties filters are evaluated against.
	ProducerProperties func() *xmlutil.Element
	// OnChange, when set, runs after any subscription set change
	// (subscribe, pause, resume, destroy). The broker uses it to drive
	// demand-based publishing.
	OnChange func()
	knobs

	// eng runs delivery: retry, the health ledger (persisted to the
	// "<collection>-health" sibling collection, see delivery.go),
	// eviction, and the counters.
	eng *fanout.Engine[*Subscription, topicMessage]
	// lastMessage caches the most recent message per topic for the
	// spec's GetCurrentMessage operation.
	lastMu      sync.Mutex
	lastMessage map[string]*xmlutil.Element
	// The subscription cache: Notify runs on every counter Set, but the
	// subscription set only changes on subscribe/pause/resume/destroy,
	// so steady-state publishing must not re-pay the backend's
	// Query+Read cost model per message — the "more extensive
	// optimization effort" the paper credits WSRF.NET with (§4.1.3).
	// subGen is bumped by changed(); a cached list is valid only while
	// its generation still matches, so any mutation (even one racing a
	// fill) invalidates.
	subGen      atomic.Uint64
	subMu       sync.Mutex
	subCache    []*Subscription
	subCacheGen uint64
	subCacheOK  bool
}

type knobs = fanout.Knobs

// NewProducer builds a producer whose subscription resources live in
// the given collection and are addressed via the manager endpoint.
func NewProducer(db *xmldb.DB, collection string, managerEndpoint func() string, deliver *container.Client) *Producer {
	p := &Producer{
		Subs: &wsrf.Home{
			DB:         db,
			Collection: collection,
			RefSpace:   NSNT,
			RefLocal:   "SubscriptionID",
			Endpoint:   managerEndpoint,
		},
		// The base client is kept as-is; connection handling is applied
		// per publish from Mode, so one producer can flip between the
		// pooled fast path and the paper-faithful per-message behavior
		// (one-shot consumer HTTP servers, §4.1.3) without rewiring.
		Deliver: deliver,
		knobs:   fanout.DefaultKnobs(),
	}
	p.eng = fanout.NewEngine(&p.knobs, fanout.Stack[*Subscription, topicMessage]{
		Name:        "wsn",
		Counters:    wsnDelivery,
		ID:          func(s *Subscription) string { return s.ID },
		Key:         func(s *Subscription) string { return s.Consumer.Address },
		Match:       p.matches,
		Evict:       p.evict,
		LoadHealth:  p.loadHealth,
		StoreHealth: p.persistHealth,
		Now:         time.Now,
	})
	// Unsubscribe (Destroy through the manager) must also recompute
	// demand-based publishing state and drop the delivery ledger.
	p.Subs.AfterDestroy = func(id string) {
		p.dropHealth(id)
		p.changed()
	}
	return p
}

// ProducerPortType exposes Subscribe on the producer's own service.
func (p *Producer) ProducerPortType() wsrf.PortType { return producerPT{p} }

type producerPT struct{ p *Producer }

func (pt producerPT) Actions() map[string]container.ActionFunc {
	return map[string]container.ActionFunc{
		ActionSubscribe:         pt.p.subscribe,
		ActionGetCurrentMessage: pt.p.getCurrentMessage,
	}
}

// getCurrentMessage serves WS-BaseNotification's pull-style operation:
// the latest message published on a topic, for late joiners.
func (p *Producer) getCurrentMessage(ctx *container.Ctx) (*xmlutil.Element, error) {
	topic := ctx.Envelope.Body.ChildText(NSNT, "Topic")
	if topic == "" {
		return nil, soap.Faultf(soap.FaultClient, "GetCurrentMessage names no topic")
	}
	p.lastMu.Lock()
	msg := p.lastMessage[topic]
	p.lastMu.Unlock()
	if msg == nil {
		// Cold producer (for example, after a restart): the current
		// message is resource state and survives in the database.
		msg = p.loadCurrentMessage(topic)
	}
	if msg == nil {
		return nil, soap.Faultf(soap.FaultClient, "no current message on topic %q", topic)
	}
	return xmlutil.New(NSNT, "GetCurrentMessageResponse").Add(msg.Clone()), nil
}

// ManagerService assembles the Subscription Manager Service: pause and
// resume (WS-BaseNotification) plus destroy and scheduled termination
// imported from WS-ResourceLifetime — unsubscribing is "delete their
// subscription through the Subscription Manager service" (paper §2.1).
func (p *Producer) ManagerService(path string) *container.Service {
	svc := &container.Service{Path: path}
	wsrf.Aggregate(svc, managerPT{p}, rl.NewPortType(p.Subs))
	// A new termination time changes which subscriptions are live, so it
	// invalidates the subscription cache like any other change.
	setTermination := svc.Actions[rl.ActionSetTerminationTime]
	svc.Actions[rl.ActionSetTerminationTime] = func(ctx *container.Ctx) (*xmlutil.Element, error) {
		resp, err := setTermination(ctx)
		p.changed()
		return resp, err
	}
	return svc
}

type managerPT struct{ p *Producer }

func (pt managerPT) Actions() map[string]container.ActionFunc {
	return map[string]container.ActionFunc{
		ActionPause:  pt.p.setPaused(true),
		ActionResume: pt.p.setPaused(false),
	}
}

func (p *Producer) subscribe(ctx *container.Ctx) (*xmlutil.Element, error) {
	body := ctx.Envelope.Body
	consEl := body.Child(NSNT, "ConsumerReference")
	if consEl == nil {
		return nil, soap.Faultf(soap.FaultClient, "Subscribe carries no ConsumerReference")
	}
	consumer, err := wsa.ParseEPR(consEl)
	if err != nil {
		return nil, soap.Faultf(soap.FaultClient, "bad ConsumerReference: %v", err)
	}
	sub := &Subscription{Consumer: consumer}
	if te := body.Child(NSNT, "TopicExpression"); te != nil {
		sub.Topic = TopicExpression{Dialect: te.AttrValue("", "Dialect"), Expr: te.TrimText()}
		if sub.Topic.Dialect == "" {
			sub.Topic.Dialect = DialectConcrete
		}
		if err := sub.Topic.Validate(); err != nil {
			return nil, soap.Faultf(soap.FaultClient, "bad topic expression: %v", err)
		}
	}
	if mc := body.ChildText(NSNT, "MessageContentFilter"); mc != "" {
		if _, err := xpathlite.Compile(mc); err != nil {
			return nil, soap.Faultf(soap.FaultClient, "bad message content filter: %v", err)
		}
		sub.MessageContent = mc
	}
	if pp := body.ChildText(NSNT, "ProducerPropertiesFilter"); pp != "" {
		if _, err := xpathlite.Compile(pp); err != nil {
			return nil, soap.Faultf(soap.FaultClient, "bad producer properties filter: %v", err)
		}
		sub.ProducerProperties = pp
	}
	sub.UseRaw = body.ChildText(NSNT, "UseRaw") == "true"

	epr, err := p.Subs.Create(sub.encode())
	if err != nil {
		return nil, err
	}
	// Honor the client's requested initial lifetime (paper §2.1:
	// "clients can request an initial lifetime for subscriptions").
	if itt := body.ChildText(NSNT, "InitialTerminationTime"); itt != "" && itt != rl.Infinity {
		when, err := time.Parse(time.RFC3339Nano, itt)
		if err != nil {
			return nil, soap.Faultf(soap.FaultClient, "bad InitialTerminationTime: %v", err)
		}
		id, _ := epr.Property(NSNT, "SubscriptionID")
		if err := p.Subs.Mutate(id, func(r *wsrf.Resource) error {
			r.Termination = when
			return nil
		}); err != nil {
			return nil, err
		}
	}
	p.changed()
	return xmlutil.New(NSNT, "SubscribeResponse").
		Add(epr.Element(NSNT, "SubscriptionReference")), nil
}

func (p *Producer) setPaused(paused bool) container.ActionFunc {
	return func(ctx *container.Ctx) (*xmlutil.Element, error) {
		id, err := p.Subs.ResourceID(ctx.Envelope)
		if err != nil {
			return nil, err
		}
		err = p.Subs.Mutate(id, func(r *wsrf.Resource) error {
			sub, err := decodeSubscription(r)
			if err != nil {
				return err
			}
			sub.Paused = paused
			r.State.Children = sub.encode().Children
			return nil
		})
		if err != nil {
			if errors.Is(err, xmldb.ErrNotFound) {
				return nil, bf.ResourceUnknown(p.Subs.Collection, id)
			}
			return nil, err
		}
		p.changed()
		local := "ResumeSubscriptionResponse"
		if paused {
			local = "PauseSubscriptionResponse"
		}
		return xmlutil.New(NSNT, local), nil
	}
}

func (p *Producer) changed() {
	p.subGen.Add(1)
	if p.OnChange != nil {
		p.OnChange()
	}
}

// Subscriptions returns the decoded live subscription set. The result
// is served from the generation cache whenever no subscription change
// has occurred since the last fill, so steady-state callers (Notify on
// every counter Set, the broker's demand recomputation) perform zero
// database reads. Callers must treat the returned slice and its
// entries as read-only.
func (p *Producer) Subscriptions() ([]*Subscription, error) {
	gen := p.subGen.Load()
	p.subMu.Lock()
	if p.subCacheOK && p.subCacheGen == gen {
		subs := p.subCache
		p.subMu.Unlock()
		return subs, nil
	}
	p.subMu.Unlock()

	ids, err := p.Subs.IDs()
	if err != nil {
		return nil, err
	}
	out := make([]*Subscription, 0, len(ids))
	for _, id := range ids {
		r, err := p.Subs.Load(id)
		if err != nil {
			continue // destroyed concurrently
		}
		sub, err := decodeSubscription(r)
		if err != nil {
			return nil, err
		}
		out = append(out, sub)
	}
	// Publish the fill under the generation observed before the reads:
	// if a subscription changed mid-fill, subGen has moved on and this
	// entry is already stale, so the next call re-reads.
	p.subMu.Lock()
	p.subCache, p.subCacheGen, p.subCacheOK = out, gen, true
	p.subMu.Unlock()
	return out, nil
}

// HasActiveSubscriber reports whether any live, unpaused subscription
// matches the topic — the predicate demand-based publishing pivots on.
func (p *Producer) HasActiveSubscriber(topic string) bool {
	subs, err := p.Subscriptions()
	if err != nil {
		return false
	}
	now := time.Now()
	for _, s := range subs {
		if s.Paused || s.Expired(now) {
			continue
		}
		if ok, _ := s.Topic.Matches(topic); ok {
			return true
		}
	}
	return false
}

// Notify delivers a message on a topic to every matching subscriber
// and returns how many deliveries were made. Matching applies, in
// order, the paused flag and the termination time, the topic filter,
// the message-content filter, and the producer-properties filter
// (paper §2.1 lists all three filter kinds). A filter whose evaluation
// errors no longer silently drops the subscriber from the fan-out: it
// is counted as a delivery fault against that subscription
// (FilterErrors in the stats), feeding the same health ledger — and
// eviction threshold — as failed deliveries.
// Matching runs up front on the caller's goroutine (filters touch
// shared producer state and are cheap); the matched deliveries then
// fan out over a bounded worker pool, since their HTTP exchanges'
// latency dominates the batch, in chunks of deliveries to one consumer
// that a pooled client pipelines on one connection. Each delivery is
// retried per the Retry policy; a subscriber that fails EvictAfter
// consecutive publishes is evicted (its subscription resource
// destroyed) so it stops taxing every subsequent fan-out. Delivery
// count and first-error (in subscription order) semantics are
// identical to the sequential dispatch this replaces.
func (p *Producer) Notify(topic string, message *xmlutil.Element) (int, error) {
	return p.NotifyContext(context.Background(), topic, message)
}

// NotifyContext is Notify bounded by ctx: cancellation cuts short the
// per-delivery retry backoff and the HTTP exchanges themselves, so a
// publish triggered by a request dies with that request and Shutdown
// does not wait out a retrying fan-out. Handlers must pass their
// request context (container.Ctx.Context) here.
func (p *Producer) NotifyContext(ctx context.Context, topic string, message *xmlutil.Element) (int, error) {
	// The notify span covers matching, current-message write-through,
	// and the whole fan-out; deliver spans nest under it. A publish from
	// a request handler joins that request's trace; a background publish
	// roots its own.
	ctx, nspan := obs.StartSpan(ctx, "wsn.notify")
	nspan.SetAttr("topic", topic)
	defer nspan.End()
	p.lastMu.Lock()
	if p.lastMessage == nil {
		p.lastMessage = map[string]*xmlutil.Element{}
	}
	p.lastMessage[topic] = message.Clone()
	p.lastMu.Unlock()
	subs, err := p.Subscriptions()
	if err != nil {
		return 0, err
	}
	matched := p.eng.Match(subs, topicMessage{Topic: topic, Message: message, Now: time.Now()})
	if len(matched) == 0 {
		return 0, nil
	}
	// WSRF.NET keeps all service state in the database, and the topic's
	// current message (the GetCurrentMessage property) is state: each
	// dispatched notification writes it through — an Update with no
	// preceding read, mirroring the Set path's write-through cache.
	// Demand applies as it does to dispatch itself: a publish no active
	// subscription matches materializes nothing. With the subscription
	// scan cached away, this write is where the paper's "dominated by
	// Xindice" observation keeps holding on the Notify path (§4.1.3).
	p.storeCurrentMessage(topic, message)

	// One wrapped body serves every subscriber: soap.Envelope shares the
	// body tree at marshal time, so reusing it across concurrent
	// deliveries is safe and the old clone-per-subscriber is pure waste.
	body := buildNotify(topic, message)
	client := p.Deliver.ForDelivery(p.Mode).WithTimeout(p.DeliveryTimeout)
	return p.eng.Deliver(ctx, matched, func(ctx context.Context, chunk []fanout.Delivery[*Subscription]) {
		client.DeliverEach(ctx, len(chunk), func(i int) container.Message {
			m := container.Message{Ctx: chunk[i].Ctx, To: chunk[i].Sub.Consumer, Action: ActionNotify, Body: body}
			if chunk[i].Sub.UseRaw {
				// Raw delivery posts the payload bare. The paper flags this
				// mode as an interoperability hazard ("the information
				// passed with a notification … is not well-defined", §3.1);
				// it is provided for completeness.
				m.Body = message
			}
			return m
		}, func(i int, err error) { chunk[i].Finish(err) })
	})
}

// topicMessage is the (topic, payload) pair a subscription's filters
// are matched against, with the publish's clock reading, which every
// subscription's termination time is checked against.
type topicMessage struct {
	Topic   string
	Message *xmlutil.Element
	Now     time.Time
}

// buildNotify wraps a message as a wsnt:Notify body with one
// NotificationMessage child. Consumers iterate NotificationMessage
// children, so they also accept a foreign producer's multi-message
// Notify.
func buildNotify(topic string, message *xmlutil.Element) *xmlutil.Element {
	return xmlutil.New(NSNT, "Notify").Add(
		xmlutil.New(NSNT, "NotificationMessage").Add(
			xmlutil.NewText(NSNT, "Topic", topic).SetAttr("", "Dialect", DialectConcrete),
			xmlutil.New(NSNT, "Message").Add(message),
		))
}

// currentCollection is where per-topic current messages persist,
// beside the subscription collection.
func (p *Producer) currentCollection() string { return p.Subs.Collection + "-current" }

// topicDocID makes a topic path safe as a document id (file backends
// map ids to file names).
func topicDocID(topic string) string { return strings.ReplaceAll(topic, "/", "_") }

func (p *Producer) storeCurrentMessage(topic string, message *xmlutil.Element) {
	if p.Subs == nil || p.Subs.DB == nil {
		return
	}
	doc := xmlutil.New(NSNT, "CurrentMessage").Add(
		xmlutil.NewText(NSNT, "Topic", topic),
		xmlutil.New(NSNT, "Message").Add(message),
	)
	// The in-memory lastMessage map stays authoritative for
	// GetCurrentMessage; a failed write-through only costs durability
	// across a restart, so it is accounted rather than failing the
	// publish.
	if err := p.Subs.DB.Put(p.currentCollection(), topicDocID(topic), doc); err != nil {
		p.eng.NoteStateWriteError(err)
	}
}

func (p *Producer) loadCurrentMessage(topic string) *xmlutil.Element {
	if p.Subs == nil || p.Subs.DB == nil {
		return nil
	}
	doc, err := p.Subs.DB.Get(p.currentCollection(), topicDocID(topic))
	if err != nil {
		return nil
	}
	m := doc.Child(NSNT, "Message")
	if m == nil || len(m.Children) == 0 {
		return nil
	}
	return m.Children[0]
}

func (p *Producer) matches(sub *Subscription, m topicMessage) (bool, error) {
	if sub.Paused || sub.Expired(m.Now) {
		return false, nil
	}
	if sub.Topic.Expr != "" {
		ok, err := sub.Topic.Matches(m.Topic)
		if err != nil || !ok {
			return false, err
		}
	}
	if sub.MessageContent != "" {
		ok, err := xpathlite.Matches(m.Message, sub.MessageContent)
		if err != nil || !ok {
			return false, err
		}
	}
	if sub.ProducerProperties != "" {
		if p.ProducerProperties == nil {
			return false, nil
		}
		ok, err := xpathlite.Matches(p.ProducerProperties(), sub.ProducerProperties)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// SubscribeOptions parameterizes a client-side Subscribe call.
type SubscribeOptions struct {
	Topic              TopicExpression
	MessageContent     string
	ProducerProperties string
	UseRaw             bool
	// InitialTermination requests a bounded subscription lifetime; the
	// zero time requests an unbounded one.
	InitialTermination time.Time
}

// Subscribe is the client call: it subscribes consumer to the producer
// at producerEPR and returns the subscription's manager EPR.
func Subscribe(c *container.Client, producerEPR, consumer wsa.EPR, opts SubscribeOptions) (wsa.EPR, error) {
	body := xmlutil.New(NSNT, "Subscribe")
	body.Add(consumer.Element(NSNT, "ConsumerReference"))
	if opts.Topic.Expr != "" {
		body.Add(xmlutil.NewText(NSNT, "TopicExpression", opts.Topic.Expr).
			SetAttr("", "Dialect", opts.Topic.Dialect))
	}
	if opts.MessageContent != "" {
		body.Add(xmlutil.NewText(NSNT, "MessageContentFilter", opts.MessageContent))
	}
	if opts.ProducerProperties != "" {
		body.Add(xmlutil.NewText(NSNT, "ProducerPropertiesFilter", opts.ProducerProperties))
	}
	if opts.UseRaw {
		body.Add(xmlutil.NewText(NSNT, "UseRaw", "true"))
	}
	if !opts.InitialTermination.IsZero() {
		body.Add(xmlutil.NewText(NSNT, "InitialTerminationTime",
			opts.InitialTermination.UTC().Format(time.RFC3339Nano)))
	}
	resp, err := c.Call(producerEPR, ActionSubscribe, body)
	if err != nil {
		return wsa.EPR{}, err
	}
	ref := resp.Child(NSNT, "SubscriptionReference")
	if ref == nil {
		return wsa.EPR{}, fmt.Errorf("wsn: SubscribeResponse carries no SubscriptionReference")
	}
	return wsa.ParseEPR(ref)
}

// GetCurrentMessage fetches the latest message published on a topic.
func GetCurrentMessage(c *container.Client, producer wsa.EPR, topic string) (*xmlutil.Element, error) {
	body := xmlutil.New(NSNT, "GetCurrentMessage").Add(xmlutil.NewText(NSNT, "Topic", topic))
	resp, err := c.Call(producer, ActionGetCurrentMessage, body)
	if err != nil {
		return nil, err
	}
	if len(resp.Children) == 0 {
		return nil, fmt.Errorf("wsn: empty GetCurrentMessage response")
	}
	return resp.Children[0], nil
}

// Pause pauses a subscription via its manager EPR.
func Pause(c *container.Client, subscription wsa.EPR) error {
	_, err := c.Call(subscription, ActionPause, xmlutil.New(NSNT, "PauseSubscription"))
	return err
}

// Resume resumes a paused subscription.
func Resume(c *container.Client, subscription wsa.EPR) error {
	_, err := c.Call(subscription, ActionResume, xmlutil.New(NSNT, "ResumeSubscription"))
	return err
}

// Unsubscribe deletes the subscription resource (WS-ResourceLifetime
// Destroy through the manager).
func Unsubscribe(c *container.Client, subscription wsa.EPR) error {
	cl := rl.Client{C: c}
	return cl.Destroy(subscription)
}
