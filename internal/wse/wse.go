// Package wse implements WS-Eventing, the notification half of the
// paper's alternative stack, modeled on the Plumbwork Orange
// implementation the paper used (§3.2): an Event Source Service, a
// Subscription Manager Service (Unsubscribe, GetStatus, Renew), a
// filtering facility, and the spec-external Notification Manager
// ("which is not defined in the spec, is a convenient tool for an
// event source to trigger notifications").
//
// Plumbwork idiosyncrasies reproduced deliberately:
//
//   - Subscriptions are NOT resources: "unlike WS-Notification, a
//     subscription is not associated with a resource, but only with a
//     service. Thus, a filter can be used for registering a
//     subscription per resource" (§3.2) — the topic-dialect filter
//     below is that mechanism.
//   - The subscription list is persisted in a flat XML file ("it
//     maintains the subscription lists in a flat XML file").
//   - Push delivery supports both plain HTTP and the WSE
//     SoapReceiver-style raw-TCP channel ("Plumbwork Orange uses a WSE
//     SoapReceiver to handle notifications via TCP", §4.1.3) — the TCP
//     path is why "notification performance does appear to be
//     considerably better for the WS-Eventing implementation".
package wse

import (
	"fmt"
	"strings"
	"time"

	"altstacks/internal/fanout"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

// NS is the WS-Eventing August 2004 namespace.
const NS = "http://schemas.xmlsoap.org/ws/2004/08/eventing"

// Action URIs.
const (
	ActionSubscribe       = NS + "/Subscribe"
	ActionRenew           = NS + "/Renew"
	ActionGetStatus       = NS + "/GetStatus"
	ActionUnsubscribe     = NS + "/Unsubscribe"
	ActionSubscriptionEnd = NS + "/SubscriptionEnd"
	// ActionEvent is the action events are delivered under; the topic
	// rides in a wse:Topic header.
	ActionEvent = "urn:altstacks:wse/Event"
)

// Delivery modes. Push is the only spec-defined mode; modes are "an
// extension point … in which application-specific ways of sending
// messages can be defined" (§2.2), which is where the Plumbwork TCP
// receiver plugs in.
const (
	DeliveryModePush = NS + "/DeliveryModes/Push"
	DeliveryModeTCP  = "urn:plumbwork:soapreceiver/tcp"
)

// Filter dialects.
const (
	// DialectXPath evaluates the expression against the event payload.
	DialectXPath = "http://www.w3.org/TR/1999/REC-xpath-19991116"
	// DialectTopic is the implementation-defined topic filter used for
	// per-resource subscriptions: "/"-separated paths where "*" matches
	// one segment and a trailing "**" matches any remainder.
	DialectTopic = "urn:altstacks:wse/TopicFilter"
)

// SubscriptionEnd status codes (spec §4.3).
const (
	StatusSourceShuttingDown = NS + "/SourceShuttingDown"
	StatusSourceCancelling   = NS + "/SourceCancelling"
	StatusDeliveryFailure    = NS + "/DeliveryFailure"
)

// Filter is a dialect-tagged subscription predicate.
type Filter struct {
	Dialect string
	Expr    string
}

// TopicFilter builds a topic-dialect filter.
func TopicFilter(pattern string) Filter { return Filter{Dialect: DialectTopic, Expr: pattern} }

// XPathFilter builds an XPath-dialect filter.
func XPathFilter(expr string) Filter { return Filter{Dialect: DialectXPath, Expr: expr} }

// IsZero reports an absent filter (matches everything).
func (f Filter) IsZero() bool { return f.Dialect == "" && f.Expr == "" }

// matchTopic applies the topic-dialect pattern.
func matchTopic(pattern, topic string) bool {
	ps := strings.Split(strings.Trim(pattern, "/"), "/")
	ts := strings.Split(strings.Trim(topic, "/"), "/")
	for i, p := range ps {
		if p == "**" {
			// A trailing ** matches one or more remaining segments.
			return i == len(ps)-1 && i < len(ts)
		}
		if i >= len(ts) {
			return false
		}
		if p != "*" && p != ts[i] {
			return false
		}
	}
	return len(ps) == len(ts)
}

// SubscriptionHealth is the delivery-health record kept per
// subscription (see fanout.Health). It is persisted with the
// subscription in the flat file.
type SubscriptionHealth = fanout.Health

// Subscription is one registered event consumer.
type Subscription struct {
	ID       string
	NotifyTo wsa.EPR
	// EndTo, when set, receives a SubscriptionEnd message if the source
	// terminates the subscription abnormally.
	EndTo   wsa.EPR
	Mode    string
	Filter  Filter
	Expires time.Time
	// Health is the persisted delivery-health record; the source's
	// in-memory tracker is authoritative while running and writes
	// through here on transitions.
	Health SubscriptionHealth
}

// Expired reports whether the subscription has lapsed at the given time.
func (s *Subscription) Expired(now time.Time) bool {
	return !s.Expires.IsZero() && s.Expires.Before(now)
}

func (s *Subscription) encode() *xmlutil.Element {
	el := xmlutil.New(NS, "Subscription").SetAttr("", "Id", s.ID)
	el.Add(s.NotifyTo.Element(NS, "NotifyTo"))
	if !s.EndTo.IsZero() {
		el.Add(s.EndTo.Element(NS, "EndTo"))
	}
	el.Add(xmlutil.NewText(NS, "Mode", s.Mode))
	if !s.Filter.IsZero() {
		el.Add(xmlutil.NewText(NS, "Filter", s.Filter.Expr).SetAttr("", "Dialect", s.Filter.Dialect))
	}
	if !s.Expires.IsZero() {
		el.Add(xmlutil.NewText(NS, "Expires", s.Expires.UTC().Format(time.RFC3339Nano)))
	}
	if !s.Health.IsZero() {
		el.Add(fanout.EncodeHealth(s.Health, NS, "Health"))
	}
	return el
}

func decodeSubscription(el *xmlutil.Element) (*Subscription, error) {
	s := &Subscription{ID: el.AttrValue("", "Id")}
	if s.ID == "" {
		return nil, fmt.Errorf("wse: subscription element has no Id")
	}
	nt := el.Child(NS, "NotifyTo")
	if nt == nil {
		return nil, fmt.Errorf("wse: subscription %s has no NotifyTo", s.ID)
	}
	epr, err := wsa.ParseEPR(nt)
	if err != nil {
		return nil, fmt.Errorf("wse: subscription %s: %w", s.ID, err)
	}
	s.NotifyTo = epr
	if et := el.Child(NS, "EndTo"); et != nil {
		if epr, err := wsa.ParseEPR(et); err == nil {
			s.EndTo = epr
		}
	}
	s.Mode = el.ChildText(NS, "Mode")
	if f := el.Child(NS, "Filter"); f != nil {
		s.Filter = Filter{Dialect: f.AttrValue("", "Dialect"), Expr: f.TrimText()}
	}
	if e := el.ChildText(NS, "Expires"); e != "" {
		t, err := time.Parse(time.RFC3339Nano, e)
		if err != nil {
			return nil, fmt.Errorf("wse: subscription %s: bad Expires: %w", s.ID, err)
		}
		s.Expires = t
	}
	if h := el.Child(NS, "Health"); h != nil {
		s.Health = fanout.DecodeHealth(h, NS)
	}
	return s, nil
}
