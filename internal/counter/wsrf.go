package counter

import (
	"encoding/xml"
	"fmt"
	"strconv"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/wsn"
	"altstacks/internal/wsrf"
	"altstacks/internal/wsrf/rl"
	"altstacks/internal/wsrf/rp"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// ActionCreate is the author-defined creation operation of the WSRF
// counter. WSRF defines no Create, so "the service author has only had
// to define a single WebMethod, create, … inheriting all other
// WS-Resource behavior from the WSRF.NET base libraries" (§4.1.1).
const ActionCreate = NS + "/Create"

// WSRFService is the counter on the WSRF/WS-Notification stack.
type WSRFService struct {
	Home     *wsrf.Home
	Producer *wsn.Producer
}

// InstallWSRF wires the WSRF counter into a container at /counter
// (service + subscriptions) and /counter-submgr (subscription
// manager). deliver is the client used for pushing notifications.
func InstallWSRF(c *container.Container, db *xmldb.DB, deliver *container.Client) *WSRFService {
	s := &WSRFService{
		Home: &wsrf.Home{
			DB:         db,
			Collection: "counters",
			RefSpace:   NS,
			RefLocal:   "CounterID",
			Endpoint:   func() string { return c.BaseURL() + "/counter" },
			// The WSRF.NET write-through resource cache (§4.1.3).
			CacheEnabled: true,
		},
	}
	s.Producer = wsn.NewProducer(db, "counter-subscriptions",
		func() string { return c.BaseURL() + "/counter-submgr" }, deliver)

	// The resource is "simply a single variable" cv; setting it through
	// SetResourceProperties fires the CounterValueChanged notification.
	s.Home.DefineProperty(wsrf.PropertyDef{
		Name: xml.Name{Space: NS, Local: "cv"},
		Get: func(r *wsrf.Resource) []*xmlutil.Element {
			return []*xmlutil.Element{xmlutil.NewText(NS, "cv", r.State.ChildText(NS, "cv"))}
		},
		Set: func(r *wsrf.Resource, values []*xmlutil.Element) error {
			if len(values) != 1 {
				return fmt.Errorf("cv takes exactly one value, got %d", len(values))
			}
			v, err := strconv.Atoi(values[0].TrimText())
			if err != nil {
				return fmt.Errorf("cv must be an integer: %v", err)
			}
			r.State.Child(NS, "cv").Text = strconv.Itoa(v)
			// Notification on change (§4.1: "this service optionally
			// delivers an asynchronous notification to a consumer when
			// the value of the counter is changed"). Dispatch runs as
			// part of SetResourceProperties processing, as WSRF.NET's
			// did; delivery to the consumer is the asynchronous part.
			// Delivery outcomes land per-subscriber in the producer's
			// health ledger; the summary error must not fail the Set.
			// r.Context() carries the SetResourceProperties request
			// context, so the dispatch trace extends into delivery.
			//lint:ignore ogsalint/soapfault delivery faults are recorded per-subscriber in the producer's health ledger
			_, _ = s.Producer.NotifyContext(r.Context(), TopicValueChanged, changeMessage(r.ID, v))
			return nil
		},
	})

	svc := &container.Service{
		Path: "/counter",
		Actions: map[string]container.ActionFunc{
			ActionCreate: s.create,
		},
	}
	wsrf.Aggregate(svc,
		&rp.PortType{Home: s.Home},
		rl.NewPortType(s.Home),
		s.Producer.ProducerPortType(),
	)
	c.Register(svc)
	c.Register(s.Producer.ManagerService("/counter-submgr"))
	return s
}

// create is the author-defined WebMethod: it calls the library-level
// Create with cv initialized from the request (default 0).
func (s *WSRFService) create(ctx *container.Ctx) (*xmlutil.Element, error) {
	initial := 0
	if v := ctx.Envelope.Body.ChildText(NS, "Value"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, soap.Faultf(soap.FaultClient, "initial value %q is not an integer", v)
		}
		initial = n
	}
	state := xmlutil.New(NS, "CounterState").Add(
		xmlutil.NewText(NS, "cv", strconv.Itoa(initial)))
	epr, err := s.Home.CreateContext(ctx.Context, state)
	if err != nil {
		return nil, err
	}
	return xmlutil.New(NS, "CreateResponse").Add(
		epr.Element(wsa.NS, "EndpointReference")), nil
}

// WSRFClient drives the WSRF counter; it satisfies counter.Client.
type WSRFClient struct {
	C *container.Client
	// Service is the counter service EPR (for Create and Subscribe).
	Service wsa.EPR
}

var _ Client = (*WSRFClient)(nil)

// Create instantiates a counter via the author-defined operation.
func (c *WSRFClient) Create(initial *xmlutil.Element) (wsa.EPR, error) {
	body := xmlutil.New(NS, "Create")
	if initial != nil {
		body.Add(xmlutil.NewText(NS, "Value", initial.ChildText(NS, "Value")))
	}
	resp, err := c.C.Call(c.Service, ActionCreate, body)
	if err != nil {
		return wsa.EPR{}, err
	}
	eprEl := resp.Child(wsa.NS, "EndpointReference")
	if eprEl == nil {
		return wsa.EPR{}, fmt.Errorf("counter: CreateResponse carries no EPR")
	}
	return wsa.ParseEPR(eprEl)
}

// Get reads the cv resource property and synthesizes the canonical
// representation.
func (c *WSRFClient) Get(resource wsa.EPR) (*xmlutil.Element, error) {
	rpc := rp.Client{C: c.C}
	vals, err := rpc.GetProperty(resource, "cv")
	if err != nil {
		return nil, err
	}
	if len(vals) != 1 {
		return nil, fmt.Errorf("counter: cv property has %d values", len(vals))
	}
	n, err := strconv.Atoi(vals[0].TrimText())
	if err != nil {
		return nil, fmt.Errorf("counter: cv = %q", vals[0].TrimText())
	}
	return Representation(n), nil
}

// Set updates cv via SetResourceProperties.
func (c *WSRFClient) Set(resource wsa.EPR, rep *xmlutil.Element) error {
	n, err := Value(rep)
	if err != nil {
		return err
	}
	rpc := rp.Client{C: c.C}
	return rpc.Update(resource, xmlutil.NewText(NS, "cv", strconv.Itoa(n)))
}

// Destroy removes the counter via WS-ResourceLifetime.
func (c *WSRFClient) Destroy(resource wsa.EPR) error {
	rlc := rl.Client{C: c.C}
	return rlc.Destroy(resource)
}

// SubscribeValueChanged subscribes to CounterValueChanged for the
// specific counter: the topic selects the event type and a
// message-content filter pins the counter id.
func (c *WSRFClient) SubscribeValueChanged(resource wsa.EPR) (core.EventStream, error) {
	id, ok := resource.Property(NS, "CounterID")
	if !ok {
		return nil, fmt.Errorf("counter: EPR has no CounterID")
	}
	cons, err := wsn.NewConsumer(16)
	if err != nil {
		return nil, err
	}
	subEPR, err := wsn.Subscribe(c.C, c.Service, cons.EPR(), wsn.SubscribeOptions{
		Topic:          wsn.Simple(TopicValueChanged),
		MessageContent: fmt.Sprintf("/%s[CounterID='%s']", TopicValueChanged, id),
	})
	if err != nil {
		cons.Close()
		return nil, err
	}
	return core.NewStream(cons.Ch, func() error {
		err := wsn.Unsubscribe(c.C, subEPR)
		cons.Close()
		return err
	}), nil
}
