package counter

import (
	"fmt"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/wsa"
	"altstacks/internal/wse"
	"altstacks/internal/wst"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// WSTService is the counter on the WS-Transfer/WS-Eventing stack.
// Per the paper's design (§4.1.2): "Create() stores this XML document
// without modification into Xindice … Get() retrieves the XML document
// and returns the document without any manipulation … Put() updates
// the corresponding XML document … Delete() removes the XML document."
type WSTService struct {
	Transfer *wst.Service
	Source   *wse.Source
}

// InstallWST wires the WS-Transfer counter into a container at
// /counter, with the WS-Eventing source at /counter-events and its
// subscription manager at /counter-evtmgr. The subscription list lives
// in the given store (a flat XML file in deployments, memory in tests).
func InstallWST(c *container.Container, db *xmldb.DB, store *wse.Store, deliver *container.Client) *WSTService {
	s := &WSTService{}
	s.Source = wse.NewSource(store, func() string { return c.BaseURL() + "/counter-evtmgr" }, deliver)
	s.Transfer = &wst.Service{
		DB:         db,
		Collection: "counters",
		RefSpace:   NS,
		RefLocal:   "ResourceID",
		Endpoint:   func() string { return c.BaseURL() + "/counter" },
		Hooks: wst.Hooks{
			// Put fires the value-changed event; the topic embeds the
			// resource id, giving per-resource subscriptions via filters
			// ("a filter can be used for registering a subscription per
			// resource", §3.2).
			OnPut: func(ctx *container.Ctx, id string, stored, rep *xmlutil.Element) (*xmlutil.Element, error) {
				v, err := Value(rep)
				if err != nil {
					return nil, err
				}
				// Event dispatch inside Put processing, mirroring the
				// WSRF counter; the TCP push itself is one-way. Delivery
				// outcomes land per-subscriber in the source's health
				// ledger (eviction included), so the summary error must
				// not fail the Put that triggered the event.
				//lint:ignore ogsalint/soapfault delivery faults are recorded per-subscriber in the source's health ledger
				_, _ = s.Source.PublishContext(ctx.Context, eventTopic(id), changeMessage(id, v))
				return rep, nil
			},
		},
	}
	c.Register(s.Transfer.ContainerService("/counter"))
	c.Register(s.Source.SourceService("/counter-events"))
	c.Register(s.Source.ManagerService("/counter-evtmgr"))
	c.OnClose(s.Source.TCP.Close)
	return s
}

func eventTopic(counterID string) string {
	return "counter/" + counterID + "/valueChanged"
}

// WSTClient drives the WS-Transfer counter; it satisfies
// counter.Client. Its methods traffic in raw XML representations with
// the schema hard-coded on both sides — the schema-less trait of
// WS-Transfer the paper calls out (§3.2).
type WSTClient struct {
	T *wst.Client
	// Factory is the counter service EPR.
	Factory wsa.EPR
	// EventSource is the WS-Eventing source EPR.
	EventSource wsa.EPR
}

var _ Client = (*WSTClient)(nil)

// NewWSTClient builds the client given the container base URL.
func NewWSTClient(c *container.Client, baseURL string) *WSTClient {
	return &WSTClient{
		T:           &wst.Client{C: c},
		Factory:     wsa.NewEPR(baseURL + "/counter"),
		EventSource: wsa.NewEPR(baseURL + "/counter-events"),
	}
}

// Create presents the representation to the factory.
func (c *WSTClient) Create(initial *xmlutil.Element) (wsa.EPR, error) {
	if initial == nil {
		initial = Representation(0)
	}
	epr, _, err := c.T.Create(c.Factory, initial)
	return epr, err
}

// Get fetches the representation (same schema as given to Create).
func (c *WSTClient) Get(resource wsa.EPR) (*xmlutil.Element, error) {
	return c.T.Get(resource)
}

// Set replaces the representation.
func (c *WSTClient) Set(resource wsa.EPR, rep *xmlutil.Element) error {
	return c.T.Put(resource, rep)
}

// Destroy deletes the resource.
func (c *WSTClient) Destroy(resource wsa.EPR) error {
	return c.T.Delete(resource)
}

// SubscribeValueChanged subscribes to the counter's value-change
// events over WS-Eventing, through Plumbwork's raw-TCP channel: the
// notification path the paper measured.
func (c *WSTClient) SubscribeValueChanged(resource wsa.EPR) (core.EventStream, error) {
	id, ok := resource.Property(NS, "ResourceID")
	if !ok {
		return nil, fmt.Errorf("counter: EPR has no ResourceID")
	}
	sink, err := wse.NewTCPSink(16)
	if err != nil {
		return nil, err
	}
	res, err := wse.Subscribe(c.T.C, c.EventSource, wse.SubscribeOptions{
		NotifyTo: wsa.NewEPR(sink.Addr()),
		Mode:     wse.DeliveryModeTCP,
		Filter:   wse.TopicFilter(eventTopic(id)),
	})
	if err != nil {
		sink.Close()
		return nil, err
	}
	return core.NewStream(sink.Ch, func() error {
		err := wse.Unsubscribe(c.T.C, res.Manager)
		sink.Close()
		return err
	}), nil
}
